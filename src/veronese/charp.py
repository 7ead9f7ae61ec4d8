"""Characteristic-p tools: Frobenius powers, Fedder's F-purity criterion,
and affine semigroup membership with verified witnesses.

Fedder's criterion is decided two ways.  ``fedder_fpure`` computes the
colon (I^[p] : I) and works for any homogeneous ideal over GF(p).
``fedder_fiber`` is for the toric ideal of a set of targets: it never forms
the colon, but solves one sparse linear system over GF(p) in a single
multidegree, whose rows are keyed by residues mod p, since a toric ring has
one standard monomial in each multidegree and so no row needs a normal
form; its solution u is re-checked on packed monomials by reducing each
product u g against the Frobenius basis of I^[p], which needs no Buchberger
run.  The Veronese certificate uses the fiber route; the colon route serves
general homogeneous input and is the fiber route's oracle in the tests.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .polycore import (
    GrevLex, PrimeField, Polynomial, Exponents, ResourceCapError, _Packing,
    _PackingOverflow, _Record, _naturals, _nf_dict, _packed, is_homogeneous,
)
from .groebner import (
    GroebnerBasis, Ideal, buchberger, colon_ideal, _gb_entries,
    _pure_difference,
)
from .toric import MonomialMap, toric_ideal_lattice

__all__ = [
    "frobenius_power", "FpurityReport", "fedder_fpure",
    "FiberReport", "fedder_fiber", "FIBER_CAP", "SEMIGROUP_CAP",
    "FEDDER_PRIME_CAP",
    "AffineSemigroup", "semigroup_member", "monomial_ideal_member",
]

_GREVLEX = GrevLex()


def _characteristic(ideal: Ideal) -> int:
    """p of an ideal over GF(p); an ideal over QQ raises ``ValueError``."""
    dom = ideal.ring.domain
    if not isinstance(dom, PrimeField):
        raise ValueError(f"ideal must live over a prime field, not {dom}")
    return dom.p


def frobenius_power(ideal: Ideal) -> Ideal:
    """Bracket power I^[p] = (g^p : g in generators), p read from the ring.

    Over F_p the freshman's dream and Fermat give g^p termwise: every
    exponent scales by p and coefficients are fixed.
    """
    p = _characteristic(ideal)
    gens = tuple(
        Polynomial(ideal.ring, tuple((tuple(e * p for e in m), c) for m, c in g.terms))
        for g in ideal.generators)
    return Ideal(ideal.ring, gens)


class FpurityReport(_Record):
    """Fedder's criterion: R/I is F-pure iff (I^[p] : I) is not contained in
    the bracket power of the irrelevant maximal ideal.  The certificate is
    the first colon generator with a term all of whose exponents are < p."""

    __match_args__ = ("p", "colon_generators", "certificate", "f_pure")
    __slots__ = __match_args__


def fedder_fpure(ideal: Ideal) -> FpurityReport:
    """Decide F-purity of R/I at the irrelevant maximal ideal via Fedder.

    Requires a homogeneous proper ideal over GF(p), p read from its ring;
    an ideal over QQ is refused rather than coerced, and p above
    ``FEDDER_PRIME_CAP`` raises ``ResourceCapError`` before any Groebner run.
    """
    p = _characteristic(ideal)
    if p > FEDDER_PRIME_CAP:
        raise ResourceCapError(f"the Fedder colon at p = {p} exceeds the cap "
                               f"of p = {FEDDER_PRIME_CAP}")
    bracket = frobenius_power(ideal)
    for g in ideal.generators:
        if not is_homogeneous(g):
            raise ValueError(f"non-homogeneous generator: {g}")
    if not ideal.is_zero():
        gb = buchberger(ideal, _GREVLEX)
        if any(g.total_degree() == 0 for g in gb.elements):
            raise ValueError("Fedder needs a proper ideal")
    col = colon_ideal(bracket, ideal)
    certificate = None
    for g in col.generators:
        if any(all(e < p for e in m) for m, _ in g.terms):
            certificate = g
            break
    return FpurityReport(
        p=p,
        colon_generators=col.generators,
        certificate=certificate,
        f_pure=certificate is not None,
    )


# ---------------------------------------------------------------------------
# affine semigroups
# ---------------------------------------------------------------------------

class AffineSemigroup(_Record):
    """Submonoid of N^k generated by nonzero nonnegative integer vectors."""

    __match_args__ = ("generators",)
    __slots__ = __match_args__

    def __init__(self, generators: Sequence[Sequence[int]]) -> None:
        gens = tuple(tuple(g) for g in generators)
        if not gens:
            raise ValueError("a semigroup needs at least one generator")
        k = len(gens[0])
        for g in gens:
            if not any(_naturals(g, k)):
                raise ValueError("zero generator")
        super().__init__(gens)

    @property
    def arity(self) -> int:
        return len(self.generators[0])


def semigroup_member(sg: AffineSemigroup, target: Sequence[int]
                     ) -> tuple[bool, Optional[tuple[Exponents, ...]]]:
    """Decide membership of the target vector by depth-first search over
    generator subtractions, memoizing failed residuals.  Terminates because
    every generator has positive total degree.  The search keeps its own
    stack, one frame per residual on the current path, so deep searches
    cannot overflow the interpreter's recursion limit; past
    ``SEMIGROUP_CAP`` pushed frames it raises ``ResourceCapError``.  On
    success the witness multiset is returned after re-verification by
    summation.
    """
    target = _naturals(target, sg.arity)
    gens = sg.generators
    failed: set[Exponents] = set()
    path: list[Exponents] = []           # generators subtracted so far
    # [residual, index of the next generator to try]; the residual of
    # frame i + 1 is that of frame i minus path[i]
    stack: list[list] = [[target, 0]] if any(target) else []
    found = not stack
    pushed = 0
    while stack and not found:
        frame = stack[-1]
        res, start = frame
        for idx in range(start, len(gens)):
            g = gens[idx]
            if all(a <= b for a, b in zip(g, res)):
                child = tuple(b - a for a, b in zip(g, res))
                if child in failed:
                    continue
                frame[1] = idx + 1
                path.append(g)
                if any(child):
                    pushed += 1
                    if pushed > SEMIGROUP_CAP:
                        raise ResourceCapError(f"semigroup search past the "
                                               f"cap of {SEMIGROUP_CAP} frames")
                    stack.append([child, 0])
                else:
                    found = True
                break
        else:
            failed.add(res)
            stack.pop()
            if stack:
                path.pop()
    if not found:
        return (False, None)
    witness = tuple(path)
    sums = [0] * sg.arity
    for g in witness:
        for i, e in enumerate(g):
            sums[i] += e
    if tuple(sums) != target:
        raise RuntimeError("witness failed re-verification; search bug")
    return (True, witness)


def monomial_ideal_member(sg: AffineSemigroup, numerator: Sequence[int],
                          generator: Sequence[int]) -> bool:
    """Does x^numerator lie in the ideal generated by x^generator inside the
    semigroup ring F[sg]?  True iff numerator - generator stays in sg."""
    residual = tuple(a - b for a, b in zip(_naturals(numerator, sg.arity),
                                           _naturals(generator, sg.arity)))
    if any(e < 0 for e in residual):
        return False
    return semigroup_member(sg, residual)[0]


# ---------------------------------------------------------------------------
# Fedder's criterion by linear algebra in one multidegree
# ---------------------------------------------------------------------------

#: most candidate unknowns, and most residues in either half of their
#: search, that ``fedder_fiber`` takes on: Veronese (3,3) has 78,125 at
#: p = 5 and would have 823,543 at p = 7
FIBER_CAP = 100_000

#: most frames one ``semigroup_member`` search pushes; the largest search
#: of ``cd_certificate(3, 3, (2, 3))`` pushes 97
SEMIGROUP_CAP = 1 << 16

#: largest p at which ``fedder_fpure`` forms the colon (I^[p] : I), whose
#: elements such as f^(p-1) grow with p: ``present`` on the conic takes
#: 1.3 s at p = 65521 and 4.5 s at p = 262139
FEDDER_PRIME_CAP = 1 << 16


class FiberReport(_Record):
    """The fiber route's verdict and the size of its linear system:
    ``fiber_size`` unknowns, ``constraints`` nonzero rows of rank ``rank``.
    ``witness`` is the verified element u of (I^[p] : I) with x^(p-1)
    coefficient 1 when R/I is F-pure, else None."""

    __match_args__ = ("p", "fiber_size", "constraints", "rank", "witness",
                      "f_pure")
    __slots__ = __match_args__


def _pure_binomial(g: Polynomial) -> tuple[Exponents, Exponents]:
    """(lead, tail) of a pure difference c*(m1 - m2), grevlex lead first."""
    monomials = _pure_difference(g)
    if monomials is None or len(monomials) != 2:
        raise ValueError(f"not a pure binomial: {g}")
    return monomials


def _times(g: Polynomial, support: list, packing: _Packing, p: int
           ) -> dict:
    """g u for the u whose terms are the packed monomials ``support``, each
    with coefficient 1, as one packed term dict over GF(p) without zero
    terms.  Raises ``_PackingOverflow`` when a product outgrows its
    fields."""
    guard = packing.guard
    product: dict[int, int] = {}
    get = product.get
    for m, c in packing.pack_terms(g.terms).items():
        for x in map(m.__add__, support):
            if x & guard:
                raise _PackingOverflow
            product[x] = (get(x, 0) + c) % p
    return {x: c for x, c in product.items() if c}


def fedder_fiber(ideal: Ideal, targets: Sequence[Sequence[int]]
                 ) -> FiberReport:
    """Decide F-purity of R/I for the toric ideal I of ``targets`` over
    GF(p), p read from its ring, R = F_p[t_1..t_d], deg t_i = a_i, without
    the colon (I^[p] : I); an ideal over QQ is refused, and so are targets
    that ``MonomialMap`` refuses, a repeated one among them.

    Frobenius basis.  Let G be the reduced grevlex basis of I.  Then
    G^[p] = {g^p} is the reduced basis of I^[p]: g -> g^p is a ring map
    over F_p that scales every exponent by p, so it keeps the term order,
    sends S(f, g) to S(f^p, g^p) and a standard representation of S(f, g)
    over G to one of S(f^p, g^p) over G^[p] (Frobenius is flat on R, Kunz
    1969), and m^p divides n^p iff m divides n, so G^[p] stays reduced.
    Its leads are the p-th powers of those of G, so a monomial
    t^(p q + r), 0 <= r < p, is standard modulo G^[p] iff t^q is standard
    modulo G, and rewriting t^(p q + r) by G^[p] rewrites t^q by G and
    keeps r.  A toric ideal has pure binomial basis elements and one
    standard monomial in each multidegree of the semigroup, so the normal
    form of a monomial is one monomial.  A G other than the reduced basis
    of ``toric_ideal_lattice`` of the targets means the ideal is not their
    toric ideal and raises ``ValueError`` before any unknown is built.

    Reduction to one multidegree.  By Fedder (1983) R/I is F-pure iff some
    u in (I^[p] : I) has a term outside m^[p], i.e. with every exponent
    below p.  Multiplying u by a monomial moves that term onto
    x^(p-1) = prod t_i^(p-1), and the colon is graded by the multidegree, so
    R/I is F-pure iff some u of multidegree delta = (p-1) sum a_i has a
    nonzero x^(p-1) coefficient and u g in I^[p] for every g in G.  As
    I^[p] lies in m^[p], u may be taken reduced modulo G^[p].  The unknowns
    are therefore the coefficients of the standard monomials p q + r of
    multidegree delta, one per residue r; each g = m1 - m2 gives, for each
    unknown s, the rows NF(s m1) - NF(s m2), and R/I is F-pure iff
    e_(x^(p-1)) is outside their span over F_p.

    The linear algebra.  Rows are keyed by residue: NF(t^(p q + r) m) has
    the residue (r + m) mod p, and its quotient part is the one standard
    monomial of the multidegree that residue leaves.  So with
    v = (m1 - m2) mod p, g's row through the unknown r is e_r - e_(r+v)
    when r + v is an unknown and e_r when it is not, every unknown that no
    r + v reaches has the row -e_r, and v = 0 gives no rows.  Elimination
    is then union-find: the solutions are constant on the components
    linked by two-entry rows and vanish on those that hold a single-entry
    row.  A row -e_r grounds nothing more: the unknowns r, r + v, r + 2v,
    ... are linked until the first whose r + v is not an unknown, which
    the cycle of v (order p) reaches, and that one holds a row e_r.  When
    x^(p-1) lies in a free component, u is the sum of that component's
    monomials.

    The unknowns are enumerated as p q + r: a meet-in-the-middle on
    A r mod p over the two halves of the variables finds the residues r
    with A r = delta (mod p); A r <= delta holds for every r with entries
    below p.  q is the standard monomial of multidegree (delta - A r) / p,
    found through ``semigroup_member``.  A search whose half holds more
    than ``FIBER_CAP`` residues, or that finds more than ``FIBER_CAP``
    candidate residues, raises ``ResourceCapError`` before any unknown is
    built.

    The witness and its re-check.  Only these run on packed monomials
    (``polycore._packed``), and only when x^(p-1) lies in a free
    component: q is one ``_nf_dict`` call on one packed monomial.  Then,
    without the rows or the union-find, u g is formed for every input
    generator g as one packed term dict and reduced once by ``_nf_dict``
    against G^[p]; a nonzero remainder, or an x^(p-1) coefficient other
    than 1, raises ``RuntimeError``.  No ``Polynomial`` is built but the
    returned u, and a monomial that outgrows the packed fields repeats the
    part with wider fields from scratch.
    """
    p = _characteristic(ideal)
    ring = ideal.ring
    sg = AffineSemigroup(tuple(tuple(a) for a in targets))
    A = sg.generators
    d, k = ring.arity, sg.arity
    if len(A) != d:
        raise ValueError(f"{len(A)} targets for {d} ring variables")

    def degree(m: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(e * a[j] for e, a in zip(m, A)) for j in range(k))

    for g in ideal.generators:
        m1, m2 = _pure_binomial(g)
        if degree(m1) != degree(m2):
            raise ValueError(f"not homogeneous in the target grading: {g}")
    gb = buchberger(ideal, _GREVLEX)
    toric = buchberger(toric_ideal_lattice(MonomialMap(A), ring.domain),
                       _GREVLEX)
    if [g.terms for g in gb.elements] != [g.terms for g in toric.elements]:
        raise ValueError("the ideal is not the toric ideal of the targets")

    # the unknowns p q + r, one per residue r that reaches delta
    delta = tuple((p - 1) * sum(a[j] for a in A) for j in range(k))

    def residues(indices: range) -> list:
        """Every (r, A r) with r over ``indices``, entries below p."""
        out = [((), (0,) * k)]
        for i in indices:
            a = A[i]
            out = [(r + (e,), tuple(x + e * y for x, y in zip(v, a)))
                   for r, v in out for e in range(p)]
        return out

    half = d // 2
    if p ** (d - half) > FIBER_CAP:
        raise ResourceCapError(
            f"{p ** (d - half)} residues in half of the Fedder search at "
            f"p = {p} exceed the cap of {FIBER_CAP}")
    by_class: dict[tuple[int, ...], list] = {}
    for r, v in residues(range(half)):
        by_class.setdefault(tuple(x % p for x in v), []).append((r, v))
    joins = [(r2, v2, by_class.get(
        tuple((z - x) % p for z, x in zip(delta, v2)), ()))
        for r2, v2 in residues(range(half, d))]
    candidates = sum(len(matches) for _, _, matches in joins)
    if candidates > FIBER_CAP:
        raise ResourceCapError(
            f"{candidates} candidate Fedder unknowns at p = {p} exceed the "
            f"cap of {FIBER_CAP}")
    # each unknown as (e, r): t^e is some monomial of multidegree
    # (delta - A r) / p, q its normal form
    index = {a: i for i, a in enumerate(A)}
    quotients: dict[tuple[int, ...], Optional[Exponents]] = {}
    unknowns: list[tuple[Exponents, Exponents]] = []
    for r2, v2, matches in joins:
        for r1, v1 in matches:
            v = tuple(x + y for x, y in zip(v1, v2))
            target = tuple((z - x) // p for z, x in zip(delta, v))
            if target not in quotients:
                found, witness = semigroup_member(sg, target)
                e = None
                if found:
                    e = [0] * d
                    for a in witness:
                        e[index[a]] += 1
                    e = tuple(e)
                quotients[target] = e
            e = quotients[target]
            if e is not None:
                unknowns.append((e, r1 + r2))

    # g = m1 - m2 joins the unknowns r and r + v, and grounds r when r + v
    # is not an unknown
    position = {r: j for j, (_, r) in enumerate(unknowns)}
    parent = list(range(len(unknowns)))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    constraints = 0
    grounded: set[int] = set()
    for m1, m2 in map(_pure_binomial, gb.elements):
        v = tuple((a - b) % p for a, b in zip(m1, m2))
        if not any(v):
            continue
        joined = 0
        for j, (_, r) in enumerate(unknowns):
            i = position.get(tuple([(a + b) % p for a, b in zip(r, v)]))
            if i is None:
                grounded.add(j)
            else:
                joined += 1
                parent[find(i)] = find(j)
        constraints += 2 * len(unknowns) - joined
    roots = {find(j) for j in range(len(unknowns))}
    grounded = {find(j) for j in grounded}
    rank = len(unknowns) - len(roots - grounded)

    top = (p - 1,) * d
    x_root = find(position[top])

    def run(packing: _Packing) -> Polynomial:
        pack, guard = packing.pack, packing.guard
        entries = _gb_entries(gb, packing)
        reduced: dict[Exponents, Exponents] = {}
        support = []          # u's packed terms t^(p q + r), q = NF(t^e)
        for j, (e, r) in enumerate(unknowns):
            if find(j) == x_root:
                if e not in reduced:
                    (q,) = _nf_dict({pack(e): 1}, entries, guard, p)
                    reduced[e] = packing.unpack(q)
                support.append(pack(tuple([
                    p * a + b for a, b in zip(reduced[e], r)])))
        support.sort(reverse=True)
        witness = packing.polynomial(ring, dict.fromkeys(support, 1))
        frobenius = _gb_entries(GroebnerBasis(
            ring, _GREVLEX,
            frobenius_power(Ideal(ring, gb.elements)).generators), packing)
        if witness.coefficient(top) != 1 or any(
                _nf_dict(_times(g, support, packing, p), frobenius, guard, p)
                for g in ideal.generators):
            raise RuntimeError("fiber witness failed re-verification; "
                               "elimination bug")
        return witness

    witness = None if x_root in grounded else _packed(_GREVLEX, d, run)
    return FiberReport(p=p, fiber_size=len(unknowns),
                       constraints=constraints, rank=rank,
                       witness=witness, f_pure=witness is not None)
