"""Characteristic-p tools: Frobenius powers, Fedder's F-purity criterion,
and affine semigroup membership with verified witnesses.

Fedder's criterion is decided two ways.  ``fedder_fpure`` computes the
colon (I^[p] : I) and works for any homogeneous ideal over GF(p).
``fedder_fiber`` is for the toric ideal of a set of targets: it never forms
the colon, but solves one sparse linear system over GF(p) in a single
multidegree, over the Frobenius basis of I^[p], which needs no Buchberger
run.  The Veronese certificate uses the fiber route; the colon route serves
general homogeneous input and is the fiber route's oracle in the tests.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .polycore import (
    GrevLex, PrimeField, Polynomial, Exponents, _Record, is_homogeneous,
)
from .groebner import (
    GroebnerBasis, Ideal, buchberger, colon_ideal, normal_form,
)

__all__ = [
    "frobenius_power", "FpurityReport", "fedder_fpure",
    "FiberReport", "fedder_fiber",
    "AffineSemigroup", "semigroup_member", "monomial_ideal_member",
]

_GREVLEX = GrevLex()


def frobenius_power(ideal: Ideal, p: int) -> Ideal:
    """Bracket power I^[p] = (g^p : g in generators) over F_p.

    Over F_p the freshman's dream and Fermat give g^p termwise: every
    exponent scales by p and coefficients are fixed.
    """
    dom = ideal.ring.domain
    if not isinstance(dom, PrimeField) or dom.p != p:
        raise ValueError(f"ideal must live over GF({p}), not {dom}")
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


def fedder_fpure(ideal: Ideal, p: int) -> FpurityReport:
    """Decide F-purity of R/I at the irrelevant maximal ideal via Fedder.

    Requires a homogeneous proper ideal over GF(p); ``frobenius_power``,
    called first, rejects an ideal over another domain rather than coerce it.
    """
    bracket = frobenius_power(ideal, p)
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
            if len(g) != k:
                raise ValueError("generators of unequal arity")
            if any((not isinstance(e, int)) or e < 0 for e in g):
                raise ValueError(f"bad generator {g!r}")
            if all(e == 0 for e in g):
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
    cannot overflow the interpreter's recursion limit.  On success the
    witness multiset is returned after re-verification by summation.
    """
    target = tuple(target)
    if len(target) != sg.arity:
        raise ValueError(f"target arity {len(target)} != {sg.arity}")
    if any((not isinstance(e, int)) or e < 0 for e in target):
        raise ValueError(f"bad target {target!r}")
    gens = sg.generators
    failed: set[Exponents] = set()
    path: list[Exponents] = []           # generators subtracted so far
    # [residual, index of the next generator to try]; the residual of
    # frame i + 1 is that of frame i minus path[i]
    stack: list[list] = [[target, 0]] if any(target) else []
    found = not stack
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
    numerator = tuple(numerator)
    generator = tuple(generator)
    if len(numerator) != sg.arity or len(generator) != sg.arity:
        raise ValueError("arity mismatch")
    residual = tuple(a - b for a, b in zip(numerator, generator))
    if any(e < 0 for e in residual):
        return False
    return semigroup_member(sg, residual)[0]


# ---------------------------------------------------------------------------
# Fedder's criterion by linear algebra in one multidegree
# ---------------------------------------------------------------------------

class FiberReport(_Record):
    """The fiber route's verdict and the size of its linear system:
    ``fiber_size`` unknowns, ``constraints`` nonzero rows of rank ``rank``.
    ``witness`` is the verified element u of (I^[p] : I) with x^(p-1)
    coefficient 1 when R/I is F-pure, else None."""

    __match_args__ = ("p", "fiber_size", "constraints", "rank", "witness",
                      "f_pure")
    __slots__ = __match_args__


def _pure_binomial(g: Polynomial, minus_one: int) -> tuple[Exponents, Exponents]:
    """(lead, tail) of a pure difference +-(m1 - m2), grevlex lead first."""
    if len(g.terms) != 2 or sorted(c for _, c in g.terms) != sorted((1, minus_one)):
        raise ValueError(f"not a pure binomial: {g}")
    return g.terms[0][0], g.terms[1][0]


def fedder_fiber(ideal: Ideal, targets: Sequence[Sequence[int]], p: int
                 ) -> FiberReport:
    """Decide F-purity of R/I for the toric ideal I of ``targets`` over
    GF(p), R = F_p[t_1..t_d], deg t_i = a_i, without the colon (I^[p] : I).

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
    form of a monomial is one monomial.

    Reduction to one multidegree.  By Fedder (1983) R/I is F-pure iff some
    u in (I^[p] : I) has a term outside m^[p], i.e. with every exponent
    below p.  Multiplying u by a monomial moves that term onto
    x^(p-1) = prod t_i^(p-1), and the colon is graded by the multidegree, so
    R/I is F-pure iff some u of multidegree delta = (p-1) sum a_i has a
    nonzero x^(p-1) coefficient and u g in I^[p] for every g in G.  As
    I^[p] lies in m^[p], u may be taken reduced modulo G^[p].  The unknowns
    are therefore the coefficients of the standard monomials p q + r of
    multidegree delta; each g = m1 - m2 gives, for each unknown s, the
    rows NF(s m1) - NF(s m2), and R/I is F-pure iff e_(x^(p-1)) is outside
    their span over F_p.

    The linear algebra.  Multiplication by a monomial is injective on
    R/I^[p], a direct sum of copies of the domain R/I indexed by r, so
    distinct unknowns s never share NF(s m1), nor NF(s m2): every nonzero
    row is e_s - e_s' or a single +-e_s.  Elimination is then union-find:
    the solutions are constant on the components linked by two-entry rows
    and vanish on those that hold a single-entry row.  When x^(p-1) lies in
    a free component, u is the sum of that component's monomials; it is
    re-checked with the generic ``normal_form`` against G^[p], and a failed
    re-check raises ``RuntimeError``.  A row of any other shape means the
    ideal is not the toric ideal of the targets and raises ``ValueError``.

    The unknowns are enumerated as p q + r: a meet-in-the-middle on
    A r mod p over the two halves of the variables finds the residues r
    with A r = delta (mod p) and A r <= delta, and q is the standard
    monomial of multidegree (delta - A r) / p, found through
    ``semigroup_member``.
    """
    ring = ideal.ring
    dom = ring.domain
    if not isinstance(dom, PrimeField) or dom.p != p:
        raise ValueError(f"ideal must live over GF({p}), not {dom}")
    sg = AffineSemigroup(tuple(tuple(a) for a in targets))
    A = sg.generators
    d, k = ring.arity, sg.arity
    if len(A) != d:
        raise ValueError(f"{len(A)} targets for {d} ring variables")

    def degree(m: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(e * a[j] for e, a in zip(m, A)) for j in range(k))

    minus_one = dom.normalize(-1)
    for g in ideal.generators:
        m1, m2 = _pure_binomial(g, minus_one)
        if degree(m1) != degree(m2):
            raise ValueError(f"not homogeneous in the target grading: {g}")
    gb = buchberger(ideal, _GREVLEX)
    rules = [_pure_binomial(g, minus_one) for g in gb.elements]

    reduced: dict[Exponents, Exponents] = {}

    def nf(q: Exponents) -> Exponents:
        """The standard monomial of t^q modulo G, by pure-binomial rewriting."""
        if q not in reduced:
            m = q
            while True:
                for lead, tail in rules:
                    if all(a <= b for a, b in zip(lead, m)):
                        m = tuple(b - a + c for a, b, c in zip(lead, m, tail))
                        break
                else:
                    break
            reduced[q] = m
        return reduced[q]

    # the unknowns p q + r, one per residue r that reaches delta
    delta = tuple((p - 1) * sum(a[j] for a in A) for j in range(k))

    def residues(indices: range) -> list:
        out = [((), (0,) * k)]
        for i in indices:
            a = A[i]
            out = [(r + (e,), w) for r, v in out for e in range(p)
                   for w in (tuple(x + e * y for x, y in zip(v, a)),)
                   if all(x <= z for x, z in zip(w, delta))]
        return out

    half = d // 2
    by_class: dict[tuple[int, ...], list] = {}
    for r, v in residues(range(half)):
        by_class.setdefault(tuple(x % p for x in v), []).append((r, v))
    index = {a: i for i, a in enumerate(A)}
    quotients: dict[tuple[int, ...], Optional[Exponents]] = {}
    fiber: list[tuple[Exponents, Exponents]] = []     # (q, r)
    for r2, v2 in residues(range(half, d)):
        for r1, v1 in by_class.get(
                tuple((z - x) % p for z, x in zip(delta, v2)), ()):
            v = tuple(x + y for x, y in zip(v1, v2))
            if any(x > z for x, z in zip(v, delta)):
                continue
            target = tuple((z - x) // p for z, x in zip(delta, v))
            if target not in quotients:
                found, witness = semigroup_member(sg, target)
                q = None
                if found:
                    e = [0] * d
                    for a in witness:
                        e[index[a]] += 1
                    q = nf(tuple(e))
                quotients[target] = q
            q = quotients[target]
            if q is not None:
                fiber.append((q, r1 + r2))

    parent = list(range(len(fiber)))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    def image(q: Exponents, r: Exponents, support: list) -> tuple:
        """NF(t^(p q + r) m) for m given by its support, as the quotient
        and residue parts."""
        q, r = list(q), list(r)
        for i, e in support:
            q[i], r[i] = divmod(q[i] * p + r[i] + e, p)
        return nf(tuple(q)), tuple(r)

    # the rows NF(s m1) - NF(s m2) of one generator, keyed by monomial,
    # hold at most one +1 unknown and one -1 unknown each
    constraints = 0
    grounded: set[int] = set()
    for binomial in rules:
        m1, m2 = ([(i, e) for i, e in enumerate(m) if e] for m in binomial)
        rows: dict[tuple, list] = {}
        for j, (q, r) in enumerate(fiber):
            plus, minus = image(q, r, m1), image(q, r, m2)
            if plus == minus:
                continue
            for side, key in enumerate((plus, minus)):
                row = rows.setdefault(key, [None, None])
                if row[side] is not None:
                    raise ValueError("the ideal is not the toric ideal of "
                                     "the targets")
                row[side] = j
        constraints += len(rows)
        for plus, minus in rows.values():
            if plus is None or minus is None:
                grounded.add(find(minus if plus is None else plus))
                continue
            a, b = find(plus), find(minus)
            if a != b:
                parent[b] = a
                if b in grounded:
                    grounded.add(a)
    roots = {find(j) for j in range(len(fiber))}
    rank = len(fiber) - len(roots - grounded)

    top = (p - 1,) * d
    x_root = find(fiber.index(((0,) * d, top)))
    witness = None
    if x_root not in grounded:
        witness = ring.from_dict({
            tuple(p * a + b for a, b in zip(q, r)): 1
            for j, (q, r) in enumerate(fiber) if find(j) == x_root})
        frobenius_gb = GroebnerBasis(ring, _GREVLEX, frobenius_power(
            Ideal(ring, gb.elements), p).generators)
        if witness.coefficient(top) != 1 or not all(
                normal_form(witness * g, frobenius_gb).is_zero()
                for g in ideal.generators):
            raise RuntimeError("fiber witness failed re-verification; "
                               "elimination bug")
    return FiberReport(p=p, fiber_size=len(fiber), constraints=constraints,
                       rank=rank, witness=witness,
                       f_pure=witness is not None)
