"""Characteristic-p tools: Frobenius powers, Fedder's F-purity criterion,
and membership in the affine semigroup of a monomial map's targets, with
verified witnesses.

Fedder's criterion is decided two ways.  ``fedder_fpure`` computes the
colon (I^[p] : I) and works for any homogeneous ideal over GF(p).
``fedder_fiber`` is for the toric ideal of a monomial map, which it reads
from the map's presentation over QQ (``toric._presentation``) into GF(p):
it never forms the colon, but solves one sparse linear system over GF(p)
in a single multidegree, whose rows are keyed by residues mod p, since a
toric ring has one standard monomial in each multidegree and so no row
needs a normal form.  It works on ints: each residue and each
multidegree is packed into one int, a row is one addition on those
codes, the rows' components come from one union-find, and one semigroup
search, whose memo all its multidegrees share, finds the quotients.  Its
solution u is re-checked by the colon route's containment test
(``groebner._products_in``), each product u g reduced against the
Frobenius basis of I^[p], which needs no Buchberger run.  Neither route
touches the kernel's packed monomials; both call the kernel's entry
points.  The Veronese certificate uses the fiber route;
the colon route serves general homogeneous input and the toric ideals of
``present``, and is the fiber route's oracle in the tests.
"""
from __future__ import annotations

from itertools import chain
from operator import add, lshift
from typing import Optional, Sequence

from .polycore import (
    GF, GrevLex, PrimeField, Polynomial, Exponents, ResourceCapError,
    _Record, _naturals, is_homogeneous,
)
from .groebner import (
    GroebnerBasis, Ideal, buchberger, colon_ideal, normal_form,
    _products_in, _pure_difference,
)
from .toric import MonomialMap, _presentation, _specialise

__all__ = [
    "frobenius_power", "FpurityReport", "fedder_fpure",
    "FiberReport", "fedder_fiber", "FIBER_CAP", "SEMIGROUP_CAP",
    "FEDDER_PRIME_CAP", "semigroup_member", "monomial_ideal_member",
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
# the affine semigroup of a monomial map's targets
# ---------------------------------------------------------------------------

def semigroup_member(mmap: MonomialMap, target: Sequence[int]
                     ) -> tuple[bool, Optional[tuple[Exponents, ...]]]:
    """Decide whether the target vector is a sum of the map's targets by
    depth-first search over target subtractions (``_first_sums``), which
    memoizes failed residuals.  Terminates because every target has
    positive total degree.  Past ``SEMIGROUP_CAP`` pushed frames it raises
    ``ResourceCapError``.  On success the witness multiset, in the order
    the search subtracted it, is returned after re-verification by
    summation.
    """
    target = _naturals(target, mmap.k)
    shifts, _, guard = _fields(max(*target, *chain(*mmap.targets)), mmap.k)
    res = sum(map(lshift, target, shifts))
    memo: dict = {0: ()}
    if not _first_sums([sum(map(lshift, a, shifts)) for a in mmap.targets],
                       res, memo, guard):
        return (False, None)
    witness = []
    while memo[res]:
        idx, res = memo[res]
        witness.append(mmap.targets[idx])
    sums = [0] * mmap.k
    for g in witness:
        for i, e in enumerate(g):
            sums[i] += e
    if tuple(sums) != target:
        raise RuntimeError("witness failed re-verification; search bug")
    return (True, tuple(witness))


def _fields(bound: int, k: int) -> tuple[range, int, int]:
    """The layout that packs k ints up to ``bound`` into one int, each in
    a field below a guard bit: the shift of each field, the mask of a
    field's value bits and the mask of the guard bits.  For packed r and
    g, (r | guard) - g keeps every guard bit exactly when r is at least g
    field by field, and then r - g is its other bits."""
    width = bound.bit_length() + 1
    shifts = range(0, width * k, width)
    return shifts, (1 << width - 1) - 1, sum(1 << s + width - 1
                                             for s in shifts)


def _first_sums(gens: list[int], target: int, memo: dict,
                guard: int) -> bool:
    """Whether ``target`` is a sum of ``gens``, all packed by ``_fields``
    with ``guard``, by a depth-first search that tries the generators in
    order and records what it decides in ``memo``, which later searches
    share: a residual that is a sum maps to (index, residual) of the first
    step of its first sum in that order, zero to (), and one that is no
    sum to None.  A nonzero residual is a sum exactly when some child
    is, so a shared entry only cuts a search short: it visits residuals that the
    same search with a fresh memo visits, and ends on the same sum.  The
    search keeps its own stack, one frame per residual on the current
    path, so deep searches cannot overflow the interpreter's recursion
    limit; past ``SEMIGROUP_CAP`` pushed frames it raises
    ``ResourceCapError``."""
    if target in memo:
        return memo[target] is not None
    stack = [[target, 0]]        # [residual, index of the next generator]
    pushed = 0
    while stack:
        frame = stack[-1]
        res, start = frame
        for idx in range(start, len(gens)):
            child = (res | guard) - gens[idx]
            if child & guard != guard:
                continue                 # gens[idx] exceeds res somewhere
            child ^= guard
            if memo.get(child, 0) is None:
                continue
            frame[1] = idx + 1
            if child in memo:
                for res, idx in reversed(stack):
                    memo[res], child = (idx - 1, child), res
                return True
            pushed += 1
            if pushed > SEMIGROUP_CAP:
                raise ResourceCapError(f"semigroup search past the "
                                       f"cap of {SEMIGROUP_CAP} frames")
            stack.append([child, 0])
            break
        else:
            memo[res] = None
            stack.pop()
    return False


def monomial_ideal_member(mmap: MonomialMap, numerator: Sequence[int],
                          generator: Sequence[int]) -> bool:
    """Does x^numerator lie in the ideal generated by x^generator inside the
    semigroup ring F[S] of the map's targets?  True iff numerator -
    generator stays in S."""
    residual = tuple(a - b for a, b in zip(_naturals(numerator, mmap.k),
                                           _naturals(generator, mmap.k)))
    if any(e < 0 for e in residual):
        return False
    return semigroup_member(mmap, residual)[0]


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


def fedder_fiber(mmap: MonomialMap, p: int) -> FiberReport:
    """Decide F-purity of R/I for the toric ideal I of the map's targets
    a_1..a_d over GF(p), R = F_p[t_1..t_d], deg t_i = a_i, without the
    colon (I^[p] : I).  GF(p) is built first, so a p that ``GF`` refuses
    raises its error before any other work; I is then the map's
    presentation over QQ read into GF(p) (``toric._specialise``).

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
    multidegree delta, one per residue r; each g = m1 - m2 gives, for each
    unknown s, the rows NF(s m1) - NF(s m2), and R/I is F-pure iff
    e_(x^(p-1)) is outside their span over F_p.

    The linear algebra.  Rows are keyed by residue: NF(t^(p q + r) m) has
    the residue (r + m) mod p, and its quotient part is the one standard
    monomial of the multidegree that residue leaves.  So with
    v = (m1 - m2) mod p, g's row through the unknown r is e_r - e_(r+v)
    when r + v is an unknown and e_r when it is not, every unknown that no
    r + v reaches has the row -e_r, and v = 0 gives no rows.  The
    solutions are then constant on the components linked by two-entry
    rows and vanish on those that hold a single-entry row.  A row -e_r
    grounds nothing more: the unknowns r, r + v, r + 2v, ... are linked
    until the first whose r + v is not an unknown, which the cycle of v
    (order p) reaches, and that one holds a row e_r.  Each residue is
    coded as one int with a field of w = bit_length(p) + 1 bits per
    variable, so r + v is one addition less p in each field that reaches
    p, which adding 2^(w-1) - p to every field marks in its top bit; a
    dict from codes to indices then gives, per g, each unknown's r + v or
    the ground node.  One union-find over the unknowns and ground, its
    find written inline, labels the components: a root links below the
    larger one, so ground stays a root, and the free components are the
    other roots.  When x^(p-1) lies in a free component, u is the sum of
    that component's monomials.

    The unknowns are enumerated as p q + r: a meet-in-the-middle on
    A r mod p over the two halves of the variables finds the residues r
    with A r = delta (mod p); A r <= delta holds for every r with entries
    below p, and each A r is packed into one int as well, so
    (delta - A r) / p is one subtraction and one division.  q is the
    standard monomial of multidegree (delta - A r) / p.  Whether that
    multidegree lies in the semigroup, and the exponents e of a sum that
    reaches it, come from the depth-first search of ``semigroup_member``
    (``_first_sums``), run once per distinct multidegree with one memo
    that all of them share: it visits only residuals that a search per
    multidegree would visit, at most ``SEMIGROUP_CAP`` pushed frames for
    each.  A search whose half holds more than ``FIBER_CAP`` residues, or
    that finds more than ``FIBER_CAP`` candidate residues, raises
    ``ResourceCapError`` before any unknown is built.

    The witness and its re-check.  Only these reduce, and only when
    x^(p-1) lies in a free component: q is ``normal_form`` of t^e modulo G,
    once per distinct e, and must be one monomial with coefficient 1, or
    ``RuntimeError`` is raised.  u is built once, as a polynomial over
    GF(p).  Then, without the rows or the union-find, u g must lie in
    I^[p] for every g in G, tested by the colon route's
    ``groebner._products_in`` against G^[p]; a product outside it, or an
    x^(p-1) coefficient other than 1, raises ``RuntimeError``.
    """
    field = GF(p)         # before the presentation: a refused p costs nothing
    gb = buchberger(_specialise(_presentation(mmap)[0], field), _GREVLEX)
    ring = gb.ring
    A, d, k = mmap.targets, mmap.d, mmap.k

    # the unknowns p q + r, one per residue r that reaches delta; each r
    # is one int by ``_fields(p, d)``, each multidegree v <= delta one int
    # by ``_fields(max(delta), k)``, the targets a_i among them
    delta = tuple((p - 1) * sum(a[j] for a in A) for j in range(k))
    shifts, mask, guard = _fields(max(delta), k)
    gens = [sum(map(lshift, a, shifts)) for a in A]
    places, digit, carry = _fields(p, d)
    ones = sum(1 << s for s in places)

    def residues(indices: range) -> tuple[list, list]:
        """The codes of every r over ``indices``, entries below p, and their
        A r, in the same order."""
        codes, vs = [0], [0]
        for i in indices:
            codes = [c + (e << places[i]) for c in codes for e in range(p)]
            vs = [v + e * gens[i] for v in vs for e in range(p)]
        return codes, vs

    def classes(vs: list) -> list:
        """Each v mod p, as a tuple."""
        return list(zip(*[[(v >> s & mask) % p for v in vs] for s in shifts]))

    half = d // 2
    if p ** (d - half) > FIBER_CAP:
        raise ResourceCapError(
            f"{p ** (d - half)} residues in half of the Fedder search at "
            f"p = {p} exceed the cap of {FIBER_CAP}")
    by_class: dict[tuple[int, ...], list] = {}
    codes, vs = residues(range(half))
    for key, c, v in zip(classes(vs), codes, vs):
        by_class.setdefault(key, []).append((c, v))
    codes, vs = residues(range(half, d))
    top = sum(map(lshift, delta, shifts))
    rests = [top - v for v in vs]
    joins = [by_class.get(key, ()) for key in classes(rests)]
    candidates = sum(map(len, joins))
    if candidates > FIBER_CAP:
        raise ResourceCapError(
            f"{candidates} candidate Fedder unknowns at p = {p} exceed the "
            f"cap of {FIBER_CAP}")
    # each candidate as its code and the multidegree (delta - A r) / p of
    # its quotient; one search, one memo, decides every such multidegree
    pairs = [(c1 + c2, (rest - v1) // p) for c2, rest, matches in
             zip(codes, rests, joins) for c1, v1 in matches]
    memo: dict = {0: ()}
    member = {t: _first_sums(gens, t, memo, guard)
              for t in dict.fromkeys(t for _, t in pairs)}
    unknowns = [(c, t) for c, t in pairs if member[t]]

    # g = m1 - m2 links the unknown r to r + v, v = (m1 - m2) mod p, and
    # grounds r when r + v is not an unknown: succ holds, per g, the index
    # of r + v or n for ground.  r + v is one add, less p in each field
    # that reaches p, which (x + low) & carry marks
    n = len(unknowns)
    codes = [c for c, _ in unknowns]
    position = dict(zip(codes, range(n)))
    low, step = carry - p * ones, places.step - 1
    succ, constraints = [], 0
    for m1, m2 in map(_pure_difference, gb.elements):
        v = sum((a - b) % p << s for a, b, s in zip(m1, m2, places))
        if v:
            succ.append([position.get((x := c + v) - p * (
                (x + low & carry) >> step), n) for c in codes])
            constraints += n + succ[-1].count(n)
            succ[-1].append(n)
    # union-find over the unknowns and ground n: a root links below the
    # larger one, so ground stays a root and every root is its component's
    # largest index
    label = list(range(n + 1))
    for s in succ:
        for j, i in enumerate(s):
            while label[i] != i:
                label[i] = i = label[label[i]]
            while label[j] != j:
                label[j] = j = label[label[j]]
            if i < j:
                label[i] = j
            elif j < i:
                label[j] = i
    for j in reversed(range(n)):
        label[j] = label[label[j]]
    rank = n + 1 - len(set(label))

    x_root = label[position[(p - 1) * ones]]
    witness = None
    if x_root != n:
        members = [j for j in range(n) if label[j] == x_root]
        reduced = {}          # the multidegree of q -> p q, q = NF(t^e)
        for t in dict.fromkeys(unknowns[j][1] for j in members):
            e, res = [0] * d, t
            while memo[res]:
                i, res = memo[res]
                e[i] += 1
            nf = normal_form(ring.monomial(e), gb).terms
            if len(nf) != 1 or nf[0][1] != 1:
                raise RuntimeError("a fiber quotient is not one monomial; "
                                   "presentation bug")
            reduced[t] = tuple([p * a for a in nf[0][0]])
        rs = list(zip(*[[c >> s & digit for c in codes] for s in places]))
        # u's terms t^(p q + r)
        witness = ring.from_dict({tuple(map(add, reduced[unknowns[j][1]],
                                            rs[j])): 1 for j in members})
        frobenius = GroebnerBasis(
            ring, _GREVLEX,
            frobenius_power(Ideal(ring, gb.elements)).generators)
        if witness.coefficient((p - 1,) * d) != 1 or not _products_in(
                gb.elements, witness, frobenius):
            raise RuntimeError("fiber witness failed re-verification; "
                               "elimination bug")
    return FiberReport(p=p, fiber_size=n, constraints=constraints,
                       rank=rank, witness=witness, f_pure=witness is not None)
