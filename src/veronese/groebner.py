"""Deterministic Buchberger engine and ideal-theoretic operations.

The engine keeps every basis element monic with its tail stored separately.
Inside a run every monomial is one packed int (``polycore._Packing``, after
Monagan and Pearce 2011): the int order is the monomial order, ``a + b`` is
the product and ``(b - a) & guard == 0`` tests that a divides b, because a
field that borrows sets its guard bit.  Reduction (``polycore._nf_dict``)
pops the maximal term of the working polynomial off a heap of negated packed
monomials; terms that cancel stay in the working dict as zeros and are
skipped when popped.  S-polynomials, and the products of the containment
test below, are summed by one helper, ``_add_shifted``, which adds
c*x^s*terms into a packed term dict and drops a term that cancels;
``_nf_dict`` keeps a loop of its own, because it also pushes each new
monomial onto its heap.  The engine fully reduces each generator and
S-polynomial against the elements before it and inserts what is left.
S-pairs are pruned by the Gebauer-Moller update (Buchberger's coprime and
chain criteria) in a linear pass, run on the exponent fields of the packed
leads, the low bits of each packed int: the lcm of two leads is a fieldwise
max computed with the guard bits, two exponent parts compare as ints in lex
order, which refines divisibility, and only the pairs that are queued get
their lcm packed in the monomial order, derived from the exponent part by
row masks (``_Packing.pack_exponents``).  An element whose lead a later lead
divides takes no part in later pairs and is left out of the run's output,
its live elements: a minimal basis, each tail reduced against the elements
inserted before it but not yet against later ones.  A run whose monomials
outgrow the packed fields is repeated with wider fields
(``polycore._packed``).

What a run hands back is finished by its consumer (``_reduced_basis``):
``buchberger`` reduces each tail against the other elements and builds the
whole reduced basis, monic and sorted by lead, so two runs with different
generator orders agree structurally; ``_Packing.polynomial`` takes its terms
as they stand under grevlex and sorts them under another order.
``eliminate`` reduces and builds only the elements whose lead is free of the
dropped variables, against each other alone: by the elimination property
their terms are free of those variables too, so no other element reduces
them.  Their terms are read from the kept exponent fields straight into the
smaller ring, in grevlex order, without a sort.

An ideal whose generators are all monomials or pure differences c*(m1 - m2)
is served by one run per generator shape, shared by every field
(``_binomial_basis``): a run over QQ whose coefficients never leave the
ints 1 and -1, so a run over ZZ, read into each field by
``polycore._read``.

The engine takes the queued pair of smallest lcm degree first, counting
the degree in the variables that an elimination order keeps (in every
variable under grevlex and lex).  The eliminated variables weigh nothing,
so the input w*A + (1 - w)*B of an intersection, homogeneous in the kept
variables but not in w, is worked through degree by degree, as in sugar
selection.  An elimination order (``Block``) is grevlex on the
eliminated variables, then grevlex on the rest, so an element free of
the eliminated variables is grevlex-descending in the kept ones.

``colon_ideal`` intersects the pieces (I : g) over the generators g of the
divisor, those whose grevlex lead is a pure power first, and skips each g
whose piece already contains the running intersection Q, which holds when
h*g reduces to zero modulo the grevlex basis of I for every generator h of
Q; then neither that piece nor the intersection with it is computed.  The
test forms each h*g on packed monomials, by ``_add_shifted``, and reduces
it there.  With two or more generators the result is the reduced grevlex
basis of the quotient whichever steps ran, in whatever order; the order
only makes the pieces that run small (see ``colon_ideal``).
"""
from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

from .polycore import (
    QQ, Block, Exponents, GrevLex, MonomialOrder, PolyRing, Polynomial,
    ResourceCapError, Scalar, divide, _CachedHash, _Packing,
    _PackingOverflow, _check_order, _monic, _nf_dict, _packed, _read,
    _setattr,
)

__all__ = [
    "Ideal", "GroebnerBasis", "buchberger", "normal_form", "ideal_member",
    "eliminate", "intersect", "colon", "colon_ideal", "saturate",
    "radical_member", "ideal_equal", "initial_ideal", "ideal_sum",
]

_GREVLEX = GrevLex()


class Ideal(_CachedHash):
    """Finitely generated ideal; zero generators are dropped on construction.

    An empty generator tuple is the zero ideal (elimination and lattice
    kernels produce it naturally).
    """

    __match_args__ = ("ring", "generators")
    __slots__ = __match_args__

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]) -> None:
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        _setattr(self, "ring", ring)
        _setattr(self, "generators", gens)

    def is_zero(self) -> bool:
        return not self.generators

    def __str__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"({inside})"


class GroebnerBasis(_CachedHash):
    """Reduced Groebner basis of ``elements`` (a tuple of polynomials) in
    ``ring`` under ``order``: monic, inter-reduced, canonically sorted."""

    __match_args__ = ("ring", "order", "elements")
    __slots__ = __match_args__


# ---------------------------------------------------------------------------
# engine internals
# ---------------------------------------------------------------------------

def _add_shifted(d: dict, terms: Iterable[tuple[int, Scalar]], shift: int,
                 scale: Scalar, guard: int, p: int) -> dict:
    """Adds scale*x^shift*terms, packed terms, into the packed term dict
    ``d`` in place and returns it; a term that cancels is dropped, so no
    zero coefficient is left behind.  Raises ``_PackingOverflow`` when a
    new monomial outgrows its fields."""
    for m, c in terms:
        nm = m + shift
        if nm & guard:
            raise _PackingOverflow
        nv = d.get(nm, 0) + scale * c
        if p:
            nv %= p
        if nv:
            d[nm] = nv
        else:
            d.pop(nm, None)
    return d


class _Engine:
    def __init__(self, ring: PolyRing, packing: _Packing):
        self.dom = ring.domain
        self.p = ring.domain.characteristic
        self.packing = packing
        self.guard = packing.guard
        self.entries: list = []          # _nf_dict entries, no quotient
        self.exps: list[int] = []        # exponent part of each entry's lead
        self.live: list[bool] = []       # no later lead divides its lead
        self.heap: list = []             # (degree, lcm, i, j)
        # live pairs (i, j), i < j, with the packed lcm of their leads
        self.alive: dict[tuple[int, int], int] = {}
        # pairs are selected by the lcm degree in the variables an
        # elimination order keeps, the mask of their exponent fields (None:
        # in every variable), after sugar selection (Giovini, Mora, Niesi,
        # Robbiano, Traverso, 1991); see above
        self.kept = packing.kept

    # -- pair bookkeeping --------------------------------------------------

    def _push_pair(self, i: int, t: int, lcm: int, deg: int) -> None:
        self.alive[(i, t)] = lcm
        heapq.heappush(self.heap, (deg, lcm, i, t))   # smallest lcm first

    def _lcms_with(self, b: int) -> list[int]:
        """Exponent part of lcm(lead_i, x^b) for every entry i.

        Per field, ``(a | guard) - b`` keeps its guard bit exactly when the
        field of a is at least that of b, and no field borrows from the
        next; subtracting the guard bits shifted down to each field's 1
        turns them into masks of those fields.  The lcm takes a's fields
        under the mask and b's elsewhere."""
        g, top = self.packing.exp_guard, self.packing.top
        return [b ^ ((a ^ b) & ((d := ((a | g) - b) & g) - (d >> top)))
                for a in self.exps]

    def _update_pairs(self, t: int) -> None:
        """Gebauer-Moller update after inserting basis element t, on the
        exponent parts of the leads.

        New pairs (i, t), one per live i, are taken in ascending order of
        the exponent part of their lcm, lex on exponents, so a divisor of
        an lcm never comes after it.  One is dropped when an earlier kept
        pair or a later one has an lcm dividing its own; a later lcm divides
        only when equal, and equal lcms are adjacent.  Coprime pairs (the
        lcm is the product) are kept for these tests but never queued
        (product criterion).  Then an old pair (i, j) is dropped when lead_t
        divides its lcm and neither lcm(i, t) nor lcm(j, t) equals it (chain
        criterion).  An i whose lead lead_t divides still forms its pair
        with t, then leaves later pair generation: for any later t',
        lcm(lead_t, lead_t') divides lcm(lead_i, lead_t'), so (i, t') would
        be dropped or, coprime, never queued.  Only queued pairs get their
        lcm packed in the monomial order, derived from the exponent part by
        row masks (``_Packing.pack_exponents``), and their selection degree
        from it by the kept mask; they are pushed ascending, ties by i.
        """
        exps = self.exps
        live = self.live
        b = exps[t]
        lcms = self._lcms_with(b)
        cand = sorted([(lcms[i], i) for i in range(t) if live[i]])

        packing = self.packing
        g, pack, mask = packing.exp_guard, packing.pack_exponents, packing.mask
        select = packing.low if self.kept is None else self.kept
        kept: list[int] = []             # lcms of kept pairs
        queued = []                      # (packed lcm, i, selection degree)
        last = len(cand) - 1
        for idx, (lcm, i) in enumerate(cand):
            if lcm == exps[i]:
                live[i] = False          # lead_t divides lead_i
            if lcm == exps[i] + b:       # coprime
                kept.append(lcm)
                continue
            if idx < last and cand[idx + 1][0] == lcm:
                continue
            for k in kept:
                if not (lcm - k) & g:
                    break
            else:
                kept.append(lcm)
                queued.append((pack(lcm), i, (lcm & select) % mask))

        alive = self.alive
        guard = self.guard
        low = packing.low
        plead_t = self.entries[t][0]
        dropped = [
            pair for pair, lcm in alive.items()
            if not (lcm - plead_t) & guard
            and (x := lcm & low) != lcms[pair[0]] and x != lcms[pair[1]]]
        for pair in dropped:
            del alive[pair]

        queued.sort()
        for lcm, i, deg in queued:
            self._push_pair(i, t, lcm, deg)

    # -- basis growth --------------------------------------------------------

    def insert(self, h: dict) -> None:
        """Insert a nonzero, fully reduced packed term dict, terms in
        descending order as ``_nf_dict`` returns them, as a new monic
        element."""
        lead, _, tail = _monic(h, self.dom)
        self.entries.append((lead, None, tail))
        self.exps.append(lead & self.packing.low)
        self.live.append(True)
        self._update_pairs(len(self.entries) - 1)

    def _spoly(self, i: int, j: int, lcm: int) -> dict:
        """The S-polynomial of entries i and j, ``lcm`` the packed lcm of
        their leads: the monic leads cancel, and what is left,
        x^(lcm - lead_i)*tail_i - x^(lcm - lead_j)*tail_j, is summed by
        ``_add_shifted``, without zero coefficients."""
        lead_i, _, tail_i = self.entries[i]
        lead_j, _, tail_j = self.entries[j]
        d = _add_shifted({}, tail_i, lcm - lead_i, 1, self.guard, self.p)
        return _add_shifted(d, tail_j, lcm - lead_j, -1, self.guard, self.p)

    def run(self, gens: Sequence[Polynomial]) -> list:
        """The live elements of the basis of the generators (``_finalize``)."""
        pack_terms = self.packing.pack_terms
        for g in gens:
            h = _nf_dict(pack_terms(g.terms), self.entries, self.guard, self.p)
            if h:
                self.insert(h)
        heap, alive, entries, guard, p = (
            self.heap, self.alive, self.entries, self.guard, self.p)
        while heap:
            _, lcm, i, j = heapq.heappop(heap)
            if alive.pop((i, j), None) is None:
                continue
            s = self._spoly(i, j, lcm)
            if not s:
                continue
            h = _nf_dict(s, entries, guard, p)
            if h:
                self.insert(h)
        return self._finalize()

    def _finalize(self) -> list:
        """The live elements, a minimal basis, as monic (lead, None, tail)
        entries in ascending order of their leads, each tail reduced
        against the elements inserted before it."""
        # a new lead is reduced against every earlier lead, so only a later
        # lead can divide an earlier one, and the live leads are minimal
        return sorted(compress(self.entries, self.live), key=itemgetter(0))


def _reduced_basis(ring: PolyRing, gens: Sequence[Polynomial],
                   order: MonomialOrder, out: PolyRing
                   ) -> tuple[Polynomial, ...]:
    """The reduced basis under ``order`` of the ideal of ``gens`` in
    ``ring``, as polynomials of ``out``, ascending leads.

    ``out`` is ``ring``, or, under an elimination order, the ring of the
    variables that it keeps: then only the elements whose lead is free of
    the eliminated variables are reduced and built, the reduced basis of the
    elimination ideal.  Their terms are free of those variables too, so the
    other elements cannot reduce them, and each is reduced against the kept
    ones alone.  The live elements of a run form a minimal basis, and
    reducing each tail against the other elements gives the reduced basis
    whatever tails they had."""
    dom = ring.domain
    p = dom.characteristic
    kept = (None if out is ring else
            [i for i in range(ring.arity) if i not in order.eliminated])

    def run(packing: _Packing) -> tuple[Polynomial, ...]:
        elements = _Engine(ring, packing).run(gens)
        if kept is not None:
            dropped = packing.low ^ packing.kept    # the eliminated fields
            elements = [e for e in elements if not e[0] & dropped]
        basis = []
        for pos, (lead, _, tail) in enumerate(elements):
            poly = {lead: dom.one}
            poly.update(_nf_dict(dict(tail),
                                 elements[:pos] + elements[pos + 1:],
                                 packing.guard, p))
            basis.append(packing.polynomial(out, poly, kept))
        return tuple(basis)

    return _packed(order, ring.arity, run)


def _pure_difference(g: Polynomial) -> Optional[tuple[Exponents, ...]]:
    """The monomials of g, grevlex-descending, when g is a monomial or a
    pure difference c*(m1 - m2) with c a unit (over GF(2) also m1 + m2);
    None for any other polynomial."""
    terms = g.terms
    if len(terms) == 1:
        return (terms[0][0],)
    if len(terms) == 2 and not g.ring.domain.normalize(
            terms[0][1] + terms[1][1]):
        return (terms[0][0], terms[1][0])
    return None


@lru_cache(maxsize=256)
def _binomial_basis(arity: int, shape: tuple, order: MonomialOrder,
                    eliminated: bool) -> tuple:
    """The reduced basis under ``order`` of the ideal whose generators have
    the monomials ``shape`` (from ``_pure_difference``), as polynomials
    over QQ in x0..x(arity-1), with the int 1 on each lead and -1 on the
    other term of a binomial; when ``eliminated``, only the elements free
    of the variables that the elimination order ``order`` eliminates, in
    the ring of the others (``_reduced_basis``).

    The run serves every coefficient field, because it is the same
    computation there.  Signed monomials and pure differences m1 - m2 are
    closed under the engine's steps: an S-polynomial of two monic ones is
    -x^a + x^b; a reduction step by lead - t turns a term c*x^u into
    c*x^(u - lead + t), and one by a monomial drops it, so the working
    polynomial keeps at most two terms, of opposite signs, which cancel
    where they meet, also over GF(2); and making such a remainder monic
    divides by its lead coefficient, which leaves lead - t or a monomial.
    So no coefficient leaves the ints 1 and -1, the run is one over ZZ
    with unit leads, and over any field it makes the same monomial
    operations, the same zero reductions, S-polynomials, queued pairs and
    insertions: its output is this basis read in that field
    (``polycore._read``).  A shared run that returns an element with more
    than two terms or other coefficients raises ``RuntimeError``."""
    ring = PolyRing(tuple(f"x{i}" for i in range(arity)), QQ)
    out = _subring(ring, order.eliminated) if eliminated else ring
    gens = [Polynomial(ring, tuple(zip(ms, (1, -1)))) for ms in shape]
    basis = _reduced_basis(ring, gens, order, out)
    for g in basis:
        # the lead is 1 by construction, so this says the other term is -1
        if sorted([c for _, c in g.terms], reverse=True) != [1, -1][
                :len(g.terms)]:
            raise RuntimeError("a shared binomial run left the pure "
                               "differences; engine bug")
    return basis


def _basis(ideal: Ideal, order: MonomialOrder, out: PolyRing
           ) -> tuple[Polynomial, ...]:
    """``_reduced_basis`` of the ideal, from the shared run of its shape,
    read into the field of ``out``, when every generator is a monomial or
    a pure difference."""
    ring = ideal.ring
    shape = tuple(map(_pure_difference, ideal.generators))
    if None in shape:
        return _reduced_basis(ring, ideal.generators, order, out)
    return _read(_binomial_basis(ring.arity, shape, order, out is not ring),
                 out)


@lru_cache(maxsize=256)
def _buchberger_cached(ideal: Ideal, order: MonomialOrder) -> GroebnerBasis:
    return GroebnerBasis(ideal.ring, order,
                         _basis(ideal, order, ideal.ring))


def buchberger(ideal: Ideal, order: MonomialOrder = _GREVLEX
               ) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.

    The result is unique per (ideal, order), independent of generator order
    and of the order in which S-pairs are selected.  A block order with an
    eliminated index outside the ring raises ``ValueError``, before any
    cache is consulted.
    """
    _check_order(order, ideal.ring.arity)
    return _buchberger_cached(ideal, order)


@lru_cache(maxsize=256)
def _gb_entries(gb: GroebnerBasis, packing: _Packing) -> list:
    dom = gb.ring.domain
    return [(lead, None, tail) for lead, _, tail in
            (_monic(packing.pack_terms(g.terms), dom) for g in gb.elements)]


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Canonical remainder of f modulo the reduced basis."""
    if f.ring != gb.ring:
        raise ValueError("polynomial from a different ring")

    def run(packing: _Packing) -> Polynomial:
        r = _nf_dict(packing.pack_terms(f.terms), _gb_entries(gb, packing),
                     packing.guard, f.ring.domain.characteristic)
        return packing.polynomial(f.ring, r)

    return _packed(gb.order, gb.ring.arity, run)


def ideal_member(f: Polynomial, gb: GroebnerBasis) -> bool:
    return normal_form(f, gb).is_zero()


# ---------------------------------------------------------------------------
# ring extension helpers (single auxiliary variable, appended last)
# ---------------------------------------------------------------------------

def _extended_ring(ring: PolyRing) -> PolyRing:
    """The ring with one more variable, named w0, w1, ..., the first name
    not taken."""
    i = 0
    while f"w{i}" in ring.names:
        i += 1
    return PolyRing(ring.names + (f"w{i}",), ring.domain)


def _lift(f: Polynomial, ext: PolyRing, w_power: int = 0) -> Polynomial:
    """Image of f in the extended ring, optionally times w^w_power."""
    return Polynomial(ext, tuple((m + (w_power,), c) for m, c in f.terms))


# ---------------------------------------------------------------------------
# elimination and the operations built on it
# ---------------------------------------------------------------------------

def eliminate(ideal: Ideal, drop: Iterable[int]) -> Ideal:
    """Intersection with the subring omitting the dropped variables.

    Returns an ideal of the smaller ring (remaining names, same domain):
    the reduced grevlex basis of the intersection, ascending leads.  It is
    not cached: an ideal of monomials and pure differences is served by
    the shared run of its shape (``_binomial_basis``), and other
    eliminations are seldom asked twice.
    """
    ring = ideal.ring
    drop = frozenset(drop)
    if not drop:
        raise ValueError("nothing to eliminate")
    if not drop <= set(range(ring.arity)):
        raise ValueError("eliminated index out of range")
    if len(drop) == ring.arity:
        raise ValueError("cannot eliminate every variable")
    small = _subring(ring, drop)
    return Ideal(small, _basis(ideal, Block(drop), small))


def _subring(ring: PolyRing, drop: Iterable[int]) -> PolyRing:
    """The ring of the variables not in ``drop``, same names and domain."""
    return PolyRing(tuple(nm for i, nm in enumerate(ring.names)
                          if i not in drop), ring.domain)


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    return Ideal(a.ring, a.generators + b.generators)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Ideal intersection via w*a + (1-w)*b and elimination of w."""
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    ext = _extended_ring(a.ring)
    w = ext.variable(ext.arity - 1)
    gens = [_lift(f, ext, 1) for f in a.generators]
    gens += [(1 - w) * _lift(g, ext) for g in b.generators]
    # the eliminated ring has exactly the original names and domain
    return eliminate(Ideal(ext, tuple(gens)), {ext.arity - 1})


def colon(ideal: Ideal, f: Polynomial) -> Ideal:
    """Quotient (ideal : f), computed as (ideal intersect (f)) / f."""
    if f.ring != ideal.ring:
        raise ValueError("polynomial from a different ring")
    if f.is_zero():
        raise ValueError("colon by zero")
    inter = intersect(ideal, Ideal(ideal.ring, (f,)))
    gens = []
    for g in inter.generators:
        qs, r = divide(g, [f], _GREVLEX)
        if not r.is_zero():
            raise RuntimeError("colon witness not divisible; engine bug")
        gens.append(qs[0])
    return Ideal(ideal.ring, tuple(gens))


def _pure_power_lead(g: Polynomial) -> bool:
    """Is the grevlex lead of g, its first term, a power of one variable?"""
    return sum(map(bool, g.terms[0][0])) == 1


def _products_in(hs: Sequence[Polynomial], g: Polynomial,
                 gb: GroebnerBasis) -> bool:
    """Does h*g lie in the ideal of the grevlex basis gb for every h in hs?

    Two callers: ``colon_ideal`` tests whether the running intersection
    lies in the next piece, with hs its generators and g the divisor's
    generator, and ``charp.fedder_fiber`` re-checks its witness u, with hs
    the basis G of I, g = u and gb the Frobenius basis G^[p] of I^[p].
    Each product is formed on packed monomials, one ``_add_shifted`` call
    per term of h, which adds that term times g and drops the terms that
    cancel, and the dict is reduced as it stands by ``_nf_dict`` against
    the packed basis (``_gb_entries``); no ``Polynomial`` is built.  A
    product monomial that outgrows its fields raises ``_PackingOverflow``
    in ``_add_shifted``, and ``_packed`` repeats the test wider."""
    p = gb.ring.domain.characteristic

    def run(packing: _Packing) -> bool:
        entries = _gb_entries(gb, packing)
        guard = packing.guard
        factor = packing.pack_terms(g.terms).items()
        for h in hs:
            d: dict[int, Scalar] = {}
            for m, c in packing.pack_terms(h.terms).items():
                _add_shifted(d, factor, m, c, guard, p)
            if _nf_dict(d, entries, guard, p):
                return False
        return True

    return _packed(gb.order, gb.ring.arity, run)


def colon_ideal(ideal: Ideal, other: Ideal) -> Ideal:
    """Quotient (ideal : other) = intersection of (ideal : g) over generators.

    The generators of ``other`` whose grevlex lead is a pure power come
    first, in their given order, then the others.  The running intersection
    Q starts as the piece of the first one.  Before the piece of a later
    generator g is computed, Q is tested against it: when h*g lies in
    ``ideal`` for every generator h of Q (``_products_in``), then Q lies in
    (ideal : g), Q meets it in Q, and both the piece and the combining
    ``intersect`` are skipped.  The quotient does not depend on the order
    of the pieces, and the test is exact, so any order gives it; with one
    generator the result is (ideal : g) as ``colon`` returns it, and with
    more it is the reduced grevlex basis of the quotient, as the last
    ``intersect`` returns it, or built from Q when none ran.

    The order is chosen for the pieces that run, not for the result.  In a
    reduced basis, such as the presentation ideal I of Fedder's colon
    (I^[p] : I), no lead divides another, so the pure-power leads are
    powers of distinct variables and those generators form a regular
    sequence; their pieces are small, and their intersection usually lies
    in every later piece.  On the 25 Fedder inputs of the benchmark's
    reports as many pieces run as there are pure-power leads, on 23 of them
    exactly theirs, and the pieces and intersections are smaller than in
    the given order.
    """
    if ideal.ring != other.ring:
        raise ValueError("ideals in different rings")
    if other.is_zero():
        return Ideal(ideal.ring, (ideal.ring.one,))
    first, *rest = sorted(other.generators,
                          key=lambda g: not _pure_power_lead(g))
    result = colon(ideal, first)
    if not rest:
        return result
    gb = buchberger(ideal, _GREVLEX)
    reduced = False                      # does result hold a reduced basis
    for g in rest:
        if _products_in(result.generators, g, gb):
            continue
        result = intersect(result, colon(ideal, g))
        reduced = True
    if reduced:
        return result
    return Ideal(ideal.ring, buchberger(result, _GREVLEX).elements)


def _rabinowitsch(ideal: Ideal, f: Polynomial, zero_message: str) -> Ideal:
    """I + (1 - w*f) in the ring extended by one last variable w; a zero f
    is refused with ``zero_message``."""
    if f.ring != ideal.ring:
        raise ValueError("polynomial from a different ring")
    if f.is_zero():
        raise ValueError(zero_message)
    ext = _extended_ring(ideal.ring)
    gens = [_lift(g, ext) for g in ideal.generators]
    gens.append(1 - _lift(f, ext, 1))
    return Ideal(ext, tuple(gens))


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """Saturation (ideal : f^infinity) via the single auxiliary variable w:
    eliminate w from ideal + (1 - w*f)."""
    ext = _rabinowitsch(ideal, f, "saturation by zero")
    # the eliminated ring has exactly the original names and domain
    return eliminate(ext, {ext.ring.arity - 1})


def radical_member(f: Polynomial, ideal: Ideal) -> tuple[bool, Union[int, None]]:
    """Is f in the radical?  Uses the Rabinowitsch trick: f is in rad(I) iff
    1 lies in I + (1 - w*f).  On success also returns the least e with
    f^e in I (``_least_power_member``).
    """
    ext = _rabinowitsch(ideal, f, "radical membership of the zero polynomial")
    if not ideal_member(ext.ring.one, buchberger(ext, _GREVLEX)):
        return (False, None)
    return (True, _least_power_member(f, buchberger(ideal, _GREVLEX)))


def _least_power_member(f: Polynomial, gb: GroebnerBasis) -> int:
    """Least e >= 1 with f^e in the ideal of gb, in O(log e) normal forms.
    The caller must already know some power lies in the ideal.  Squaring
    keeps f, f^2, f^4, ... up to the first f^(2^j) in the ideal; the largest
    m < 2^j with f^m outside (membership is monotone in the exponent) is then
    built from them, highest bit first, and e = m + 1.
    """
    squares = [normal_form(f, gb)]
    while not squares[-1].is_zero():
        if len(squares) > 20:            # f^(2^20) is still outside
            raise ResourceCapError("radical witness exponent out of range")
        squares.append(normal_form(squares[-1] * squares[-1], gb))
    if len(squares) == 1:
        return 1
    m, power = 1 << (len(squares) - 2), squares[-2]
    for bit in range(len(squares) - 3, -1, -1):
        candidate = normal_form(power * squares[bit], gb)
        if not candidate.is_zero():
            m, power = m + (1 << bit), candidate
    return m + 1


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Equality as ideals: identical reduced grevlex bases."""
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    ga = buchberger(a, _GREVLEX)
    gb = buchberger(b, _GREVLEX)
    return ga.elements == gb.elements


def initial_ideal(ideal: Ideal, order: MonomialOrder = _GREVLEX) -> Ideal:
    """Monomial ideal of lead monomials of a reduced basis."""
    gb = buchberger(ideal, order)
    ring = ideal.ring
    gens = tuple(ring.monomial(g.lead_monomial(order)) for g in gb.elements)
    return Ideal(ring, gens)
