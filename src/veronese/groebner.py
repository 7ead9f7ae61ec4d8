"""Deterministic Buchberger engine and ideal-theoretic operations.

The engine keeps every basis element monic with its tail stored separately.
Inside a run every monomial is one packed int (``polycore._Packing``, after
Monagan and Pearce 2011): the int order is the monomial order, ``a + b`` is
the product and ``(b - a) & guard == 0`` tests that a divides b, because a
field that borrows sets its guard bit.  Reduction (``polycore._nf_dict``)
pops the maximal term of the working polynomial off a heap of negated packed
monomials; terms that cancel stay in the working dict as zeros and are
skipped when popped.  The leads are also kept as exponent tuples, only to
form lcms, and each lcm is packed once.  S-pairs are pruned by the
Gebauer-Moller update (Buchberger's coprime and chain criteria) in a linear
pass: new pairs are scanned in ascending lcm order, so only the next
candidate can have an lcm dividing the current one (they must be equal); a
pair is coprime when its packed lcm is the product of its packed leads; each
lcm(lead_i, lead_t) is reused by the chain criterion.  A run whose
monomials outgrow the packed fields is repeated with wider fields
(``polycore._packed``).  Output bases are unpacked, reduced, monic and
canonically sorted, so two runs with different generator orders or
selection strategies agree structurally.
"""
from __future__ import annotations

import heapq
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .polycore import (
    Block, GrevLex, MonomialOrder, PolyRing, Polynomial, Exponents, Scalar,
    divide, _CachedHash, _Packing, _PackingOverflow, _Record, _from_dict,
    _nf_dict, _packed, _setattr,
)

__all__ = [
    "Ideal", "GroebnerBasis", "buchberger", "normal_form", "ideal_member",
    "eliminate", "intersect", "colon", "colon_ideal", "saturate",
    "radical_member", "ideal_equal", "initial_ideal", "ideal_sum",
]

_GREVLEX = GrevLex()

STRATEGIES = ("normal", "fifo")


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

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.generators == other.generators and (
            self.ring is other.ring or self.ring == other.ring)

    __hash__ = _CachedHash.__hash__

    def is_zero(self) -> bool:
        return not self.generators

    def __str__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"({inside})"


class GroebnerBasis(_Record):
    """Reduced Groebner basis: monic, inter-reduced, canonically sorted."""

    __match_args__ = ("ring", "order", "elements")
    __slots__ = __match_args__

    def __init__(self, ring: PolyRing, order: MonomialOrder,
                 elements: tuple[Polynomial, ...]) -> None:
        _setattr(self, "ring", ring)
        _setattr(self, "order", order)
        _setattr(self, "elements", elements)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elements == other.elements
                and (self.ring is other.ring or self.ring == other.ring)
                and self.order == other.order)

    def __hash__(self) -> int:
        return hash((self.ring, self.order, self.elements))


# ---------------------------------------------------------------------------
# engine internals
# ---------------------------------------------------------------------------

class _Engine:
    def __init__(self, ring: PolyRing, strategy: str, packing: _Packing):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.dom = ring.domain
        self.p = ring.domain.characteristic
        self.packing = packing
        self.guard = packing.guard
        self.entries: list = []          # _nf_dict entries, no quotient
        self.leads: list[Exponents] = []  # the entries' leads, unpacked
        self.heap: list = []             # (sortkey, i, j)
        # live pairs (i, j), i < j, with the packed lcm of their leads
        self.alive: dict[tuple[int, int], int] = {}
        self._counter = 0

    # -- pair bookkeeping --------------------------------------------------

    def _push_pair(self, i: int, t: int, lcm: int, deg: int) -> None:
        self.alive[(i, t)] = lcm
        if self.strategy == "normal":
            sortkey = (deg, lcm, i, t)   # smallest lcm first
        else:                            # fifo
            sortkey = (self._counter,)
            self._counter += 1
        heapq.heappush(self.heap, (sortkey, i, t))

    def _update_pairs(self, t: int) -> None:
        """Gebauer-Moller update after inserting basis element t.

        New pairs (i, t) are taken in ascending lcm order.  One is dropped
        when an earlier kept pair or a later one has an lcm dividing its
        own; a later lcm is no smaller, so it divides only when equal, and
        equal lcms are adjacent.  Coprime pairs are kept for these tests
        but never queued (product criterion).  Then an old pair (i, j) is
        dropped when lead_t divides its lcm and neither lcm(i, t) nor
        lcm(j, t) equals it (chain criterion).
        """
        entries = self.entries
        leads = self.leads
        guard = self.guard
        pack = self.packing.pack
        lead_t = leads[t]
        plead_t = entries[t][0]
        lcm_t: list[int] = []            # packed lcm(lead_i, lead_t) by i
        cand = []
        for i in range(t):
            e = tuple([a if a > b else b for a, b in zip(leads[i], lead_t)])
            lcm = pack(e)
            lcm_t.append(lcm)
            cand.append((lcm, i, sum(e), lcm == entries[i][0] + plead_t))
        cand.sort()                      # ascending lcm, ties by i

        kept: list[tuple[int, int, int, bool]] = []
        last = len(cand) - 1
        for idx, (lcm, i, deg, coprime) in enumerate(cand):
            if not coprime:
                if idx < last and cand[idx + 1][0] == lcm:
                    continue
                if any(not (lcm - klcm) & guard for _, klcm, _, _ in kept):
                    continue
            kept.append((i, lcm, deg, coprime))

        alive = self.alive
        dropped = [
            pair for pair, lcm in alive.items()
            if not (lcm - plead_t) & guard
            and lcm_t[pair[0]] != lcm and lcm_t[pair[1]] != lcm]
        for pair in dropped:
            del alive[pair]

        for i, lcm, deg, coprime in kept:
            if not coprime:              # product criterion drops coprime pairs
                self._push_pair(i, t, lcm, deg)

    # -- basis growth --------------------------------------------------------

    def insert(self, h: dict) -> None:
        """Insert a nonzero, fully reduced packed term dict, terms in
        descending order as ``_nf_dict`` returns them, as a new monic
        element."""
        terms = iter(h.items())
        lead, lc = next(terms)
        if self.p:
            inv = pow(lc, -1, self.p)
            tail = tuple((m, c * inv % self.p) for m, c in terms)
        else:
            tail = tuple((m, c / lc) for m, c in terms)
        self.entries.append((lead, None, tail))
        self.leads.append(self.packing.unpack(lead))
        self._update_pairs(len(self.entries) - 1)

    def _spoly(self, i: int, j: int, lcm: int) -> dict:
        lead_i, _, tail_i = self.entries[i]
        lead_j, _, tail_j = self.entries[j]
        qi = lcm - lead_i
        qj = lcm - lead_j
        guard = self.guard
        d: dict[int, Scalar] = {}
        for m, c in tail_i:
            nm = m + qi
            if nm & guard:
                raise _PackingOverflow
            d[nm] = c
        p = self.p
        for m, c in tail_j:
            nm = m + qj
            if nm & guard:
                raise _PackingOverflow
            nv = (d.get(nm, 0) - c) % p if p else d.get(nm, 0) - c
            if nv:
                d[nm] = nv
            else:
                d.pop(nm, None)
        return d

    def run(self, gens: Sequence[Polynomial]) -> list[dict]:
        pack_terms = self.packing.pack_terms
        for g in gens:
            h = _nf_dict(pack_terms(g.terms), self.entries, self.guard, self.p)
            if h:
                self.insert(h)
        while self.heap:
            _, i, j = heapq.heappop(self.heap)
            lcm = self.alive.pop((i, j), None)
            if lcm is None:
                continue
            s = self._spoly(i, j, lcm)
            if not s:
                continue
            h = _nf_dict(s, self.entries, self.guard, self.p)
            if h:
                self.insert(h)
        return self._finalize()

    def _finalize(self) -> list[dict]:
        """The reduced basis as packed term dicts, ascending leads."""
        entries = self.entries
        guard = self.guard
        # equal leads cannot occur (new leads are always reduced), so a
        # lead divisible by another lead is strictly divisible
        kept = [entry for i, entry in enumerate(entries)
                if not any(j != i and not (entry[0] - other[0]) & guard
                           for j, other in enumerate(entries))]
        out: list[tuple[int, dict]] = []
        for pos, (lead, _, tail) in enumerate(kept):
            others = kept[:pos] + kept[pos + 1:]
            poly = _nf_dict(dict(tail), others, guard, self.p)
            poly[lead] = self.dom.one
            out.append((lead, poly))
        out.sort(key=itemgetter(0))
        return [poly for _, poly in out]


@lru_cache(maxsize=256)
def _buchberger_cached(ideal: Ideal, order: MonomialOrder, strategy: str
                       ) -> GroebnerBasis:
    ring = ideal.ring

    def run(packing: _Packing) -> tuple[Polynomial, ...]:
        dicts = _Engine(ring, strategy, packing).run(ideal.generators)
        return tuple(_from_dict(ring, packing.unpack_terms(d)) for d in dicts)

    return GroebnerBasis(ring, order, _packed(order, ring.arity, run))


def buchberger(ideal: Ideal, order: MonomialOrder = _GREVLEX,
               strategy: str = "normal") -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.

    The result is unique per (ideal, order): independent of generator order
    and of the S-pair selection strategy ("normal" = smallest lcm degree
    first, "fifo" = creation order).
    """
    return _buchberger_cached(ideal, order, strategy)


@lru_cache(maxsize=256)
def _gb_entries(gb: GroebnerBasis, packing: _Packing) -> list:
    entries = []
    for g in gb.elements:
        terms = packing.pack_terms(g.terms)
        lead = max(terms)
        del terms[lead]                  # elements are monic by construction
        entries.append((lead, None, tuple(terms.items())))
    return entries


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Canonical remainder of f modulo the reduced basis."""
    if f.ring != gb.ring:
        raise ValueError("polynomial from a different ring")
    if not gb.elements:
        return f

    def run(packing: _Packing) -> dict:
        r = _nf_dict(packing.pack_terms(f.terms), _gb_entries(gb, packing),
                     packing.guard, f.ring.domain.characteristic)
        return packing.unpack_terms(r)

    return _from_dict(f.ring, _packed(gb.order, gb.ring.arity, run))


def ideal_member(f: Polynomial, gb: GroebnerBasis) -> bool:
    return normal_form(f, gb).is_zero()


# ---------------------------------------------------------------------------
# ring extension helpers (single auxiliary variable, appended last)
# ---------------------------------------------------------------------------

def _fresh_name(ring: PolyRing, base: str = "w") -> str:
    i = 0
    while True:
        name = f"{base}{i}"
        if name not in ring.names:
            return name
        i += 1


def _extended_ring(ring: PolyRing) -> PolyRing:
    return PolyRing(ring.names + (_fresh_name(ring),), ring.domain)


def _lift(f: Polynomial, ext: PolyRing, w_power: int = 0) -> Polynomial:
    """Image of f in the extended ring, optionally times w^w_power."""
    return Polynomial(ext, tuple((m + (w_power,), c) for m, c in f.terms))


# ---------------------------------------------------------------------------
# elimination and the operations built on it
# ---------------------------------------------------------------------------

def eliminate(ideal: Ideal, drop: Iterable[int]) -> Ideal:
    """Intersection with the subring omitting the dropped variables.

    Returns an ideal of the smaller ring (remaining names, same domain).
    """
    ring = ideal.ring
    drop = frozenset(drop)
    if not drop:
        raise ValueError("nothing to eliminate")
    if not drop <= set(range(ring.arity)):
        raise ValueError("eliminated index out of range")
    keep = [i for i in range(ring.arity) if i not in drop]
    if not keep:
        raise ValueError("cannot eliminate every variable")
    small = PolyRing(tuple(ring.names[i] for i in keep), ring.domain)
    if ideal.is_zero():
        return Ideal(small, ())
    gb = buchberger(ideal, Block(drop, _GREVLEX))
    out = []
    for g in gb.elements:
        if all(all(m[i] == 0 for i in drop) for m, _ in g.terms):
            d = {tuple(m[i] for i in keep): c for m, c in g.terms}
            out.append(_from_dict(small, d))
    return Ideal(small, tuple(out))


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    return Ideal(a.ring, a.generators + b.generators)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Ideal intersection via w*a + (1-w)*b and elimination of w."""
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return Ideal(ring, ())
    ext = _extended_ring(ring)
    w = ext.variable(ext.arity - 1)
    gens = [_lift(f, ext, 1) for f in a.generators]
    gens += [(1 - w) * _lift(g, ext) for g in b.generators]
    inter = eliminate(Ideal(ext, tuple(gens)), {ext.arity - 1})
    # the eliminated ring has exactly the original names and domain
    return Ideal(ring, inter.generators)


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


def colon_ideal(ideal: Ideal, other: Ideal) -> Ideal:
    """Quotient (ideal : other) = intersection of (ideal : g) over generators."""
    if ideal.ring != other.ring:
        raise ValueError("ideals in different rings")
    if other.is_zero():
        return Ideal(ideal.ring, (ideal.ring.one,))
    result = None
    for g in other.generators:
        piece = colon(ideal, g)
        result = piece if result is None else intersect(result, piece)
    return result


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """Saturation (ideal : f^infinity) via the single auxiliary variable w:
    eliminate w from ideal + (1 - w*f)."""
    if f.ring != ideal.ring:
        raise ValueError("polynomial from a different ring")
    if f.is_zero():
        raise ValueError("saturation by zero")
    ring = ideal.ring
    ext = _extended_ring(ring)
    gens = [_lift(g, ext) for g in ideal.generators]
    gens.append(1 - _lift(f, ext, 1))
    sat = eliminate(Ideal(ext, tuple(gens)), {ext.arity - 1})
    return Ideal(ring, sat.generators)


def radical_member(f: Polynomial, ideal: Ideal) -> tuple[bool, Union[int, None]]:
    """Is f in the radical?  Uses the Rabinowitsch trick: f is in rad(I) iff
    1 lies in I + (1 - w*f).  On success also returns the least e with
    f^e in I (``_least_power_member``).
    """
    if f.ring != ideal.ring:
        raise ValueError("polynomial from a different ring")
    if f.is_zero():
        raise ValueError("radical membership of the zero polynomial")
    ring = ideal.ring
    ext = _extended_ring(ring)
    gens = [_lift(g, ext) for g in ideal.generators]
    gens.append(1 - _lift(f, ext, 1))
    gb_ext = buchberger(Ideal(ext, tuple(gens)), _GREVLEX)
    if not ideal_member(ext.one, gb_ext):
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
            raise RuntimeError("radical witness exponent out of range")
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
