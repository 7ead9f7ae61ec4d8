"""The engine's pair update against a reference copy of the code it
replaced: a Gebauer-Moller update that keeps every lead as an exponent
tuple, builds the lcm tuple for each earlier element and packs it, and a
finalize that rescans every pair of leads for divisibility.  The reference
selects pairs by the engine's current degree, the lcm degree in the
variables an elimination order keeps, computed here from the order.  On seeded
ideals, under every order, with the engine's pair selection and with the
first-in, first-out one of ``FifoEngine``, the queued pairs, the
S-polynomials formed and the live-pair dict after each insertion must be
identical, and so must the live elements that the run hands back, each
tail reduced against the elements before it.  The guard-bit lcm on exponent
parts must be the fieldwise max, and broken copies of its masks must be caught."""
from __future__ import annotations

import random
from itertools import product

import pytest

from veronese.groebner import _Engine
from veronese.polycore import (
    GF, Block, PolyRing, QQ, _FIELD_BITS, _Packing, _packed, _packing,
)

from conftest import FifoEngine
from test_kernel_reference import _DOMAINS, _ORDERS, _random_binomials

SELECTIONS = ("normal", "fifo")


class _Traced(_Engine):
    """Logs every queued pair, every S-polynomial formed and a copy of the
    live pairs after each insertion."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def _push_pair(self, i, t, lcm, deg):
        self.log.append((i, t, lcm, deg))
        super()._push_pair(i, t, lcm, deg)

    def _spoly(self, i, j, lcm):
        self.log.append(("spoly", i, j))
        return super()._spoly(i, j, lcm)

    def insert(self, h):
        super().insert(h)
        self.log.append(dict(self.alive))


class _Reference(_Traced):
    """The tuple-based update and the rescanning finalize."""

    def __init__(self, *args):
        super().__init__(*args)
        self.leads = []

    def insert(self, h):
        terms = iter(h.items())
        lead, lc = next(terms)
        if self.p:
            inv = pow(lc, -1, self.p)
            tail = tuple((m, c * inv % self.p) for m, c in terms)
        else:
            inv = QQ.invert(lc)
            tail = tuple((m, c * inv) for m, c in terms)
        self.entries.append((lead, None, tail))
        self.leads.append(self.packing.unpack(lead))
        self._update_pairs(len(self.entries) - 1)
        self.log.append(dict(self.alive))

    def _update_pairs(self, t):
        entries = self.entries
        leads = self.leads
        guard = self.guard
        pack = self.packing.pack
        order = self.packing.order
        elim = order.eliminated if isinstance(order, Block) else ()
        lead_t = leads[t]
        plead_t = entries[t][0]
        lcm_t = []
        cand = []
        for i in range(t):
            e = tuple([a if a > b else b for a, b in zip(leads[i], lead_t)])
            lcm = pack(e)
            lcm_t.append(lcm)
            deg = sum(x for v, x in enumerate(e) if v not in elim)
            cand.append((lcm, i, deg, lcm == entries[i][0] + plead_t))
        cand.sort()
        kept = []
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
            if not coprime:
                self._push_pair(i, t, lcm, deg)

    def _finalize(self):
        entries = self.entries
        guard = self.guard
        kept = [entry for i, entry in enumerate(entries)
                if not any(j != i and not (entry[0] - other[0]) & guard
                           for j, other in enumerate(entries))]
        return sorted(kept, key=lambda entry: entry[0])


def _trace(engine_class, ideal_gens, ring, order, selection):
    """(field bits, log, basis) of the run that fits its packing, with
    pairs selected as the engine does ("normal") or first in, first out
    ("fifo")."""
    if selection == "fifo":
        engine_class = type(f"_Fifo{engine_class.__name__}",
                            (engine_class, FifoEngine), {})

    def run(packing):
        engine = engine_class(ring, packing)
        basis = engine.run(ideal_gens)
        return packing.mask.bit_length(), engine.log, basis
    return _packed(order, ring.arity, run)


def _assert_same_work(gens, ring, order, selection, engine_class=_Traced):
    expected = _trace(_Reference, gens, ring, order, selection)
    got = _trace(engine_class, gens, ring, order, selection)
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    assert got[2] == expected[2]
    return expected[0]


def _seeded_gens(rng, ring):
    gens = _random_binomials(rng, ring)
    # one trinomial, so that tails longer than one term occur
    a, b, c = (ring.monomial(tuple(rng.choice(((1, 1, 0, 0), (0, 1, 1, 0),
                                                (1, 0, 0, 1), (0, 0, 1, 1),
                                                (2, 0, 0, 0), (0, 0, 0, 2)))))
               for _ in range(3))
    return gens + [a - 2 * b + c]


def _seeded_inputs(dom, order, selection):
    rng = random.Random(f"pairs/{order}/{dom}/{selection}")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    for _ in range(6):
        yield ring, [g for g in _seeded_gens(rng, ring) if not g.is_zero()]


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("order", _ORDERS, ids=str)
@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
def test_update_matches_tuple_reference(dom, order, selection):
    for ring, gens in _seeded_inputs(dom, order, selection):
        bits = _assert_same_work(gens, ring, order, selection)
        assert bits == _FIELD_BITS


def test_fifo_selection_forms_other_s_polynomials():
    """On the seeded inputs of the fifo cases above, the first-in,
    first-out engine forms another number of S-polynomials than the engine
    on some input, so those cases do not replay the normal ones."""
    other_work = 0
    for dom, order in product(_DOMAINS, _ORDERS):
        for ring, gens in _seeded_inputs(dom, order, "fifo"):
            spolys = [sum(isinstance(entry, tuple) and entry[0] == "spoly"
                          for entry in _trace(_Traced, gens, ring, order,
                                              selection)[1])
                      for selection in SELECTIONS]
            other_work += spolys[0] != spolys[1]
    assert other_work > 0


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("order", _ORDERS[:3], ids=str)
def test_update_matches_tuple_reference_through_widening(order, selection):
    ring = PolyRing(("x", "y", "z", "w"), GF(5))
    gens = [ring.parse("x - y^40000"), ring.parse("x*y"),
            ring.parse("z*w - y^2")]
    assert _assert_same_work(gens, ring, order, selection) > 2 * _FIELD_BITS


def test_unqueued_lcm_past_the_width_no_longer_widens():
    """The reference packs the lcm of every pair, so a coprime pair whose
    lcm outgrows the fields makes it repeat the run with wider fields; the
    engine packs only queued lcms and finishes at the first width, with the
    same basis."""
    ring = PolyRing(("x", "y"), QQ)
    gens = [ring.parse("x^70 - x*y^60"), ring.parse("y^70")]
    order = _ORDERS[1]
    ref_bits, _, ref_basis = _trace(_Reference, gens, ring, order, "normal")
    bits, _, basis = _trace(_Traced, gens, ring, order, "normal")
    assert (ref_bits, bits) == (2 * _FIELD_BITS, _FIELD_BITS)
    unpack = {b: _packing(order, 2, b).unpack for b in (ref_bits, bits)}

    def unpacked(b, elements):
        return [(unpack[b](lead), [(unpack[b](m), c) for m, c in tail])
                for lead, _, tail in elements]
    assert unpacked(bits, basis) == unpacked(ref_bits, ref_basis)


# ---------------------------------------------------------------------------
# the guard-bit lcm
# ---------------------------------------------------------------------------

def _exponent_part(packing, m):
    return sum(e << s for e, s in zip(m, packing.shifts))


def _lcm_mismatches(engine, monomials):
    """Pairs whose lcm from ``_lcms_with`` is not the tuple max."""
    packing = engine.packing
    engine.exps = [_exponent_part(packing, m) for m in monomials]
    bad = 0
    for b in monomials:
        lcms = engine._lcms_with(_exponent_part(packing, b))
        for a, lcm in zip(monomials, lcms):
            if lcm != _exponent_part(
                    packing, tuple(map(max, zip(a, b)))):
                bad += 1
    return bad


def _small_monomials():
    return [m for m in product(range(4), repeat=4) if sum(m) <= 3]


def _limit_monomials(packing):
    top = packing.limit - 1
    return list(product((0, 1, top - 1, top), repeat=4))


def _engine(order, packing=None):
    ring = PolyRing(("a", "b", "c", "d"), QQ)
    return _Engine(ring, packing or _packing(order, 4, _FIELD_BITS))


@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_guard_bit_lcm_is_the_fieldwise_max(order):
    engine = _engine(order)
    assert _lcm_mismatches(engine, _small_monomials()) == 0
    assert _lcm_mismatches(engine, _limit_monomials(engine.packing)) == 0


def test_lcm_with_the_guard_mask_off_by_one_field_is_caught():
    # broken copies of the packing, outside the cache of ``_packing``
    order, bits = _ORDERS[1], _FIELD_BITS
    for shift in (lambda g: g << bits, lambda g: g >> bits):
        packing = _Packing(order, 4, bits)
        packing.exp_guard = shift(packing.exp_guard)
        engine = _engine(order, packing)
        assert _lcm_mismatches(engine, _small_monomials()) > 0


class _WideMask(_Traced):
    """A broken copy whose exponent mask also takes in the order fields."""

    def __init__(self, ring, packing):
        wide = _Packing(packing.order, ring.arity, packing.mask.bit_length())
        wide.low = (1 << wide.guard.bit_length()) - 1
        wide.exp_guard = wide.guard
        super().__init__(ring, wide)


def test_exponent_mask_over_the_order_fields_is_caught():
    """The seeded inputs of the reference test under one order and domain
    tell the broken copy from the reference."""
    order, dom = _ORDERS[1], GF(5)
    rng = random.Random(f"pairs/{order}/{dom}/normal")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    caught = 0
    for _ in range(6):
        gens = [g for g in _seeded_gens(rng, ring) if not g.is_zero()]
        try:
            _assert_same_work(gens, ring, order, "normal", _WideMask)
        except AssertionError:
            caught += 1
    assert caught > 0
