"""``colon_ideal`` against the plain fold it replaces.

The reference below intersects the pieces (ideal : g) one after another
and tests nothing in between, as ``colon_ideal`` once did.  The program
now skips every generator whose colon already contains the running
intersection; its generators must still be tuple-equal to the
reference's, over QQ, GF(2), GF(3) and GF(5), on the bracket-power
inputs of Fedder's criterion that the golden reports and the benchmark's
``certify`` and ``session`` seeds 3 and 5 ask for, whatever the order of
the divisor's generators, and on small cases that take each path of the
skip.  The skip's packed test must agree with ``ideal_member``, also
where its products outgrow the first packing, and also on the inputs of
its second caller, the fiber route's re-check of its witness."""
from __future__ import annotations

import random

import pytest

from veronese import groebner, polycore
from veronese.charp import fedder_fiber, frobenius_power
from veronese.groebner import (
    GroebnerBasis, Ideal, _products_in, buchberger, colon, colon_ideal,
    ideal_member, intersect,
)
from veronese.polycore import GF, GrevLex, PolyRing, Polynomial, QQ
from veronese.toric import MonomialMap, toric_ideal_elimination, veronese_map

from test_kernel_reference import _random_binomials, _random_poly

_DOMAINS = [QQ, GF(2), GF(3), GF(5)]


def _fold_reference(ideal: Ideal, other: Ideal) -> Ideal:
    if other.is_zero():
        return Ideal(ideal.ring, (ideal.ring.one,))
    result = None
    for g in other.generators:
        piece = colon(ideal, g)
        result = piece if result is None else intersect(result, piece)
    return result


def _bracket(ideal: Ideal, p: int) -> Ideal:
    """I^[p]: every exponent of every generator times p, in any domain."""
    return Ideal(ideal.ring, tuple(
        Polynomial(ideal.ring, tuple((tuple(e * p for e in m), c)
                                     for m, c in g.terms))
        for g in ideal.generators))


# the presentations (targets, p) whose Fedder colon the benchmark's
# ``certify`` and ``session`` reports of seeds 3 and 5 compute
BENCHMARK_PRESENTATIONS = [
    (((2, 0), (1, 1), (0, 2)), 5),
    (((3, 0), (1, 2), (0, 3)), 2),
    (((3, 0), (1, 2), (0, 3)), 3),
    (((3, 0), (1, 2), (0, 3)), 5),
    (((3, 0), (2, 1), (0, 3)), 2),
    (((3, 0), (2, 1), (0, 3)), 3),
    (((3, 0), (2, 1), (0, 3)), 5),
    (((4, 0), (1, 3), (0, 4)), 3),
    (((4, 0), (2, 2), (0, 4)), 2),
    (((4, 0), (3, 1), (0, 4)), 2),
    (((5, 0), (1, 4), (0, 5)), 2),
    (((5, 0), (1, 4), (0, 5)), 3),
    (((5, 0), (1, 4), (0, 5)), 5),
    (((5, 0), (2, 3), (0, 5)), 5),
    (((5, 0), (3, 2), (0, 5)), 5),
    (((5, 0), (4, 1), (0, 5)), 2),
    (((5, 0), (4, 1), (0, 5)), 3),
    (((5, 0), (4, 1), (0, 5)), 5),
    (((3, 0), (2, 1), (1, 2), (0, 3)), 3),
    (((4, 0), (2, 2), (1, 3), (0, 4)), 3),
    (((4, 0), (3, 1), (1, 3), (0, 4)), 2),
    (((4, 0), (3, 1), (1, 3), (0, 4)), 3),
    (((4, 0), (3, 1), (1, 3), (0, 4)), 5),
    (((4, 0), (3, 1), (2, 2), (1, 3), (0, 4)), 2),
    (((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)), 3),
]

# the ideals and primes of the golden ``present`` and ``fedder`` reports
# that are not among the above (``present`` of the quartic curve is)
GOLDEN_IDEALS = [
    (("x", "y"), ("x*y",), 2),
    (("x", "y", "z"), ("x^3 + y^3 + z^3",), 2),
    (("t1", "t2", "t3"), ("t2^2 - t1*t3",), 3),
    (("t1", "t2", "t3", "t4"), ("t1*t2 - t4^2",), 2),
    (("t1", "t2", "t3", "t4"), ("t1*t2 - t4^2",), 3),
    (("t1", "t2", "t3", "t4"), ("t1*t2 - t4^2",), 5),
]


def _fedder_inputs(dom):
    """(I^[p], I) over ``dom`` for every input above; over GF(p) at its
    own p this is the colon of Fedder's criterion."""
    for targets, p in BENCHMARK_PRESENTATIONS:
        ideal = toric_ideal_elimination(MonomialMap(targets), dom)
        yield _bracket(ideal, p), ideal
    for names, gens, p in GOLDEN_IDEALS:
        ring = PolyRing(names, dom)
        ideal = Ideal(ring, tuple(ring.parse(g) for g in gens))
        yield _bracket(ideal, p), ideal


def _pure_power(g: Polynomial) -> bool:
    """Is the grevlex lead of g a power of one variable?"""
    return sum(e > 0 for e in g.lead_monomial(GrevLex())) == 1


def _orders(rng, gens):
    """The generators as given, with the pure-power leads last, and in two
    seeded shuffles."""
    yield gens
    yield tuple(sorted(gens, key=_pure_power))
    for _ in range(2):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        yield tuple(shuffled)


def _agree(ideal: Ideal, other: Ideal, groebner_caches, rng) -> None:
    """``colon_ideal`` with the divisor's generators in each of
    ``_orders`` is tuple-equal to the fold over them as given."""
    groebner_caches()
    want = _fold_reference(ideal, other).generators
    for gens in _orders(rng, other.generators):
        groebner_caches()
        assert colon_ideal(ideal, Ideal(other.ring, gens)).generators == want


@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
def test_fedder_colons_match_the_fold(dom, groebner_caches):
    rng = random.Random(f"fedder/{dom}")
    for bracket, ideal in _fedder_inputs(dom):
        _agree(bracket, ideal, groebner_caches, rng)


@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
def test_seeded_colons_match_the_fold(dom, groebner_caches):
    rng = random.Random(f"colon/{dom}")
    ring = PolyRing(("a", "b", "c"), dom)
    for _ in range(6):
        ideal = Ideal(ring, _random_binomials(rng, ring)
                      + [_random_poly(rng, ring, 3, 2)])
        other = Ideal(ring, _random_binomials(rng, ring))
        _agree(ideal, other, groebner_caches, rng)


# the Fedder inputs on which a later pure-power piece is skipped and a
# generator after them runs in its place: the generators whose pieces run,
# by position, in the order they run
_OTHER_PIECES = {
    (((4, 0), (3, 1), (1, 3), (0, 4)), 2): [1, 0],
    (((4, 0), (3, 1), (2, 2), (1, 3), (0, 4)), 2): [0, 3, 1],
}


def test_fedder_pieces_are_the_pure_power_leads(monkeypatch,
                                                groebner_caches):
    """On the Fedder colons (I^[p] : I) of the benchmark's presentations,
    over GF(p), the pieces that run are those of the generators of I with a
    pure-power lead, as many as they are, on all but the two inputs of
    ``_OTHER_PIECES``."""
    ran = []

    def piece(ideal, f, _colon=groebner.colon):
        ran.append(f)
        return _colon(ideal, f)

    monkeypatch.setattr(groebner, "colon", piece)
    for targets, p in BENCHMARK_PRESENTATIONS:
        ideal = toric_ideal_elimination(MonomialMap(targets), GF(p))
        gens = ideal.generators
        groebner_caches()
        ran.clear()
        colon_ideal(_bracket(ideal, p), ideal)
        pure = [g for g in gens if _pure_power(g)]
        other = _OTHER_PIECES.get((targets, p))
        assert len(ran) == len(pure)
        assert ran == (pure if other is None else [gens[i] for i in other])


@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
def test_packed_products_match_ideal_member(dom):
    """``_products_in`` against ``ideal_member`` of each product, on the
    Fedder inputs: the quotient's generators times the divisor's (all in)
    and seeded polynomials times them (mostly not)."""
    rng = random.Random(f"products/{dom}")
    seen = set()
    for bracket, ideal in _fedder_inputs(dom):
        gb = buchberger(bracket)
        hs = list(colon_ideal(bracket, ideal).generators)
        hs += [_random_poly(rng, ideal.ring, 3, 3) for _ in range(3)]
        hs = [h for h in hs if not h.is_zero()]
        for g in ideal.generators:
            members = [ideal_member(h * g, gb) for h in hs]
            for h, member in zip(hs, members):
                assert _products_in([h], g, gb) is member
            assert _products_in(hs, g, gb) is all(members)
            seen.update(members)
    assert seen == {True, False}


def test_packed_products_widen_when_they_overflow(monkeypatch):
    """Inputs that do not fit 8-bit fields: at p = 251 the bracket power
    itself, and below x^100 and x^50, which fit while their product does
    not.  ``_packed`` must widen and repeat the test, and agree with
    ``ideal_member``."""
    widths = []

    def packing(order, arity, bits, _packing=polycore._packing):
        widths.append(bits)
        return _packing(order, arity, bits)

    monkeypatch.setattr(polycore, "_packing", packing)
    ring = PolyRing(("x", "y", "z"), GF(251))
    ideal = _ideal(ring, "x*z - y^2")
    bracket = _bracket(ideal, 251)
    gb = buchberger(bracket)
    hs = colon_ideal(bracket, ideal).generators
    for g in ideal.generators + (ring.parse("x*y"),):
        widths.clear()
        got = _products_in(hs, g, gb)
        assert widths[:2] == [8, 16]
        assert got is all(ideal_member(h * g, gb) for h in hs)

    ring = PolyRing(("x", "y"), GF(2))
    gb = buchberger(_bracket(_ideal(ring, "x"), 2))
    for h, g, member in (("x^100", "x^50", True), ("y^100", "y^50", False)):
        h, g = ring.parse(h), ring.parse(g)
        assert ideal_member(h * g, gb) is member
        widths.clear()
        assert _products_in([h], g, gb) is member
        assert widths == [8, 16]


# the fiber route's re-check: (k, n, p) of the Veronese maps, the last two
# past the 8-bit fields
_FIBER_RECHECKS = [(k, n, p) for k, n in ((2, 2), (2, 3), (2, 4), (3, 2))
                   for p in (2, 3, 5)] + [(2, 2, 43), (2, 2, 67)]


@pytest.mark.parametrize("k, n, p", _FIBER_RECHECKS)
def test_packed_products_match_ideal_member_on_the_fiber_recheck(k, n, p):
    """``_products_in`` as ``fedder_fiber`` calls it, hs = G the basis of
    I, g = u its witness, against the Frobenius basis G^[p]: every u g is
    in I^[p], by ``ideal_member`` too; u with its last monomial dropped
    has a product outside, as the dense re-check of ``test_charp`` finds."""
    mmap = veronese_map(k, n)
    u = fedder_fiber(mmap, p).witness
    ring = u.ring
    G = buchberger(toric_ideal_elimination(mmap, GF(p))).elements
    frobenius = GroebnerBasis(ring, GrevLex(), frobenius_power(
        Ideal(ring, G)).generators)
    for witness, member in ((u, True),
                            (u - ring.monomial(u.terms[-1][0]), False)):
        members = [ideal_member(h * witness, frobenius) for h in G]
        assert all(members) is member
        assert _products_in(G, witness, frobenius) is member
        for h, one in zip(G, members):
            assert _products_in([h], witness, frobenius) is one


def _ideal(ring, *texts):
    return Ideal(ring, tuple(ring.parse(t) for t in texts))


@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
@pytest.mark.parametrize("dividend, divisors, pieces, combined", [
    # (J : x) lies in (J : x*y): one piece and no combining intersect, so
    # the result is the reduced basis of the piece
    (("x^3", "x^2*y^2 - y^4", "y^5"), ("x", "x*y"), 1, 0),
    # (J : x) = (x, y^2) does not lie in (J : y) = (x^2, y); their
    # intersection lies in both, so the repeated generators are skipped
    (("x^2", "y^2"), ("x", "y", "x", "y"), 2, 1),
    # x^2, the one pure-power lead, is taken first: (J : x^2) = (x, y^3)
    # does not lie in (J : x*y) = (x^2, y^2), which shrinks it to
    # (x^2, x*y^2, y^3); that lies in (J : x^2*y) = (x, y^2), which is
    # skipped
    (("x^3", "y^3"), ("x*y", "x^2*y", "x^2"), 2, 1),
    # a single generator: the piece as ``colon`` returns it
    (("x^2", "x*y - y^2"), ("x + y",), 1, 0),
    # a zero dividend: every piece is zero, so the first one is all
    ((), ("x", "y"), 1, 0),
    ((), ("x",), 1, 0),
], ids=["contained", "duplicated", "shrinks", "single", "zero", "zero-one"])
def test_small_colons_match_the_fold(dom, dividend, divisors, pieces,
                                     combined, colon_calls,
                                     groebner_caches):
    ring = PolyRing(("x", "y"), dom)
    ideal = _ideal(ring, *dividend)
    other = _ideal(ring, *divisors)
    groebner_caches()
    got = colon_ideal(ideal, other)
    # each ``colon`` calls ``intersect`` once
    assert colon_calls == {"colon": pieces, "intersect": pieces + combined}
    groebner_caches()
    assert got.generators == _fold_reference(ideal, other).generators
    for g in other.generators:
        for h in got.generators:
            assert ideal_member(h * g, buchberger(ideal))


def test_zero_divisor_ideal_gives_the_unit_ideal():
    ring = PolyRing(("x", "y"), QQ)
    ideal = _ideal(ring, "x^2")
    assert colon_ideal(ideal, Ideal(ring, ())).generators == (ring.one,)
