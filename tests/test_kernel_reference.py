"""The reduction kernel, its packed monomials and the flat order keys
against reference copies of the code they replaced: a division loop on
exponent tuples that rescans ``max(work)`` on every step, and order keys
built as nested tuples.  Division quotients, remainders and normal forms
must agree exactly; every order must sort monomials the same way under both
keys and under packing; packing must round-trip and its guard-bit test must
be divisibility.  Inputs too large for the first packing width must come
out right through the widening path.  Terms that arrive in grevlex order
skip the sort and the normalization of ``_from_dict``, and every basis of a
binomial ideal is built from a shared run without it, the run's elements
sorted once; they must build the same
polynomials as the sorting path of a run in the ideal's own domain."""
from __future__ import annotations

import random
from itertools import product

import pytest

from veronese import groebner
from veronese.groebner import Ideal, buchberger, eliminate, normal_form
from veronese.polycore import (
    Block, GF, GrevLex, Lex, PolyRing, QQ, _FIELD_BITS, _from_dict, _packing,
    divide,
)

_ORDERS = [
    Lex(),
    GrevLex(),
    Block(frozenset({0, 2})),
    Block(frozenset({1, 3})),
    Block(frozenset({3})),
    Block(frozenset({0, 3})),
]
_DOMAINS = [QQ, GF(2), GF(5)]


# ---------------------------------------------------------------------------
# reference copies
# ---------------------------------------------------------------------------

def monomial_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def _nested_key(order, m):
    """Order key as nested tuples: grevlex (deg, reversed negated
    exponents), block (grevlex key of the block, grevlex key of the rest)."""
    if isinstance(order, Lex):
        return m
    if isinstance(order, GrevLex):
        return (sum(m), tuple(-e for e in reversed(m)))
    block = tuple(e for i, e in enumerate(m) if i in order.eliminated)
    rest = tuple(e for i, e in enumerate(m) if i not in order.eliminated)
    return (_nested_key(GrevLex(), block), _nested_key(GrevLex(), rest))


def _support_mask(m):
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


def _reference_nf(work, entries, keyf, p):
    """Full normal form, taking the maximal term by rescanning the dict."""
    work = dict(work)
    result = {}
    while work:
        m = max(work, key=keyf)
        c = work.pop(m)
        mdeg = sum(m)
        mmask = _support_mask(m)
        for lead, quotient, lmask, ldeg, tail in entries:
            if ldeg > mdeg or lmask & ~mmask:
                continue
            if any(a > b for a, b in zip(lead, m)):
                continue
            q = tuple(b - a for a, b in zip(lead, m))
            if quotient is not None:
                quotient[q] = c
            for tm, tc in tail:
                nm = tuple(x + y for x, y in zip(tm, q))
                nv = work.get(nm, 0) - c * tc
                if p:
                    nv %= p
                if nv:
                    work[nm] = nv
                else:
                    work.pop(nm, None)
            break
        else:
            result[m] = c
    return result


def _reference_divide(f, divisors, order):
    ring = f.ring
    dom = ring.domain
    keyf = lambda m: _nested_key(order, m)          # noqa: E731
    entries, scaled = [], []
    for d in divisors:
        lm = max((m for m, _ in d.terms), key=keyf)
        lcinv = dom.invert(d.coefficient(lm))
        tail = tuple((m, dom.normalize(c * lcinv))
                     for m, c in d.terms if m != lm)
        quotient = {}
        entries.append((lm, quotient, _support_mask(lm), sum(lm), tail))
        scaled.append((quotient, lcinv))
    remainder = _reference_nf(dict(f.terms), entries, keyf,
                              dom.characteristic)
    qs = [_from_dict(ring, {q: c * lcinv for q, c in quotient.items()})
          for quotient, lcinv in scaled]
    return qs, _from_dict(ring, remainder)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _random_poly(rng, ring, terms, max_deg):
    d = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, max_deg) for _ in range(ring.arity))
        d[m] = d.get(m, 0) + rng.randint(-4, 4)
    return ring.from_dict(d)


def _random_divisors(rng, ring):
    out = []
    while len(out) < rng.randint(1, 4):
        g = _random_poly(rng, ring, rng.randint(1, 4), 2)
        if not g.is_zero():
            out.append(g)
    return out


@pytest.mark.parametrize("order", _ORDERS, ids=str)
@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
def test_divide_matches_max_rescan_reference(order, dom):
    rng = random.Random(f"{order}/{dom}")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    for _ in range(40):
        divisors = _random_divisors(rng, ring)
        f = _random_poly(rng, ring, rng.randint(0, 8), 4)
        assert divide(f, divisors, order) == \
            _reference_divide(f, divisors, order)


def _random_binomials(rng, ring):
    """Two to three homogeneous binomials of degree 2 or 3: their bases
    stay small under every order."""
    out = []
    for _ in range(rng.randint(2, 3)):
        deg = rng.randint(2, 3)
        a, b = (tuple(_composition(rng, deg, ring.arity)) for _ in range(2))
        if a != b:
            out.append(ring.monomial(a)
                       - rng.choice((1, 2)) * ring.monomial(b))
    return out


def _composition(rng, deg, parts):
    exps = [0] * parts
    for _ in range(deg):
        exps[rng.randrange(parts)] += 1
    return exps


@pytest.mark.parametrize("order", _ORDERS, ids=str)
@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
def test_normal_form_matches_max_rescan_reference(order, dom):
    rng = random.Random(f"nf/{order}/{dom}")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    for _ in range(6):
        gb = buchberger(Ideal(ring, tuple(_random_binomials(rng, ring))),
                        order)
        if not gb.elements:
            continue
        for _ in range(8):
            f = _random_poly(rng, ring, rng.randint(0, 8), 4)
            _, expected = _reference_divide(f, list(gb.elements), order)
            assert normal_form(f, gb) == expected


@pytest.fixture
def sorting_path(monkeypatch, groebner_caches):
    """Calls a function with the ``groebner`` caches cleared, counting the
    ``_from_dict`` calls of ``groebner`` that skip the sort.  The sorting
    path also turns off the shared binomial runs, so that every basis comes
    from a run in its own domain and every ``_from_dict`` call sorts."""
    def call(fn, sort):
        skipped = []

        def from_dict(ring, d, in_order=False):
            skipped.append(in_order)
            return _from_dict(ring, d, in_order and not sort)

        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_from_dict", from_dict)
            if sort:
                patch.setattr(groebner, "_pure_difference", lambda g: None)
            groebner_caches()
            try:
                return fn(), sum(skipped)
            finally:
                groebner_caches()
    return call


def _in_order_elements(basis, order, binomial):
    """How many elements of a basis under ``order`` are built without a
    sort: all of a binomial ideal's, whose shared run sorts its elements
    once; else those the engine lists grevlex-descending, all under
    grevlex, and under a block order those whose lead has no eliminated
    variable."""
    if binomial or isinstance(order, GrevLex):
        return len(basis)
    if isinstance(order, Block):
        return sum(not any(g.lead_monomial(order)[i] for i in order.eliminated)
                   for g in basis)
    return 0


@pytest.mark.parametrize("order", _ORDERS, ids=str)
@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
def test_in_order_paths_match_the_sorting_path(order, dom, sorting_path):
    """Every element of a basis from a shared binomial run, under every
    order; engine output under grevlex and the elements free of the
    eliminated variables in engine output under a block order, when the
    basis comes from a run in the ideal's own domain; normal forms against
    a grevlex basis, the empty one included; and the
    restricted terms of an elimination skip the sort; each must be the
    polynomial that a run in the ideal's own domain with the sorting path
    builds."""
    rng = random.Random(f"in-order/{order}/{dom}")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    for _ in range(4):
        ideal = Ideal(ring, tuple(_random_binomials(rng, ring)))
        fs = [_random_poly(rng, ring, rng.randint(0, 8), 4) for _ in range(4)]
        drop = rng.sample(range(4), rng.randint(1, 3))

        def results():
            gb = buchberger(ideal, order)
            return (gb.elements, [normal_form(f, gb) for f in fs],
                    eliminate(ideal, drop).generators)

        got, skipped = sorting_path(results, sort=False)
        expected, _ = sorting_path(results, sort=True)
        assert got == expected
        basis, _, restricted = got
        binomial = None not in map(groebner._pure_difference,
                                   ideal.generators)
        in_order = len(fs) if isinstance(order, GrevLex) else 0
        in_order += _in_order_elements(basis, order, binomial)
        elimination = Block(frozenset(drop))
        if elimination != order:        # else the basis comes from the cache
            in_order += _in_order_elements(
                buchberger(ideal, elimination).elements, elimination,
                binomial)
        assert skipped == in_order + len(restricted)


@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_flat_keys_sort_like_nested_keys(order):
    monomials = [m for m in product(range(4), repeat=4) if sum(m) <= 3]
    random.Random(7).shuffle(monomials)
    flat = sorted(monomials, key=order.key)
    assert flat == sorted(monomials, key=lambda m: _nested_key(order, m))
    assert len({order.key(m) for m in monomials}) == len(monomials)


@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_packed_monomials_sort_round_trip_and_divide(order):
    monomials = [m for m in product(range(4), repeat=4) if sum(m) <= 3]
    random.Random(11).shuffle(monomials)
    packing = _packing(order, 4, _FIELD_BITS)
    packed = {m: packing.pack(m) for m in monomials}
    assert sorted(monomials, key=packed.__getitem__) == \
        sorted(monomials, key=order.key)
    assert all(packing.unpack(x) == m for m, x in packed.items())
    for a, pa in packed.items():
        for b, pb in packed.items():
            assert (not (pb - pa) & packing.guard) == monomial_divides(a, b)


# ---------------------------------------------------------------------------
# widening: exponents beyond what the first packing width holds
# ---------------------------------------------------------------------------

_WIDE = PolyRing(("x", "y"), GF(5))


def _polys(text):
    return {_WIDE.parse(t) for t in text.split(",")}


@pytest.mark.parametrize("order, expected", [
    (Lex(), "y^40001, x - y^40000"),
    (Block(frozenset({0})), "y^40001, x - y^40000"),
    (GrevLex(), "x*y, x^2, y^40000 - x"),
], ids=str)
def test_bases_with_exponents_past_the_first_width(order, expected):
    assert 40000 >= 1 << _FIELD_BITS - 1
    gens = tuple(_polys("x - y^40000, x*y"))
    gb = buchberger(Ideal(_WIDE, gens), order)
    assert set(gb.elements) == _polys(expected)


def test_division_remainder_past_the_first_width():
    f = _WIDE.parse("x^2*y")
    d = _WIDE.parse("x - y^40000")
    (q,), r = divide(f, [d], Lex())
    assert r.total_degree() == 80001
    assert r == _WIDE.parse("y^80001")
    assert q * d + r == f
