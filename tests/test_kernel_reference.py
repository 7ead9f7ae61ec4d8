"""The reduction kernel, its packed monomials and the flat order keys
against reference copies of the code they replaced: a division loop on
exponent tuples that rescans ``max(work)`` on every step, and order keys
built as nested tuples.  Division quotients, remainders and normal forms
must agree exactly; every order must sort monomials the same way under both
keys and under packing; packing must round-trip and its guard-bit test must
be divisibility.  Inputs too large for the first packing width must come
out right through the widening path.  A packed result converted by
``_Packing.polynomial`` under grevlex, or read into the ring of the kept
variables of an elimination, is taken as it stands, without the sort of
``_from_dict``; only the elements of an elimination run that lie in the
elimination ideal are built; and a binomial basis is read from a shared run
in every field.  They must build exactly the polynomials that the sorting
path of a run in the ideal's own domain builds."""
from __future__ import annotations

import random
from itertools import product

import pytest

from veronese import groebner, polycore
from veronese.groebner import Ideal, buchberger, eliminate, normal_form
from veronese.polycore import (
    Block, GF, GrevLex, Lex, PolyRing, QQ, _FIELD_BITS, _Packing, _from_dict,
    _packing, divide,
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
    """Calls a function with the ``groebner`` caches cleared and returns
    its value and, per ``_Packing.polynomial`` conversion, the packing's
    order, whether the conversion skipped the sort, that is, called no
    ``_from_dict``, and whether it read the kept variables of an
    elimination.  The sorting path makes every conversion sort, from the
    whole exponent vectors, and also turns off the shared binomial runs, so
    that every basis comes from a run in its own domain."""
    polynomial = _Packing.polynomial

    def call(fn, sort):
        conversions = []
        sorts = []

        def from_dict(ring, d):
            sorts.append(ring)
            return _from_dict(ring, d)

        def converted(self, ring, d, kept=None):
            before = len(sorts)
            if sort:
                out = from_dict(ring, {
                    tuple(e for i, e in enumerate(self.unpack(x))
                          if kept is None or i in kept): c
                    for x, c in d.items()})
            else:
                out = polynomial(self, ring, d, kept)
            conversions.append((self.order, len(sorts) == before,
                                kept is not None))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(polycore, "_from_dict", from_dict)
            patch.setattr(_Packing, "polynomial", converted)
            if sort:
                patch.setattr(groebner, "_pure_difference", lambda g: None)
            groebner_caches()
            try:
                return fn(), conversions
            finally:
                groebner_caches()
    return call


def _exact(polys):
    """Polynomials as their ring and the repr of their terms, so that
    equal values of different types, 1 and Fraction(1), differ."""
    return [(f.ring, repr(f.terms)) for f in polys]


@pytest.mark.parametrize("order", _ORDERS, ids=str)
@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
def test_in_order_paths_match_the_sorting_path(order, dom, sorting_path):
    """Bases, from a shared binomial run or a run in the ideal's own
    domain, normal forms, the remainders and quotients of ``divide`` and
    eliminations must be exactly what the sorting path builds.  Every
    packed result
    converted under grevlex, and none under lex or a block order, must skip
    the sort; an elimination must convert only the elements it returns,
    and skip the sort for each."""
    rng = random.Random(f"in-order/{order}/{dom}")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    for _ in range(4):
        ideal = Ideal(ring, tuple(_random_binomials(rng, ring)))
        fs = [_random_poly(rng, ring, rng.randint(0, 8), 4) for _ in range(4)]
        drop = rng.sample(range(4), rng.randint(1, 3))
        divisors = list(ideal.generators)

        def results():
            gb = buchberger(ideal, order)
            divisions = ([divide(f, divisors, order) for f in fs]
                         if divisors else [])
            return [_exact(gb.elements),
                    _exact(normal_form(f, gb) for f in fs),
                    _exact(r for _, r in divisions),
                    _exact(q for qs, _ in divisions for q in qs),
                    _exact(eliminate(ideal, drop).generators)]

        got, conversions = sorting_path(results, sort=False)
        expected, sorted_conversions = sorting_path(results, sort=True)
        assert got == expected
        assert not any(skipped for _, skipped, _ in sorted_conversions)
        # one conversion per basis element, normal form, remainder and
        # quotient under ``order``, each skipping the sort under grevlex
        # alone, and one per element of the elimination ideal, none sorted:
        # the elements of its run that lie outside it are never built
        under_order = [(o, skipped) for o, skipped, kept in conversions
                       if not kept]
        elimination = [(o, skipped) for o, skipped, kept in conversions
                       if kept]
        assert len(under_order) == (len(got[0]) + len(fs) + len(got[2])
                                    + len(got[3]))
        assert all(o == order and skipped == isinstance(order, GrevLex)
                   for o, skipped in under_order)
        assert elimination == [(Block(frozenset(drop)), True)] * len(got[4])


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
