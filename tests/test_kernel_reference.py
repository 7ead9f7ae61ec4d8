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
path of a run in the ideal's own domain builds.  The S-polynomials and the
containment products that ``_add_shifted`` sums must be the sums that
``Polynomial`` arithmetic builds, without zero coefficients, and a sum that
outgrows the first width must overflow in the helper and come out right
wider."""
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


def test_a_reduction_step_past_the_first_width_overflows_in_the_kernel(
        monkeypatch):
    """x^2 by x - y^100 under lex: the first step writes x*y^100, which
    packs, and the second y^200, whose field does not, so ``_nf_dict``
    itself raises ``_PackingOverflow`` once and ``_packed`` reruns the
    division wider, with the reference's quotient and remainder."""
    nf = polycore._nf_dict
    raised = []

    def recorded(*args):
        try:
            return nf(*args)
        except polycore._PackingOverflow:
            raised.append(args[2])               # the guard of the width
            raise

    monkeypatch.setattr(polycore, "_nf_dict", recorded)
    ring = PolyRing(("x", "y"), QQ)
    f, d = ring.parse("x^2"), ring.parse("x - y^100")
    got = divide(f, [d], Lex())
    assert raised == [_packing(Lex(), 2, _FIELD_BITS).guard]
    assert got == _reference_divide(f, [d], Lex())
    assert got == ([ring.parse("y^100 + x")], ring.parse("y^200"))


# ---------------------------------------------------------------------------
# shifted sums: S-polynomials and containment products
# ---------------------------------------------------------------------------

#: QQ, GF(2), where 1 + 1 cancels, a small prime and a large one
_SUM_DOMAINS = [QQ, GF(2), GF(3), GF(32003)]


def _random_trinomials(rng, ring):
    """Two to three homogeneous trinomials of degree 2 or 3, none a
    monomial or a pure difference, so that every run is in the ring's own
    domain; their bases stay small under every order."""
    out = []
    for _ in range(rng.randint(2, 3)):
        deg = rng.randint(2, 3)
        g = ring.zero
        while len(g.terms) < 3:
            g = ring.from_dict({tuple(_composition(rng, deg, ring.arity)):
                                rng.randint(1, 4) for _ in range(3)})
        out.append(g)
    return out


def _unpacked(packing, d):
    return {packing.unpack(m): c for m, c in d.items()}


@pytest.mark.parametrize("order", _ORDERS, ids=str)
@pytest.mark.parametrize("dom", _SUM_DOMAINS, ids=str)
def test_spolynomials_are_the_polynomial_sums(order, dom, monkeypatch,
                                              groebner_caches):
    """Every S-polynomial that the engine hands to ``_nf_dict`` holds no
    zero coefficient and is x^(l - lead_i)*f_i - x^(l - lead_j)*f_j of
    its monic elements, l the lcm of their leads, as ``Polynomial``
    arithmetic on exponent tuples builds it."""
    spoly = groebner._Engine._spoly
    seen = []

    def recorded(self, i, j, lcm):
        d = spoly(self, i, j, lcm)
        seen.append((self.packing, self.entries[i], self.entries[j], lcm,
                     dict(d)))
        return d

    monkeypatch.setattr(groebner._Engine, "_spoly", recorded)
    rng = random.Random(f"spoly/{order}/{dom}")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    for _ in range(6):
        buchberger(Ideal(ring, tuple(_random_trinomials(rng, ring))), order)
    assert len(seen) > 10
    merged = 0
    for packing, (lead_i, _, tail_i), (lead_j, _, tail_j), lcm, d in seen:
        top = packing.unpack(lcm)

        def shifted(lead, tail):
            monic = ring.from_dict({packing.unpack(lead): 1,
                                    **_unpacked(packing, dict(tail))})
            return ring.monomial(tuple(
                a - b for a, b in zip(top, packing.unpack(lead)))) * monic

        assert all(d.values())
        assert _unpacked(packing, d) == dict(
            (shifted(lead_i, tail_i) - shifted(lead_j, tail_j)).terms)
        merged += len(d) < len(tail_i) + len(tail_j)
    # shifted tails meet, and over GF(2) every meeting of two cancels
    assert merged


@pytest.mark.parametrize("dom", _SUM_DOMAINS, ids=str)
def test_containment_products_are_the_polynomial_products(dom, monkeypatch):
    """Every product h*g that ``_products_in`` hands to ``_nf_dict`` holds
    no zero coefficient and equals h*g built by ``Polynomial``
    arithmetic; the products are tested in the order of hs, up to the
    first outside the ideal, and the answer is normal-form membership."""
    nf = groebner._nf_dict
    handed = []

    def recorded(work, entries, guard, p):
        handed.append(dict(work))
        return nf(work, entries, guard, p)

    rng = random.Random(f"products/{dom}")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    packing = _packing(GrevLex(), 4, _FIELD_BITS)
    answers = set()
    merged = 0
    for _ in range(12):
        gb = buchberger(Ideal(ring, tuple(_random_trinomials(rng, ring))))
        g = _random_poly(rng, ring, rng.randint(2, 8), 1)
        # multiples of a basis element, so that some products lie inside
        hs = [_random_poly(rng, ring, rng.randint(1, 6), 1)
              * rng.choice(gb.elements) ** rng.randint(0, 1)
              for _ in range(rng.randint(1, 4))]
        handed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_nf_dict", recorded)
            got = groebner._products_in(hs, g, gb)
        inside = [normal_form(h * g, gb).is_zero() for h in hs]
        assert got == all(inside)
        assert len(handed) == (len(hs) if got else inside.index(False) + 1)
        for h, d in zip(hs, handed):
            assert all(d.values())
            assert _unpacked(packing, d) == dict((h * g).terms)
            merged += len(d) < len(h.terms) * len(g.terms)
        answers.add(got)
    assert answers == {True, False} and merged


def test_sums_past_the_first_width_overflow_in_the_helper(monkeypatch,
                                                          groebner_caches):
    """An S-polynomial and a product whose monomials outgrow the 8-bit
    fields raise ``_PackingOverflow`` in ``_add_shifted``; ``_packed``
    reruns the whole computation at 16 bits, with the result of a run that
    starts there."""
    add = groebner._add_shifted
    calls = []                           # (guard, raised) per helper call

    def recorded(d, terms, shift, scale, guard, p):
        try:
            out = add(d, terms, shift, scale, guard, p)
        except polycore._PackingOverflow:
            calls.append((guard, True))
            raise
        calls.append((guard, False))
        return out

    def widened(compute, order, arity):
        """compute(), whose helper calls at the first width must end in
        the one overflow, and all succeed at twice the width."""
        calls.clear()
        out = compute()
        narrow, wide = (_packing(order, arity, bits).guard
                        for bits in (_FIELD_BITS, 2 * _FIELD_BITS))
        raised = calls.index((narrow, True))
        assert calls[:raised] == [(narrow, False)] * raised
        assert calls[raised + 1:] == [(wide, False)] * (len(calls) - raised
                                                        - 1)
        assert len(calls) > raised + 1
        return out

    monkeypatch.setattr(groebner, "_add_shifted", recorded)
    ring = PolyRing(("x", "y", "z"), GF(5))
    # the pair's lcm x*z^10 packs; the S-polynomial -2*y + y^120*z^10,
    # of degree 130, does not
    ideal = Ideal(ring, (ring.parse("x*z^10 - 2*y"), ring.parse("x - y^120")))
    gb = widened(lambda: buchberger(ideal, Lex()), Lex(), 3)
    assert set(gb.elements) == {ring.parse("x - y^120"),
                                ring.parse("y^120*z^10 - 2*y")}
    two = PolyRing(("x", "y"), QQ)
    products = [([two.parse("x^70")], two.parse(g),
                 buchberger(Ideal(two, (two.parse("x*y"),))))
                for g in ("y^70 + x*y", "y^70 + x")]
    # x^70*y^70, of degree 140, does not pack
    answers = [widened(lambda: groebner._products_in(*args), GrevLex(), 2)
               for args in products]
    assert answers == [True, False]

    groebner_caches()
    monkeypatch.setattr(polycore, "_FIELD_BITS", 2 * _FIELD_BITS)
    assert buchberger(ideal, Lex()) == gb
    assert [groebner._products_in(*args) for args in products] == answers
