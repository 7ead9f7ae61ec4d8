"""Polynomial kernel: coefficient domains, monomial orders checked against
independent brute-force definitions, canonical arithmetic, the order fields
of a packed monomial built from its exponent part, division, and the input
grammar with exact error positions."""
from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import accumulate, product

import pytest

from veronese import polycore
from veronese.polycore import (
    Block, GF, GrevLex, Lex, ParseError, PolyRing, QQ, ResourceCapError,
    divide,
    homogeneous_degree, is_homogeneous, parse_polynomial,
    parse_polynomial_list, _FIELD_BITS, _Packing, _PackingOverflow, _packing,
)

from test_kernel_reference import _ORDERS

_GREVLEX = GrevLex()
_LEX = Lex()


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

def test_rationals_normalize_and_invert():
    assert QQ.characteristic == 0
    assert QQ.normalize(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.normalize(3) == Fraction(3)
    assert QQ.invert(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.zero == 0 and QQ.one == 1
    with pytest.raises(ZeroDivisionError):
        QQ.invert(Fraction(0))


def test_prime_field_least_residues():
    F = GF(5)
    assert F.characteristic == 5
    assert F.normalize(7) == 2
    assert F.normalize(-1) == 4
    assert F.normalize(Fraction(1, 2)) == 3      # 2 * 3 = 6 = 1 mod 5
    assert F.invert(2) == 3
    assert F.invert(4) == 4
    with pytest.raises(ZeroDivisionError):
        F.invert(0)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 91])
def test_gf_rejects_composites(bad):
    with pytest.raises(ValueError):
        GF(bad)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97])
def test_gf_accepts_primes(p):
    assert GF(p).characteristic == p


def _trial_division(n):
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_primality_agrees_with_trial_division_below_10_to_the_5():
    assert [n for n in range(10 ** 5)
            if polycore._is_prime(n) != _trial_division(n)] == []


@pytest.mark.parametrize("n, prime", [
    # strong pseudoprimes to the bases 2..23 and 2..31 (OEIS A014233)
    (3215031751, False), (3825123056546413051, False),
    ((1 << 61) - 1, True), ((1 << 89) - 1, True),
    # 399165290221 * 798330580441, the first composite the twelve bases
    # pass: hence the bound
    (polycore.PRIME_BOUND, True),
])
def test_primality_on_large_numbers(n, prime):
    assert polycore._is_prime(n) is prime


def test_gf_refuses_a_prime_at_or_past_the_bound():
    assert GF((1 << 61) - 1).characteristic == (1 << 61) - 1
    for p in (polycore.PRIME_BOUND, (1 << 89) - 1):
        with pytest.raises(ResourceCapError, match="below"):
            GF(p)


# ---------------------------------------------------------------------------
# monomial orders against brute-force definitions
# ---------------------------------------------------------------------------

def compare_monomials(order, a, b):
    """-1, 0 or 1 as a <, =, > b under the order, by its keys."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def monomial_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def _all_monomials(arity, max_degree):
    return [m for m in product(range(max_degree + 1), repeat=arity)
            if sum(m) <= max_degree]


def _lex_cmp(a, b):
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


def _grevlex_cmp(a, b):
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            # smaller exponent in the last differing slot wins
            return 1 if x < y else -1
    return 0


@pytest.mark.parametrize("order,oracle", [(_LEX, _lex_cmp), (_GREVLEX, _grevlex_cmp)])
def test_orders_match_bruteforce_definitions(order, oracle):
    mons = _all_monomials(3, 4)
    for a in mons:
        for b in mons:
            assert compare_monomials(order, a, b) == oracle(a, b), (a, b)


def test_orders_are_multiplicative():
    mons = _all_monomials(3, 3)
    shifts = [(1, 0, 0), (0, 2, 0), (1, 1, 1)]
    for order in (_LEX, _GREVLEX, Block(frozenset({0}))):
        for a, b in zip(mons, reversed(mons)):
            c = compare_monomials(order, a, b)
            for s in shifts:
                shifted = [tuple(x + y for x, y in zip(m, s)) for m in (a, b)]
                assert compare_monomials(order, *shifted) == c


def test_block_order_elimination_property():
    order = Block(frozenset({0, 1}))
    mons = _all_monomials(4, 3)
    for a in mons:
        for b in mons:
            if (a[0] or a[1]) and not (b[0] or b[1]):
                assert compare_monomials(order, a, b) == 1


def test_grevlex_degree_two_chain_in_three_variables():
    # descending: x^2, xy, y^2, xz, yz, z^2
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    ranked = sorted(chain, key=_GREVLEX.key, reverse=True)
    assert ranked == chain


def test_block_order_needs_eliminated_variables():
    with pytest.raises(ValueError):
        Block(frozenset())


# ---------------------------------------------------------------------------
# rings and canonical polynomials
# ---------------------------------------------------------------------------

def test_ring_rejects_bad_names():
    for bad in (("X",), ("1a",), ("x y",), ("x", "x"), ("t-1",), ()):
        with pytest.raises(ValueError):
            PolyRing(bad, QQ)


@pytest.mark.parametrize("name", [
    "x\uff11", "x\u00b2", "\u00e9", "X", "xY", "x_1", "+x", "x\n",
])
def test_ring_refuses_names_beyond_ascii_lowercase(name):
    """Full-width and superscript digits, a non-ASCII letter, uppercase,
    an underscore, a leading sign and a trailing newline."""
    with pytest.raises(ValueError, match="bad variable name"):
        PolyRing((name,), QQ)


def test_ring_takes_ascii_lowercase_names_with_digits():
    assert PolyRing(("x", "t12", "ab0c"), QQ).names == ("x", "t12", "ab0c")


def test_variable_lookup_by_name_and_index():
    R = PolyRing(("x", "y", "z"), QQ)
    assert R.variable(1) == R.variable("y")
    with pytest.raises(ValueError):
        R.variable("w")
    with pytest.raises(ValueError):
        R.variable(3)


def test_terms_are_canonical_grevlex_descending():
    R = PolyRing(("x", "y"), QQ)
    f = R.from_dict({(0, 1): 2, (2, 0): 1, (1, 1): 0, (0, 0): -3})
    assert f.terms == (((2, 0), Fraction(1)), ((0, 1), Fraction(2)),
                       ((0, 0), Fraction(-3)))
    # structural equality is mathematical equality
    g = R.parse("x^2 + 2*y - 3")
    assert f == g and hash(f) == hash(g)


def test_zero_coefficients_vanish_mod_p():
    R = PolyRing(("x",), GF(3))
    assert (R.parse("x") + R.parse("2*x")).is_zero()
    assert R.from_dict({(1,): 3}).is_zero()


def _random_poly(rng, ring, max_terms=4, max_deg=3, max_coeff=6):
    d = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ring.arity))
        d[m] = rng.randint(-max_coeff, max_coeff)
    return ring.from_dict(d)


@pytest.mark.parametrize("domain", [QQ, GF(2), GF(5)])
def test_arithmetic_laws_random(domain):
    rng = random.Random(20260818)
    R = PolyRing(("x", "y", "z"), domain)
    for _ in range(80):
        a, b, c = (_random_poly(rng, R) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == R.zero
        assert a + R.zero == a
        assert a * R.one == a
        assert a * R.zero == R.zero
        assert a ** 3 == a * a * a
        assert -(-a) == a


def test_integer_coercion_both_sides():
    R = PolyRing(("x",), QQ)
    x = R.variable(0)
    assert 3 + x == x + 3 == R.parse("x + 3")
    assert 2 * x == x * 2 == R.parse("2*x")
    assert 1 - x == -(x - 1)


def test_cross_ring_operations_rejected():
    A = PolyRing(("x",), QQ)
    B = PolyRing(("y",), QQ)
    C = PolyRing(("x",), GF(2))
    with pytest.raises(ValueError):
        A.variable(0) + B.variable(0)
    with pytest.raises(ValueError):
        A.variable(0) * C.variable(0)


def test_power_validation():
    R = PolyRing(("x",), QQ)
    assert R.parse("x + 1") ** 0 == R.one
    with pytest.raises(ValueError):
        R.parse("x") ** -1


def test_monic_and_lead():
    R = PolyRing(("x", "y"), QQ)
    f = R.parse("2*x^2 - 4*y")
    assert f.lead_monomial(_GREVLEX) == (2, 0)
    assert f.coefficient(f.lead_monomial(_GREVLEX)) == 2
    # lex picks a different lead for a degree-skewed polynomial
    g = R.parse("x + y^2")
    assert g.lead_monomial(_LEX) == (1, 0)
    assert g.lead_monomial(_GREVLEX) == (0, 2)


def test_homogeneity():
    R = PolyRing(("x", "y"), QQ)
    assert is_homogeneous(R.parse("x^2 - x*y"))
    assert homogeneous_degree(R.parse("x^2 - x*y")) == 2
    assert not is_homogeneous(R.parse("x^2 - y"))
    assert homogeneous_degree(R.parse("x^2 - y")) is None
    assert is_homogeneous(R.zero)
    assert homogeneous_degree(R.zero) is None
    assert R.zero.total_degree() is None


# ---------------------------------------------------------------------------
# packed monomials: the order fields from the exponent part
# ---------------------------------------------------------------------------

_WIDTHS = (_FIELD_BITS, 2 * _FIELD_BITS)


def _exponent_part(packing, m):
    return sum(e << s for e, s in zip(m, packing.shifts))


def _fits(packing, m):
    """A monomial that the kernel can create in the packing: no exponent
    and no summed row of its order key, a field each, reaches the limit.
    Under an elimination order its total degree can."""
    return all(f < packing.limit for f in m + tuple(accumulate(
        packing.order.key(m))))


def _seeded_lcms(packing, rng):
    """Exponent tuples of lcms of two monomials that each fit the packing,
    some of total degree at or past its limit: all pairs of the extreme
    monomials, then seeded ones."""
    top = packing.limit - 1
    extremes = [m for m in product((0, 1, top - 1, top), repeat=4)
                if _fits(packing, m)]
    lcms = [tuple(map(max, zip(a, b))) for a, b in product(extremes, repeat=2)]
    for _ in range(400):
        a, b = ([rng.randint(0, top) for _ in range(4)] for _ in range(2))
        for m in (a, b):         # scale down into the packing
            while not _fits(packing, tuple(m)):
                m[rng.randrange(4)] //= 2
        lcms.append(tuple(map(max, zip(a, b))))
    return lcms


def _packing_mismatches(packing, lcms):
    """lcms whose packed monomial from the exponent part is not the packed
    tuple, or that fit the packing one way and not the other."""
    bad = 0
    for m in lcms:
        try:
            expected = packing.pack(m)
        except _PackingOverflow:
            expected = _PackingOverflow
        try:
            got = packing.pack_exponents(_exponent_part(packing, m))
        except _PackingOverflow:
            got = _PackingOverflow
        bad += got != expected
    return bad


@pytest.mark.parametrize("bits", _WIDTHS)
@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_packing_from_the_exponent_part_is_the_packed_tuple(order, bits):
    packing = _packing(order, 4, bits)
    lcms = _seeded_lcms(packing, random.Random(f"rows/{order}/{bits}"))
    assert any(sum(m) >= packing.limit for m in lcms)
    assert _packing_mismatches(packing, lcms) == 0
    small = [m for m in product(range(4), repeat=4) if sum(m) <= 3]
    assert all(packing.pack_exponents(x & packing.low) == x
               for x in map(packing.pack, small))


@pytest.mark.parametrize("bits", _WIDTHS)
@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_kept_mask_sums_the_kept_exponents(order, bits):
    packing = _packing(order, 4, bits)
    if not isinstance(order, Block):
        assert packing.kept is None
        return
    kept = [i not in order.eliminated for i in range(4)]
    for m in _seeded_lcms(packing, random.Random(f"kept/{order}/{bits}")):
        got = (_exponent_part(packing, m) & packing.kept) % packing.mask
        assert got == sum(e for e, k in zip(m, kept) if k), m


@pytest.mark.parametrize("bits", _WIDTHS)
@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_total_degree_below_the_limit_packs_and_at_it_overflows(order, bits):
    packing = _packing(order, 4, bits)
    top = packing.limit - 1
    for m in ((top, 0, 0, 0), (0, 1, top - 2, 1), (1, 0, 0, top - 1)):
        assert packing.pack_exponents(_exponent_part(packing, m)) == \
            packing.pack(m)
    for m in ((top + 1, 0, 0, 0), (1, 0, 0, top), (0, top, top, 0)):
        with pytest.raises(_PackingOverflow):
            packing.pack_exponents(_exponent_part(packing, m))


@pytest.mark.parametrize("bits", _WIDTHS)
def test_elimination_lcm_that_casts_out_to_zero_overflows(bits):
    """Two monomials that fit an elimination packing with total degree past
    its limit, whose lcm's total degree, 2**bits - 1, casts out to 0: only
    the guard bit of the row of the kept exponents shows the overflow."""
    packing = _packing(Block({0}), 3, bits)
    top = packing.limit - 1
    a, b, lcm = (top, 0, 1), (1, top, 0), (top, top, 1)
    assert _fits(packing, a) and _fits(packing, b) and not _fits(packing, lcm)
    assert sum(lcm) == packing.mask
    with pytest.raises(_PackingOverflow):
        packing.pack(lcm)
    with pytest.raises(_PackingOverflow):
        packing.pack_exponents(_exponent_part(packing, lcm))


@pytest.mark.parametrize("bits", _WIDTHS)
@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_seeded_lcms_reach_past_casting_out_under_elimination(order, bits):
    packing = _packing(order, 4, bits)
    lcms = _seeded_lcms(packing, random.Random(f"rows/{order}/{bits}"))
    wraps = any(sum(m) >= packing.mask for m in lcms)
    assert wraps == isinstance(order, Block)


def test_row_mask_off_by_one_field_is_caught():
    """Broken copies of the packing, outside the cache of ``_packing``,
    whose row masks take in the field next to the right one."""
    bits = _FIELD_BITS
    for order in _ORDERS:
        for shift in (lambda r: r << bits, lambda r: r >> bits):
            packing = _Packing(order, 4, bits)
            packing.rows = tuple((shift(row), s) for row, s in packing.rows)
            lcms = _seeded_lcms(packing,
                                random.Random(f"rows/{order}/{bits}"))
            assert _packing_mismatches(packing, lcms) > 0


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def test_division_textbook_example():
    R = PolyRing(("x", "y"), QQ)
    f = R.parse("x^2*y + x*y^2 + y^2")
    d1, d2 = R.parse("x*y - 1"), R.parse("y^2 - 1")
    qs, r = divide(f, (d1, d2), _GREVLEX)
    assert f == qs[0] * d1 + qs[1] * d2 + r
    assert r == R.parse("x + y + 1")


@pytest.mark.parametrize("domain", [QQ, GF(5)])
def test_division_reconstruction_random(domain):
    rng = random.Random(11)
    R = PolyRing(("x", "y"), domain)
    checked = 0
    while checked < 60:
        f = _random_poly(rng, R)
        ds = [g for g in (_random_poly(rng, R) for _ in range(2))
              if not g.is_zero()]
        if not ds:
            continue
        qs, r = divide(f, ds, _GREVLEX)
        assert f == sum((q * d for q, d in zip(qs, ds)), R.zero) + r
        leads = [d.lead_monomial(_GREVLEX) for d in ds]
        for m, _ in r.terms:
            assert not any(monomial_divides(lm, m) for lm in leads)
        checked += 1


def test_division_needs_divisors_and_rejects_zero_divisor():
    R = PolyRing(("x",), QQ)
    with pytest.raises(ValueError):
        divide(R.parse("x"), (), _GREVLEX)
    with pytest.raises(ValueError):
        divide(R.parse("x"), (R.zero,), _GREVLEX)


# ---------------------------------------------------------------------------
# the grammar
# ---------------------------------------------------------------------------

def test_parse_basic_forms():
    R = PolyRing(("t1", "t2"), QQ)
    assert R.parse("t1^2*t2 - 3") == R.from_dict({(2, 1): 1, (0, 0): -3})
    assert R.parse("-t1 + t2") == R.from_dict({(1, 0): -1, (0, 1): 1})
    assert R.parse("+t1") == R.variable(0)
    # a sign is only permitted at the very start of an expression
    with pytest.raises(ParseError):
        R.parse("t1 + -t2")
    assert R.parse("(t1 + t2)^2") == R.parse("t1^2 + 2*t1*t2 + t2^2")
    assert R.parse("2") == R.constant(2)
    assert R.parse("0").is_zero()


def test_parse_list_and_offsets():
    R = PolyRing(("x", "y"), QQ)
    fs = parse_polynomial_list("x^2, y - 1, x*y", R)
    assert [str(f) for f in fs] == ["x^2", "y - 1", "x*y"]
    # the error position is an offset into the whole list text
    with pytest.raises(ParseError) as info:
        parse_polynomial_list("x, y %", R)
    assert info.value.position == 5
    assert info.value.message == "unexpected character '%'"
    assert str(info.value) == "unexpected character '%' (column 6)"


@pytest.mark.parametrize("text,position", [
    ("x + @", 4),
    ("x ^", 3),
    ("x ^ y", 4),
    ("w", 0),
    ("x y", 2),
    ("(x", 2),
    ("", 0),
    ("x + ", 4),
    # integers and names are ASCII only
    ("é", 0),
    ("x²", 1),
    ("x + ٣", 4),
])
def test_parse_error_positions(text, position):
    R = PolyRing(("x", "y"), QQ)
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, R)
    assert info.value.position == position


@pytest.mark.parametrize("digits", [641, 700, 5000])
def test_parse_refuses_an_integer_of_more_than_640_digits(digits):
    """A literal, coefficient or exponent alike, of 640 digits parses,
    which ``int`` converts under any ``-X int_max_str_digits``; a longer
    one is refused at its column before ``int`` sees it, in a message that
    echoes no digit of it."""
    R = PolyRing(("x", "y"), QQ)
    assert R.parse("9" * 640) == R.constant(int("9" * 640))
    assert R.parse("x^" + "0" * 639 + "7") == R.parse("x^7")
    long = "9" * digits
    for text, position in [(long, 0), (f"{long}*x", 0), (f"y + x^{long}", 6),
                           (f"x^2 - {long}*y", 6)]:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, R)
        assert (info.value.message, info.value.position) == (
            "integer of more than 640 digits", position)
        assert "9" not in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_polynomial_list(f"x, y^{long}", R)
    assert info.value.position == 5


def test_parse_nesting_limit():
    R = PolyRing(("x", "y"), QQ)
    deep = "(" * 100 + "x + y" + ")" * 100
    assert parse_polynomial(deep, R) == R.parse("x + y")
    # the 101st "(" is refused at its own column, wherever the parser's
    # recursion would have ended
    text = "y*" + "(" * 101 + "x" + ")" * 101
    with pytest.raises(ParseError, match="nested too deeply") as info:
        parse_polynomial(text, R)
    assert info.value.position == 2 + 100
    # depth is what counts, not the number of parentheses
    assert parse_polynomial(" + ".join(["(x)"] * 150), R) == R.parse("150*x")


def test_parse_product_cap(monkeypatch):
    R = PolyRing(("x", "y"), QQ)
    # squaring (x+y)^128, 129 terms, is the first product past the cap
    with pytest.raises(ResourceCapError, match="66049 term pairs"):
        parse_polynomial("(x+y)^2400", R)
    # 27 squarings of one term, in about a millisecond
    start = time.perf_counter()
    f = parse_polynomial("x^100000000+y", R)
    assert time.perf_counter() - start < 0.5
    assert f == R.monomial((100000000, 0)) + R.variable("y")
    monkeypatch.setattr(polycore, "PRODUCT_CAP", 6)
    assert parse_polynomial("(x+y)*(x+y+1)", R) == R.parse("(x+y)^2+x+y")
    for text in ("(x+y+1)*(x+y+1)", "(x+y+1)^2", "(x+y+1)^3"):
        with pytest.raises(ResourceCapError, match="9 term pairs"):
            parse_polynomial(text, R)


@pytest.mark.parametrize("domain", [QQ, GF(2), GF(7)])
def test_str_parse_round_trip_on_grammar_expressible(domain):
    # integer (and residue) coefficients are exactly what the grammar can
    # write back; fractional output is covered by the rendering test below
    rng = random.Random(7)
    R = PolyRing(("x", "y", "z"), domain)
    for _ in range(120):
        f = _random_poly(rng, R)
        assert parse_polynomial(str(f), R) == f


def _digits(n: int) -> str:
    """n >= 0 in decimal, one digit at a time: the reference of
    ``polycore._decimal``, bound by no ``int_max_str_digits``."""
    out = []
    while True:
        n, d = divmod(n, 10)
        out.append("0123456789"[d])
        if not n:
            return "".join(reversed(out))


def test_long_ints_are_written_in_pieces_under_any_digit_limit():
    """Every value, a piece boundary, zeros inside a piece and numbers of
    thousands of digits among them, is written as its decimal digits in
    a process under ``-X int_max_str_digits=640`` too; a coefficient of
    2,000 digits renders, over QQ as an int and as a numerator and a
    denominator."""
    chunk = 10 ** 600
    values = [0, 7, 10 ** 599, chunk - 1, chunk, chunk + 1, 5 * chunk ** 2 + 3,
              chunk ** 3 - 1, 7 ** 2000]
    for n in values:
        assert polycore._decimal(n) == _digits(n)
    R = PolyRing(("x",), QQ)
    big = 3 ** 4200                  # 2,004 digits
    f = R.from_dict({(1,): big, (0,): Fraction(-1, big)})
    assert str(f) == f"{_digits(big)}*x - 1/{_digits(big)}"


def test_signs_and_exponents_are_written_in_pieces_too():
    """``_decimal`` writes a negative int with its sign, and a value below
    10^600 as ``str`` does; a polynomial's exponents go through it, so an
    exponent of 5,000 digits renders under any digit limit."""
    chunk = 10 ** 600
    for n in [-7, -(chunk - 1), -chunk, -(7 ** 2000), -(chunk ** 2 + 1)]:
        assert polycore._decimal(n) == "-" + _digits(-n)
    assert polycore._decimal(-(chunk - 1)) == "-" + "9" * 600
    R = PolyRing(("x", "y"), QQ)
    big = 10 ** 5000
    f = R.monomial((big, 2)) - R.monomial((0, big - 1))
    assert str(f) == f"x^{_digits(big)}*y^2 - y^{_digits(big - 1)}"


def test_fraction_rendering_is_stable():
    R = PolyRing(("x", "y"), QQ)
    f = R.from_dict({(2, 0): Fraction(1, 2), (0, 1): -1, (0, 0): 3})
    assert str(f) == "1/2*x^2 - y + 3"
    assert str(R.zero) == "0"
    assert str(R.parse("x - y")) == "x - y"
