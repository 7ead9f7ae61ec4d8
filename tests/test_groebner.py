"""Groebner engine: reduced bases frozen against hand-checked values, the
ideal calculus (intersection, colon, saturation, radical membership), and
invariance under generator order and under the first-in, first-out pair
selection of ``FifoEngine`` (``tests/conftest.py``)."""
from __future__ import annotations

import random

import pytest

from veronese import groebner, polycore
from veronese.groebner import (
    GroebnerBasis, Ideal, _least_power_member, buchberger, colon,
    colon_ideal, eliminate, ideal_equal, ideal_member, ideal_sum,
    initial_ideal, intersect, normal_form, radical_member, saturate,
)
from veronese.polycore import Block, GF, GrevLex, Lex, PolyRing, QQ, divide

_GREVLEX = GrevLex()


def _ideal(ring, *texts):
    return Ideal(ring, tuple(ring.parse(t) for t in texts))


def _quartic_ideal():
    R = PolyRing(("t1", "t2", "t3", "t4"), QQ)
    return _ideal(R, "t2*t3 - t1*t4", "t2^3 - t1^2*t3",
                  "t3^3 - t2*t4^2", "t1*t3^2 - t2^2*t4")


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

def test_lex_basis_textbook_pair():
    R = PolyRing(("x", "y"), QQ)
    gb = buchberger(_ideal(R, "x*y - 1", "y^2 - 1"), Lex())
    assert [str(g) for g in gb.elements] == ["y^2 - 1", "x - y"]


def test_reduced_basis_is_canonical():
    R = PolyRing(("x", "y", "z"), QQ)
    gens = ["x^2 + y", "x*y - z", "y^3 - 2*z^2"]
    base = buchberger(_ideal(R, *gens))
    for seed in range(6):
        shuffled = gens[:]
        random.Random(seed).shuffle(shuffled)
        again = buchberger(_ideal(R, *shuffled))
        assert again.elements == base.elements
    # reduced: every element monic, no term divisible by another lead
    leads = [g.lead_monomial(_GREVLEX) for g in base.elements]
    for i, g in enumerate(base.elements):
        assert g.coefficient(g.lead_monomial(_GREVLEX)) == 1
        for m, _ in g.terms:
            for j, lm in enumerate(leads):
                if i != j:
                    assert not all(a >= b for a, b in zip(m, lm)) or m == (0,) * 3


def test_strategy_invariance(fifo, engine_counts):
    """The first-in, first-out engine gives the same bases; on the second
    input it forms another number of S-polynomials."""
    R = PolyRing(("x", "y", "z", "w"), QQ)
    cases = [(_quartic_ideal(), _GREVLEX),
             (_ideal(R, "x^2 - y*z", "y^2 - x*z", "z^2 - x*y*w",
                     "x*w - z^2 + y"), Lex())]
    spolys = []
    for ideal, order in cases:
        before = engine_counts["_spoly"]
        expected = buchberger(ideal, order).elements
        normal = engine_counts["_spoly"] - before
        assert fifo(buchberger, ideal, order).elements == expected
        spolys.append((normal, engine_counts["_spoly"] - before - normal))
    assert spolys[1][0] != spolys[1][1]


def test_quartic_basis_and_initial_ideal():
    I = _quartic_ideal()
    gb = buchberger(I)
    assert sorted(str(g) for g in gb.elements) == [
        "t1*t3^2 - t2^2*t4", "t2*t3 - t1*t4", "t2^3 - t1^2*t3",
        "t3^3 - t2*t4^2"]
    assert sorted(str(g) for g in initial_ideal(I).generators) == [
        "t1*t3^2", "t2*t3", "t2^3", "t3^3"]


def test_zero_and_unit_ideals():
    R = PolyRing(("x",), QQ)
    z = Ideal(R, ())
    assert z.is_zero()
    assert buchberger(z).elements == ()
    assert not ideal_member(R.parse("x"), buchberger(z))
    unit = _ideal(R, "2")
    assert [str(g) for g in buchberger(unit).elements] == ["1"]


def test_the_zero_ideal_through_the_general_code():
    """The empty basis leaves every polynomial as it is, and eliminating
    from or intersecting with the zero ideal gives the zero ideal, in the
    smaller ring for an elimination."""
    R = PolyRing(("x", "y", "z"), GF(5))
    zero = Ideal(R, ())
    f = R.parse("x^2*y + 3*z^3 - y + 2")
    for order in (GrevLex(), Lex(), Block({0})):
        assert normal_form(f, buchberger(zero, order)) == f
        assert normal_form(R.zero, buchberger(zero, order)) == R.zero
    assert eliminate(zero, {1}) == Ideal(PolyRing(("x", "z"), GF(5)), ())
    other = _ideal(R, "x*y - z^2", "x^3")
    for a, b in ((zero, other), (other, zero), (zero, zero)):
        assert intersect(a, b) == zero


def test_normal_form_and_membership():
    I = _quartic_ideal()
    R = I.ring
    gb = buchberger(I)
    f = R.parse("t2*t3 - t1*t4 + t1^2")
    assert normal_form(f, gb) == R.parse("t1^2")
    assert ideal_member(R.parse("(t2*t3 - t1*t4)*(t1 + t3^2)"), gb)
    assert not ideal_member(R.parse("t1"), gb)
    assert normal_form(R.zero, gb).is_zero()


def test_mixed_ring_rejected():
    R = PolyRing(("x",), QQ)
    S = PolyRing(("x",), GF(3))
    with pytest.raises(ValueError):
        Ideal(R, (S.parse("x"),))
    with pytest.raises(ValueError):
        ideal_member(S.parse("x"), buchberger(_ideal(R, "x^2")))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def test_eliminate_conic_relation():
    # eliminate drops the chosen variables: the result lives in the subring
    R = PolyRing(("x1", "x2", "t1", "t2", "t3"), QQ)
    I = _ideal(R, "t1 - x1^2", "t2 - x1*x2", "t3 - x2^2")
    J = eliminate(I, {0, 1})
    assert J.ring.names == ("t1", "t2", "t3")
    assert ideal_equal(J, _ideal(J.ring, "t2^2 - t1*t3"))

    # degenerate: two coincident targets force a linear relation
    R2 = PolyRing(("x", "t1", "t2"), QQ)
    I2 = _ideal(R2, "t1 - x^2", "t2 - x^2")
    J2 = eliminate(I2, {0})
    assert ideal_member(J2.ring.parse("t1 - t2"), buchberger(J2))


def test_eliminate_validates_indices():
    R = PolyRing(("x", "y"), QQ)
    I = _ideal(R, "x - y")
    with pytest.raises(ValueError):
        eliminate(I, {2})
    with pytest.raises(ValueError):
        eliminate(I, {0, 1})


def test_buchberger_refuses_block_orders_outside_the_ring(groebner_caches):
    """An eliminated index past the ring's variables is refused before any
    cache is consulted, as ``eliminate`` refuses it."""
    R = PolyRing(("x", "y"), QQ)
    binomial = _ideal(R, "x^2 - y")
    general = _ideal(R, "x^2 - y + 1")
    for order in (Block({5}), Block({2}), Block({0, 2})):
        for ideal in (binomial, general):
            with pytest.raises(ValueError, match="out of range"):
                buchberger(ideal, order)
    assert groebner._buchberger_cached.cache_info().misses == 0
    # the largest indices in range still run
    assert buchberger(binomial, Block({1})).elements \
        == (R.parse("y - x^2"),)
    assert buchberger(general, Block({0})).elements \
        == buchberger(general, Lex()).elements


@pytest.mark.parametrize("entry", [
    lambda f, order: f.lead_monomial(order),
    lambda f, order: divide(f, [f.ring.variable(0)], order),
    lambda f, order: buchberger(Ideal(f.ring, (f,)), order),
    lambda f, order: initial_ideal(Ideal(f.ring, (f,)), order),
    lambda f, order: polycore._Packing(order, f.ring.arity, 8),
], ids=["lead_monomial", "divide", "buchberger", "initial_ideal", "packing"])
def test_every_entry_refuses_a_block_index_past_the_ring(entry):
    """``Block({4})`` in a ring of four variables, whose key would read as
    grevlex there, is refused by each entry that takes an order, as
    ``buchberger`` refuses it; the last index in range still runs.  (An
    index in range meant for another ring cannot be told apart.)"""
    R = PolyRing(("a", "b", "c", "d"), QQ)
    f = R.parse("b*c - a*d")
    with pytest.raises(ValueError, match="eliminated index out of range"):
        entry(f, Block({R.arity}))
    with pytest.raises(ValueError, match="eliminated index out of range"):
        entry(f, Block({0, R.arity}))
    entry(f, Block({R.arity - 1}))
    assert f.lead_monomial(Block({0})) == (1, 0, 0, 1)


# ---------------------------------------------------------------------------
# ideal calculus
# ---------------------------------------------------------------------------

def test_intersect_principal_ideals():
    R = PolyRing(("x", "y"), QQ)
    J = intersect(_ideal(R, "x"), _ideal(R, "y"))
    assert ideal_equal(J, _ideal(R, "x*y"))


def test_colon_and_saturation():
    R = PolyRing(("x", "y"), QQ)
    I = _ideal(R, "x^2", "x*y")
    assert ideal_equal(colon(I, R.parse("x")), _ideal(R, "x", "y"))
    assert ideal_equal(colon_ideal(I, _ideal(R, "x")), _ideal(R, "x", "y"))
    assert ideal_equal(saturate(_ideal(R, "x^2*y"), R.parse("x")),
                       _ideal(R, "y"))
    # saturating by a unit leaves the ideal alone
    assert ideal_equal(saturate(I, R.parse("1")), I)
    with pytest.raises(ValueError):
        colon(I, R.zero)
    with pytest.raises(ValueError):
        saturate(I, R.zero)


def test_colon_is_stable_once_saturated():
    R = PolyRing(("x", "y", "z"), QQ)
    I = _ideal(R, "x^2*z", "x*y^2")
    f = R.parse("x")
    S = saturate(I, f)
    assert ideal_equal(colon(S, f), S)


def test_ideal_sum_and_equality():
    R = PolyRing(("x", "y"), QQ)
    a = _ideal(R, "x")
    b = _ideal(R, "y")
    s = ideal_sum(a, b)
    assert ideal_equal(s, _ideal(R, "x + y", "x - y"))
    assert not ideal_equal(a, b)


# ---------------------------------------------------------------------------
# radical membership
# ---------------------------------------------------------------------------

def test_radical_membership_with_least_exponent():
    I = _quartic_ideal()
    R = I.ring
    vertex = ideal_sum(I, _ideal(R, "t1", "t4"))
    assert radical_member(R.parse("t1"), vertex) == (True, 1)
    assert radical_member(R.parse("t2"), vertex) == (True, 3)
    assert radical_member(R.parse("t3"), vertex) == (True, 3)
    assert radical_member(R.parse("t2 - 1"), vertex) == (False, None)
    # the returned exponent really is least: t2^2 stays outside
    gb = buchberger(vertex)
    assert not ideal_member(R.parse("t2^2"), gb)
    assert ideal_member(R.parse("t2^3"), gb)


def test_radical_membership_unit_and_zero_cases():
    R = PolyRing(("x",), QQ)
    assert radical_member(R.parse("x"), _ideal(R, "1")) == (True, 1)
    assert radical_member(R.parse("x"), Ideal(R, ())) == (False, None)
    with pytest.raises(ValueError):
        radical_member(R.zero, _ideal(R, "x"))


@pytest.mark.parametrize("domain", [QQ, GF(5)])
def test_radical_membership_over_both_characteristics(domain):
    R = PolyRing(("x", "y"), domain)
    I = _ideal(R, "x^2", "y^3")
    assert radical_member(R.parse("x*y"), I) == (True, 2)
    assert radical_member(R.parse("x + y"), I) == (True, 4)


def _least_power_by_ascent(f, gb):
    """Reference: the first of f, f^2, f^3, ... whose normal form is 0."""
    e, g = 1, normal_form(f, gb)
    while not g.is_zero():
        e, g = e + 1, normal_form(g * f, gb)
    return e


def _random_form(rng, R, degree):
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * R.arity
        for _ in range(degree):
            exps[rng.randrange(R.arity)] += 1
        terms.append(rng.choice((1, -1)) * R.monomial(exps))
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize("domain", [QQ, GF(2), GF(3), GF(5)])
def test_least_power_member_matches_ascent(domain):
    """Seeded m-primary ideals (a pure power of every variable, plus up to
    two random forms) and forms f without constant term, so that some power
    of f lies in the ideal; witnesses run up to about 40."""
    rng = random.Random(f"least power {domain}")
    R3 = PolyRing(("x", "y", "z"), domain)
    cases = [(R3.parse("x + y + z"),
              buchberger(_ideal(R3, "x^14", "y^14", "z^14")))]
    for _ in range(40):
        R = PolyRing(("x", "y", "z")[:rng.randint(1, 3)], domain)
        gens = [R.monomial([rng.randint(1, 14) if j == i else 0
                            for j in range(R.arity)])
                for i in range(R.arity)]
        gens += [_random_form(rng, R, rng.randint(2, 4))
                 for _ in range(rng.randint(0, 2))]
        f = _random_form(rng, R, rng.randint(1, 2))
        cases.append((f, buchberger(Ideal(R, tuple(gens)))))
    witnesses = []
    for f, gb in cases:
        e = _least_power_member(f, gb)
        assert e == _least_power_by_ascent(f, gb), (f, gb.elements)
        witnesses.append(e)
    assert max(witnesses) >= 16          # five or more bits exercised


def test_least_power_member_refuses_past_two_to_the_twenty():
    R = PolyRing(("x",), QQ)
    x = R.variable(0)
    assert _least_power_member(x, buchberger(Ideal(R, (x ** (1 << 20),)))) \
        == 1 << 20
    with pytest.raises(RuntimeError, match="out of range"):
        _least_power_member(x, buchberger(Ideal(R, (x ** ((1 << 20) + 1),))))
