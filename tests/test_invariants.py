"""Dimension and graded-piece bookkeeping: Krull dimension via independent
brute force over coordinate subspaces, and the graded duality between top
local cohomology of a polynomial ring and its Hilbert function."""
from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from veronese.groebner import Ideal, buchberger, initial_ideal
from veronese.invariants import (
    DimensionResult, GradedPiece, dim_monomial, hilbert_piece, krull_dim,
    lc_top_piece, veronese_lc_piece,
)
from veronese.polycore import GF, Lex, PolyRing, QQ, ResourceCapError
from veronese.toric import (
    MonomialMap, toric_ideal_elimination, toric_ideal_lattice,
    veronese_map,
)


def _ideal(ring, *texts):
    return Ideal(ring, tuple(ring.parse(t) for t in texts))


# ---------------------------------------------------------------------------
# monomial-ideal dimension against an independent brute force
# ---------------------------------------------------------------------------

def _bruteforce_dim(arity, lead_monomials):
    """Largest coordinate subspace avoiding every lead monomial: a subset S of
    variables works when no generator is supported entirely inside S."""
    best = -1
    for size in range(arity, -1, -1):
        for keep in combinations(range(arity), size):
            kept = set(keep)
            if all(any(m[i] > 0 for i in range(arity) if i not in kept)
                   for m in lead_monomials):
                return size
    return best


@pytest.mark.parametrize("arity,texts", [
    (3, ("x1*x2", "x1*x3")),
    (3, ("x1", "x2", "x3")),
    (4, ("x1*x2", "x3*x4")),
    (4, ("x1^2", "x2*x3", "x2*x4")),
    (2, ("x1^3",)),
])
def test_dim_monomial_matches_bruteforce(arity, texts):
    R = PolyRing(tuple(f"x{i+1}" for i in range(arity)), QQ)
    I = _ideal(R, *texts)
    expect = _bruteforce_dim(arity, [f.terms[0][0] for f in I.generators])
    res = dim_monomial(I)
    assert isinstance(res, DimensionResult)
    assert res.dimension == expect
    assert res.height == arity - expect


def test_dim_monomial_rejects_bad_input():
    R = PolyRing(("x", "y"), QQ)
    with pytest.raises(ValueError):
        dim_monomial(Ideal(R, ()))               # zero ideal: not monomial data
    with pytest.raises(ValueError):
        dim_monomial(_ideal(R, "x + y"))          # not a monomial ideal
    big = PolyRing(tuple(f"x{i}" for i in range(1, 22)), QQ)
    with pytest.raises(ResourceCapError):
        dim_monomial(Ideal(big, (big.variable(0) * big.variable(1),)))


# ---------------------------------------------------------------------------
# Krull dimension of quotient rings
# ---------------------------------------------------------------------------

def test_krull_dim_zero_ideal_is_whole_ring():
    R = PolyRing(("x", "y", "z"), QQ)
    res = krull_dim(Ideal(R, ()))
    assert (res.dimension, res.height) == (3, 0)


def test_krull_dim_rejects_unit_ideal():
    R = PolyRing(("x",), QQ)
    with pytest.raises(ValueError):
        krull_dim(_ideal(R, "1"))


def test_krull_dim_refuses_over_the_arity_cap_before_any_groebner_run(
        monkeypatch):
    def no_groebner_run(*args, **kwargs):
        raise AssertionError("initial_ideal called over the arity cap")

    monkeypatch.setattr("veronese.invariants.initial_ideal", no_groebner_run)
    big = PolyRing(tuple(f"x{i}" for i in range(1, 22)), QQ)
    with pytest.raises(ResourceCapError, match="arity 21"):
        krull_dim(Ideal(big, (big.variable(0) * big.variable(1),)))


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_veronese_quotients_have_dimension_k(k, n):
    res = krull_dim(toric_ideal_lattice(veronese_map(k, n)))
    d = comb(k + n - 1, n)
    assert res.dimension == k
    assert res.height == d - k


def test_quartic_curve_dimension():
    I = toric_ideal_elimination(
        MonomialMap(((4, 0), (3, 1), (1, 3), (0, 4))))
    res = krull_dim(I)
    assert (res.dimension, res.height) == (2, 2)


def test_krull_dim_is_order_independent():
    I = toric_ideal_lattice(veronese_map(2, 3))
    a = krull_dim(I)
    b = dim_monomial(initial_ideal(I, Lex()))
    assert (a.dimension, a.height) == (b.dimension, b.height)


@pytest.mark.parametrize("domain", [QQ, GF(2), GF(7)])
def test_hypersurface_dimension_all_characteristics(domain):
    R = PolyRing(("x", "y", "z"), domain)
    res = krull_dim(_ideal(R, "x^3 + y^3 + z^3" if domain.characteristic != 3
                           else "x^3 + y^3 + x*y*z"))
    assert (res.dimension, res.height) == (2, 1)


def test_krull_dim_agrees_with_initial_ideal():
    I = toric_ideal_lattice(veronese_map(3, 2))
    res = krull_dim(I)
    lead = dim_monomial(initial_ideal(I))
    assert (res.dimension, res.height) == (lead.dimension, lead.height)


# ---------------------------------------------------------------------------
# Hilbert pieces and top local cohomology of a polynomial ring
# ---------------------------------------------------------------------------

def test_hilbert_piece_values():
    assert [hilbert_piece(2, m) for m in range(5)] == [1, 2, 3, 4, 5]
    assert [hilbert_piece(3, m) for m in range(5)] == [1, 3, 6, 10, 15]
    assert hilbert_piece(1, 7) == 1
    assert hilbert_piece(4, -2) == 0
    with pytest.raises(ValueError):
        hilbert_piece(0, 1)


def test_lc_top_piece_values():
    p = lc_top_piece(2, -2)
    assert isinstance(p, GradedPiece)
    assert (p.index, p.degree, p.dimension) == (2, -2, 1)
    assert lc_top_piece(2, -3).dimension == 2
    assert lc_top_piece(3, -3).dimension == 1
    assert lc_top_piece(3, -5).dimension == comb(4, 2)
    # vanishing above the socle degree
    assert lc_top_piece(2, -1).dimension == 0
    assert lc_top_piece(2, 0).dimension == 0
    assert lc_top_piece(4, -3).dimension == 0


def test_graded_duality_130_cases():
    checked = 0
    for k in range(1, 6):
        for j in range(-20, 6):
            assert lc_top_piece(k, j).dimension == hilbert_piece(k, -j - k), \
                (k, j)
            checked += 1
    assert checked == 130


# ---------------------------------------------------------------------------
# graded pieces for Veronese subrings
# ---------------------------------------------------------------------------

def test_veronese_lc_vanishes_below_top_index():
    for i in range(0, 2):
        for j in range(-6, 3):
            assert veronese_lc_piece(2, 4, i, j).dimension == 0


def test_veronese_lc_top_index_restricts_degrees():
    # the n-th Veronese keeps exactly the degrees divisible by n
    assert veronese_lc_piece(2, 4, 2, -1).dimension == lc_top_piece(2, -4).dimension == 3
    assert veronese_lc_piece(2, 4, 2, -2).dimension == lc_top_piece(2, -8).dimension == 7
    assert veronese_lc_piece(2, 4, 2, 0).dimension == 0
    assert veronese_lc_piece(3, 2, 3, -2).dimension == lc_top_piece(3, -4).dimension == 3


def test_veronese_lc_piece_validation():
    with pytest.raises(ValueError):
        veronese_lc_piece(0, 2, 0, 0)
    with pytest.raises(ValueError):
        veronese_lc_piece(2, 0, 2, 0)
    with pytest.raises(ValueError):
        veronese_lc_piece(2, 2, -1, 0)
