"""Monomial-algebra presentations: the two construction routes agree, frozen
generator sets for the standard fixtures, integer lattice helpers, and the
localized complete-intersection reports."""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product
from math import comb, gcd

import pytest

from veronese import toric
from veronese.groebner import Ideal, buchberger, ideal_equal, ideal_member
from veronese.invariants import krull_dim
from veronese.polycore import GF, PolyRing, QQ
from veronese.toric import (
    MonomialMap, _integer_row_reduce, _veronese_targets, _lattice_index, ci_check, ci_sequence,
    integer_kernel, minimal_generators, symmetric_minors_ideal,
    toric_ideal_elimination, toric_ideal_lattice, veronese_map,
)

QUARTIC = ((4, 0), (3, 1), (1, 3), (0, 4))


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def test_veronese_targets_enumerate_all_degree_n_monomials():
    assert veronese_map(2, 2).targets == ((2, 0), (1, 1), (0, 2))
    assert veronese_map(2, 3).targets == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert veronese_map(3, 2).targets == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    m = veronese_map(2, 4)
    assert m.k == 2 and m.d == 5
    assert m.veronese_degree() == 4 and m.common_degree() == 4
    assert m.source_ring().names == ("t1", "t2", "t3", "t4", "t5")
    assert m.target_ring().names == ("x1", "x2")


@pytest.mark.parametrize("k", range(1, 6))
def test_veronese_targets_are_the_sorted_enumeration(k):
    """Every degree-n exponent vector in k variables, lex-descending, as a
    sort of the brute-force enumeration gives them."""
    for n in range(1, 6):
        every = [e for e in product(range(n + 1), repeat=k) if sum(e) == n]
        assert _veronese_targets(k, n) == tuple(sorted(every, reverse=True))


def test_veronese_degree_counts_without_enumerating(monkeypatch):
    """The degree comes from C(k+n-1, n) and the order alone: no degree-n
    monomial is listed, so a degree of 20 digits or of 30,000 is decided
    at once; a Veronese map out of its lex-descending order, or one
    monomial short, is not one."""
    maps = [veronese_map(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]

    def refused(k, n):
        raise AssertionError("enumerated")

    monkeypatch.setattr(toric, "_veronese_targets", refused)
    assert [m.veronese_degree() for m in maps] == [1, 2, 3] * 3
    assert MonomialMap([(10 ** 19,)]).veronese_degree() == 10 ** 19
    assert MonomialMap([(30000, 0), (0, 30000)]).veronese_degree() is None
    assert MonomialMap(maps[4].targets[::-1]).veronese_degree() is None
    assert MonomialMap(maps[8].targets[1:]).veronese_degree() is None


def test_veronese_validates_arguments():
    for k, n in ((0, 2), (2, 0), (-1, 3)):
        with pytest.raises(ValueError):
            veronese_map(k, n)


def test_monomial_algebra_map_validation():
    with pytest.raises(ValueError):
        MonomialMap([])
    with pytest.raises(ValueError):
        MonomialMap([(1, 0), (0, -1)])
    with pytest.raises(ValueError):
        MonomialMap([(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        MonomialMap([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        MonomialMap([(0, 0)])


def test_map_substitution():
    m = MonomialMap(QUARTIC)
    S = m.source_ring()
    f = S.parse("t2*t3 - t1*t4")
    assert m.substitute(f).is_zero()
    g = m.substitute(S.parse("t1 + t4"))
    assert str(g) == "x1^4 + x2^4"
    assert m.common_degree() == 4 and m.veronese_degree() is None


def test_substitution_keeps_the_field_of_its_input():
    """Over GF(5) the kernel element maps to 0 in GF(5)[x1, x2], not to
    5*x1^4*x2^4 over QQ."""
    m = MonomialMap(QUARTIC)
    S = m.source_ring(GF(5))
    image = m.substitute(S.parse("t2*t3 - t1*t4"))
    assert image.is_zero() and image.ring == m.target_ring(GF(5))
    assert m.substitute(S.parse("t1 + 6*t4")) \
        == m.target_ring(GF(5)).parse("x1^4 + x2^4")


@pytest.mark.parametrize("names", [("t1", "t2", "t3"),
                                   ("t1", "t2", "t3", "t4", "t5")])
def test_substitution_refuses_a_ring_of_another_arity(names):
    R = PolyRing(names, QQ)
    with pytest.raises(ValueError, match="4"):
        MonomialMap(QUARTIC).substitute(R.parse("t1*t2"))


# ---------------------------------------------------------------------------
# presentation ideals: two routes, one answer
# ---------------------------------------------------------------------------

def test_quartic_presentation_frozen_generators():
    I = toric_ideal_elimination(MonomialMap(QUARTIC))
    assert sorted(str(g) for g in I.generators) == [
        "t1*t3^2 - t2^2*t4", "t2*t3 - t1*t4",
        "t2^3 - t1^2*t3", "t3^3 - t2*t4^2"]


@pytest.mark.parametrize("targets", [
    QUARTIC,
    ((2, 0), (1, 1), (0, 2)),
    ((3, 0), (2, 1), (1, 2), (0, 3)),
    ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)),
    ((1, 0), (1, 1), (1, 2)),               # non-homogeneous targets
    ((2,), (3,)),                            # numerical semigroup <2,3>
])
def test_routes_agree(targets):
    m = MonomialMap(targets)
    assert ideal_equal(toric_ideal_elimination(m), toric_ideal_lattice(m))


@pytest.mark.parametrize("domain", [GF(2), GF(5)])
def test_routes_agree_in_positive_characteristic(domain):
    m = MonomialMap(QUARTIC)
    a = toric_ideal_elimination(m, domain)
    b = toric_ideal_lattice(m, domain)
    assert a.ring.domain is domain
    assert ideal_equal(a, b)


def test_numerical_semigroup_cusp():
    I = toric_ideal_elimination(MonomialMap(((2,), (3,))))
    assert ideal_equal(I, Ideal(I.ring, (I.ring.parse("t2^2 - t1^3"),)))


# ---------------------------------------------------------------------------
# integer lattice helpers
# ---------------------------------------------------------------------------

def test_integer_kernel_frozen_bases():
    assert integer_kernel(QUARTIC) == [(0, 1, -3, 2), (1, 0, -4, 3)]
    assert integer_kernel(((2, 0), (1, 1), (0, 2))) == [(1, -2, 1)]
    assert integer_kernel(((1, 0), (0, 1))) == []
    assert integer_kernel(((2,), (3,))) == [(3, -2)]


def test_integer_kernel_membership_is_exact():
    rows = QUARTIC
    for v in integer_kernel(rows):
        combo = [sum(c * r[j] for c, r in zip(v, rows))
                 for j in range(len(rows[0]))]
        assert combo == [0, 0]


def test_integer_kernel_vectors_are_primitive_and_sign_normalized():
    """Over a seeded grid of integer matrices each kernel vector lies in the
    kernel, has coprime entries and a positive first nonzero entry, and
    there are as many as the corank."""
    rng = random.Random(42)
    for _ in range(600):
        d, k = rng.randint(1, 7), rng.randint(1, 4)
        rows = [[rng.randint(-5, 7) for _ in range(k)] for _ in range(d)]
        kernel = integer_kernel(rows)
        assert len(kernel) == d - _integer_row_reduce(rows)[2]
        for v in kernel:
            assert [sum(c * r[j] for c, r in zip(v, rows))
                    for j in range(k)] == [0] * k
            assert gcd(*v) == 1
            assert next(e for e in v if e) > 0


@lru_cache(maxsize=1)
def _echelon(rows):
    return _integer_row_reduce(rows)


def integer_solve(rows, target):
    """Integer vector z with sum z_i rows[i] = target, or None if the target
    is outside the row lattice: the reference of ``_lattice_index``.
    Forward substitution on the echelon form is complete: each pivot column
    forces its coefficient, so a divisibility failure or a nonzero residual
    certifies non-membership, and a solution is re-verified.  The echelon
    form of the last rows is kept, as it is read for each target."""
    rows = tuple(map(tuple, rows))
    k = len(rows[0])
    H, U, r = _echelon(rows)
    resid = list(target)
    y = [0] * r
    for i in range(r):
        c = next(j for j in range(k) if H[i][j] != 0)
        if resid[c] % H[i][c] != 0:
            return None
        y[i] = resid[c] // H[i][c]
        resid = [a - y[i] * b for a, b in zip(resid, H[i])]
    if any(resid):
        return None
    z = [sum(y[i] * U[i][j] for i in range(r)) for j in range(len(rows))]
    assert [sum(c * row[j] for c, row in zip(z, rows))
            for j in range(k)] == list(target)
    return tuple(z)


def test_lattice_index_reads_the_index_of_the_row_lattice():
    assert _lattice_index(QUARTIC) == 4
    assert _lattice_index(((2, 0), (0, 2))) == 4
    assert _lattice_index(((2, 1), (1, 1))) == 1
    assert _lattice_index(((1, 1, 0), (0, 1, 1))) is None
    assert _lattice_index(((3,),)) == 3


def test_lattice_index_decides_as_every_missing_monomial_solves():
    """On seeded subsets of the degree-n monomials in k <= 4 variables,
    n <= 6, the targets span the lattice of the degree-n monomials (index
    n) exactly when every missing degree-n monomial is an integer
    combination of them."""
    rng = random.Random(20261020)
    outcomes = []
    for _ in range(4000):
        k, n = rng.randint(1, 4), rng.randint(1, 6)
        monomials = veronese_map(k, n).targets
        targets = rng.sample(monomials, rng.randint(1, len(monomials)))
        solvable = all(integer_solve(targets, v) is not None
                       for v in monomials if v not in targets)
        assert (_lattice_index(targets) == n) == solvable, (targets, n)
        outcomes.append(solvable)
    assert outcomes.count(False) > 500 and outcomes.count(True) > 500


# ---------------------------------------------------------------------------
# minimal generators
# ---------------------------------------------------------------------------

def test_minimal_generators_of_twisted_cubic():
    I = toric_ideal_elimination(veronese_map(2, 3))
    assert sorted(str(g) for g in minimal_generators(I)) == [
        "t2*t3 - t1*t4", "t2^2 - t1*t3", "t3^2 - t2*t4"]


def test_minimal_generators_prune_redundancy():
    R = PolyRing(("x", "y", "z"), QQ)
    I = Ideal(R, (R.parse("x"), R.parse("x*y"), R.parse("x*z + x*y"),
                  R.parse("y - x")))
    mg = minimal_generators(I)
    assert len(mg) == 2
    assert ideal_equal(Ideal(R, tuple(mg)), I)
    # the pruner is graded-only; mixed-degree input is rejected loudly
    with pytest.raises(ValueError):
        minimal_generators(Ideal(R, (R.parse("x^3 + x"),)))


# ---------------------------------------------------------------------------
# localized complete intersections
# ---------------------------------------------------------------------------

def test_ci_sequence_twisted_cubic_at_first_vertex():
    m = veronese_map(2, 3)
    inv, cands = ci_sequence(m, 0)
    assert inv == 0
    assert [str(c) for c in cands] == ["-t2^2 + t1*t3", "-t2^3 + t1^2*t4"]
    I = toric_ideal_lattice(m)
    height = krull_dim(I).height
    rep = ci_check(I, cands, inv, height)
    assert rep.alpha_denominators == (1, 2)
    assert rep.verified is True
    # checked after inverting t2 instead, the report names t2
    rep = ci_check(I, cands, 1, height)
    assert rep.inverted == 1 and rep.alpha_denominators == (2, 3)


def test_ci_sequence_validates_pure_power_index():
    m = veronese_map(2, 3)
    with pytest.raises(ValueError):
        ci_sequence(m, 2)
    with pytest.raises(ValueError):
        ci_sequence(m, -1)


@pytest.mark.parametrize("targets,j,match", [
    # the (2,3) Veronese targets out of lex order: the closed form of the
    # first and last entries no longer matches the derivation
    (((0, 3), (1, 2), (2, 1), (3, 0)), 0, "bookkeeping"),
    # one extra target past the pure power: d - k = 3, but only two
    # candidates are derived
    (((3, 0), (2, 1), (1, 2), (0, 3), (0, 4)), 1, "candidates"),
])
def test_ci_sequence_raises_on_a_bookkeeping_fault(monkeypatch, targets, j,
                                                   match):
    # a map that passes for the Veronese map, so that the derivation runs
    # on targets its index bookkeeping does not hold for
    monkeypatch.setattr(MonomialMap, "veronese_degree", lambda self: 3)
    with pytest.raises(RuntimeError, match=match):
        ci_sequence(MonomialMap(targets), j)


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_ci_check_verifies_veronese_vertices(k, n):
    m = veronese_map(k, n)
    I = toric_ideal_lattice(m)
    height = krull_dim(I).height
    for j in range(k):
        inv, cands = ci_sequence(m, j)
        rep = ci_check(I, cands, inv, height)
        assert rep.inverted == inv and rep.candidates == cands
        assert rep.verified is True
        assert rep.candidates_in_ideal is True
        assert rep.generates_after_saturation is True
        assert rep.count_matches_height is True
        assert len(rep.candidates) == m.d - m.k


def test_ci_check_flags_bad_candidates():
    m = veronese_map(2, 3)
    I = toric_ideal_lattice(m)
    S = I.ring
    height = krull_dim(I).height
    rep = ci_check(I, (S.parse("t1"),), 0, height)
    assert rep.verified is False
    assert rep.candidates_in_ideal is False
    # right ideal, too few elements
    inv, cands = ci_sequence(m, 0)
    rep2 = ci_check(I, cands[:1], inv, height)
    assert rep2.verified is False
    assert rep2.count_matches_height is False
    assert rep2.candidates == cands[:1]


# ---------------------------------------------------------------------------
# symmetric minors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_minors_present_the_square_veronese(n):
    mins = symmetric_minors_ideal(n)
    ver = toric_ideal_lattice(veronese_map(n, 2))
    assert mins.ring.names == ver.ring.names
    assert ideal_equal(mins, ver)


def _up_to_sign(f):
    return min(f.terms, (-f).terms)


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_minors_are_every_minor_once(n):
    """C(m+1, 2) generators, m = C(n, 2), no two equal up to sign, and up
    to sign the set of every nonzero 2x2 minor over ordered row and
    column pairs, with t_m at the entries x_i x_j of the Veronese map."""
    mins = symmetric_minors_ideal(n)
    ring = mins.ring
    index = {t: m for m, t in enumerate(veronese_map(n, 2).targets)}

    def entry(i, j):
        return ring.variable(index[tuple((l == i) + (l == j)
                                         for l in range(n))])

    every = set()
    for (r1, r2), (c1, c2) in product(permutations(range(n), 2), repeat=2):
        f = entry(r1, c1) * entry(r2, c2) - entry(r1, c2) * entry(r2, c1)
        if not f.is_zero():
            every.add(_up_to_sign(f))
    m = comb(n, 2)
    assert len(mins.generators) == comb(m + 1, 2)
    assert len({_up_to_sign(g) for g in mins.generators}) == comb(m + 1, 2)
    assert {_up_to_sign(g) for g in mins.generators} == every


def test_symmetric_minors_smallest_cases():
    mins = symmetric_minors_ideal(2)
    assert [str(g) for g in mins.generators] == ["-t2^2 + t1*t3"]
    # a 1x1 symmetric matrix has no 2x2 minors at all
    degenerate = symmetric_minors_ideal(1)
    assert degenerate.is_zero() and degenerate.ring.names == ("t1",)
    with pytest.raises(ValueError):
        symmetric_minors_ideal(0)
