"""Characteristic-p machinery: bracket powers of ideals, the colon-ideal
splitting test for Frobenius purity, its fiber route on toric ideals, and
exact membership search in the affine semigroup of a monomial map with
verified witnesses."""
from __future__ import annotations

import pytest

import random
import sys
from itertools import product

from veronese import charp, groebner, toric
from veronese.charp import (
    FiberReport, FpurityReport, fedder_fiber, fedder_fpure, frobenius_power,
    monomial_ideal_member, semigroup_member,
)
from veronese.cli import main
from veronese.groebner import (
    GroebnerBasis, Ideal, buchberger, ideal_member, normal_form,
)
from veronese.polycore import (
    GF, GrevLex, PRIME_BOUND, PolyRing, QQ, ResourceCapError, _from_dict,
)
from veronese.toric import (
    MonomialMap, toric_ideal_elimination, toric_ideal_lattice,
    veronese_map,
)

QUARTIC = ((4, 0), (3, 1), (1, 3), (0, 4))


def _ideal(ring, *texts):
    return Ideal(ring, tuple(ring.parse(t) for t in texts))


# ---------------------------------------------------------------------------
# bracket powers
# ---------------------------------------------------------------------------

def test_frobenius_power_scales_exponents_termwise():
    R = PolyRing(("x", "y"), GF(3))
    I = _ideal(R, "x^2 + 2*y", "x*y - 1")
    J = frobenius_power(I)
    # coefficients are untouched; GF(3) renders -1 as its residue 2
    assert [str(g) for g in J.generators] == ["x^6 + 2*y^3", "x^3*y^3 + 2"]
    # in characteristic p the bracket power is the image of Frobenius
    for f, g in zip(I.generators, J.generators):
        assert f ** 3 == g


def test_characteristic_p_calls_refuse_ideals_over_the_rationals():
    """p is read from the ring of the ideal; over QQ there is none."""
    Q = PolyRing(("t1", "t2", "t3"), QQ)
    conic = _ideal(Q, "t2^2 - t1*t3")
    for call in (frobenius_power, fedder_fpure):
        with pytest.raises(ValueError, match="prime field"):
            call(conic)


# ---------------------------------------------------------------------------
# the splitting test
# ---------------------------------------------------------------------------

def test_monomial_hypersurface_is_f_pure_at_two():
    R = PolyRing(("x", "y"), GF(2))
    rep = fedder_fpure(_ideal(R, "x*y"))
    assert isinstance(rep, FpurityReport)
    assert rep.f_pure is True
    assert str(rep.certificate) == "x*y"
    # every exponent of the certificate term stays below p
    m = rep.certificate.terms[0][0]
    assert all(e < 2 for e in m)


def test_zero_ideal_is_f_pure():
    R = PolyRing(("x",), GF(3))
    rep = fedder_fpure(Ideal(R, ()))
    assert rep.f_pure is True and str(rep.certificate) == "1"


def test_fermat_cubic_cone_is_not_f_pure_at_two():
    R = PolyRing(("x", "y", "z"), GF(2))
    rep = fedder_fpure(_ideal(R, "x^3 + y^3 + z^3"))
    assert rep.f_pure is False and rep.certificate is None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quartic_curve_algebra_is_never_f_pure(p):
    I = toric_ideal_lattice(MonomialMap(QUARTIC), GF(p))
    rep = fedder_fpure(I)
    assert rep.f_pure is False
    assert rep.certificate is None
    # the verdict is honest: no colon generator has an all-small term
    for g in rep.colon_generators:
        for m, _ in g.terms:
            assert any(e >= p for e in m)


@pytest.mark.parametrize("k,n,p", [
    (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (2, 4, 2), (3, 2, 2),
])
def test_veronese_algebras_are_f_pure(k, n, p):
    I = toric_ideal_lattice(veronese_map(k, n), GF(p))
    rep = fedder_fpure(I)
    assert rep.f_pure is True
    cert = rep.certificate
    assert cert is not None
    assert any(all(e < p for e in m) for m, _ in cert.terms)
    # the certificate really lies in the colon ideal
    colon = Ideal(I.ring, rep.colon_generators)
    assert ideal_member(cert, buchberger(colon))


def test_fedder_validates_input():
    R = PolyRing(("x", "y"), GF(3))
    with pytest.raises(ValueError):
        fedder_fpure(_ideal(R, "x^2 - y"))        # not homogeneous
    with pytest.raises(ValueError):
        fedder_fpure(_ideal(R, "2"))              # unit ideal
    # the full homogeneous maximal ideal is still legitimate input
    assert fedder_fpure(_ideal(R, "x - y", "x + y")).f_pure is True


# ---------------------------------------------------------------------------
# the splitting test by linear algebra in one multidegree
# ---------------------------------------------------------------------------

VERONESE_CASES = ((2, 2), (2, 3), (2, 4), (3, 2))


def _seeded_curves(seed, count=4):
    """2-variable equal-degree curves: both pure powers of degree 3-5 and
    one or two mixed monomials, drawn from the seed."""
    rng = random.Random(seed)
    curves = []
    for _ in range(count):
        n = rng.randint(3, 5)
        mixed = sorted(rng.sample(range(1, n), rng.randint(1, min(2, n - 1))))
        curves.append(((n, 0), *((n - i, i) for i in mixed), (0, n)))
    return curves


def _fiber_against_colon(targets, p):
    mmap = MonomialMap(targets)
    I = toric_ideal_elimination(mmap, GF(p))
    rep = fedder_fiber(mmap, p)
    assert rep.f_pure == fedder_fpure(I).f_pure, (targets, p)
    return rep


@pytest.mark.parametrize("k,n", VERONESE_CASES)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_fiber_route_agrees_with_colon_on_veronese(k, n, p):
    rep = _fiber_against_colon(veronese_map(k, n).targets, p)
    assert rep.f_pure is True
    # observed on every Veronese case, not a proven (or reported) fact
    height = len(veronese_map(k, n).targets) - k
    assert rep.fiber_size == p ** height


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fiber_route_agrees_with_colon_on_quartic_curve(p):
    rep = _fiber_against_colon(QUARTIC, p)
    assert rep.f_pure is False and rep.witness is None


@pytest.mark.parametrize("seed", [3, 5, 7919])
def test_fiber_route_agrees_with_colon_on_seeded_curves(seed):
    for targets in _seeded_curves(seed):
        for p in (2, 3, 5):
            _fiber_against_colon(targets, p)


# ---------------------------------------------------------------------------
# the rows keyed by normal forms, as a reference
# ---------------------------------------------------------------------------

def _reference_fiber(ideal, targets):
    """The fiber system with its rows keyed by normal forms: the unknowns
    t^(p q + r) found by trying every residue r below p, q = NF(t^e) for a
    semigroup witness e; for each basis element m1 - m2 and each unknown s
    the row NF(s m1) - NF(s m2), formed by ``normal_form`` and stored by
    its two sides, a side hit twice raising ``ValueError``; union-find on
    the rows; u the sum of the monomials of x^(p-1)'s component when it is
    free.  No re-check, no caps."""
    ring = ideal.ring
    p = ring.domain.p
    A = tuple(tuple(a) for a in targets)
    d, k = len(A), len(A[0])
    mmap = MonomialMap(A)
    gb = buchberger(ideal)
    reduced = {}

    def nf(m):
        if m not in reduced:
            ((q, _),) = normal_form(ring.monomial(m), gb).terms
            reduced[m] = q
        return reduced[m]

    delta = tuple((p - 1) * sum(a[j] for a in A) for j in range(k))
    fiber = []                                    # (q, r)
    for r in product(range(p), repeat=d):
        rest = [z - sum(e * a[j] for e, a in zip(r, A))
                for j, z in enumerate(delta)]
        if any(x % p for x in rest):
            continue
        found, witness = semigroup_member(mmap, [x // p for x in rest])
        if found:
            e = [0] * d
            for a in witness:
                e[A.index(a)] += 1
            fiber.append((nf(tuple(e)), r))
    parent = list(range(len(fiber)))

    def find(j):
        while parent[j] != j:
            j = parent[j]
        return j

    def image(q, r, m):
        """NF(t^(p q + r) t^m) as its quotient and residue parts."""
        q, r = list(q), list(r)
        for i, e in enumerate(m):
            q[i], r[i] = divmod(q[i] * p + r[i] + e, p)
        return nf(tuple(q)), tuple(r)

    constraints, grounded = 0, set()
    for g in gb.elements:
        (m1, _), (m2, _) = g.terms
        rows = {}
        for j, (q, r) in enumerate(fiber):
            plus, minus = image(q, r, m1), image(q, r, m2)
            if plus == minus:
                continue
            for side, key in enumerate((plus, minus)):
                row = rows.setdefault(key, [None, None])
                if row[side] is not None:
                    raise ValueError("the ideal is not the toric ideal of "
                                     "the targets")
                row[side] = j
        constraints += len(rows)
        for plus, minus in rows.values():
            if plus is None or minus is None:
                grounded.add(minus if plus is None else plus)
            else:
                parent[find(minus)] = find(plus)
    grounded = {find(j) for j in grounded}
    free = {find(j) for j in range(len(fiber))} - grounded
    x_root = find(fiber.index(((0,) * d, (p - 1,) * d)))
    witness = None
    if x_root in free:
        witness = _from_dict(ring, {
            tuple(p * a + b for a, b in zip(q, r)): 1
            for j, (q, r) in enumerate(fiber) if find(j) == x_root})
    return FiberReport(p=p, fiber_size=len(fiber), constraints=constraints,
                       rank=len(fiber) - len(free), witness=witness,
                       f_pure=witness is not None)


def _oracle_grid():
    """(targets, p): the Veronese maps, the quartic curve, three maps
    without every pure power (one of them not F-pure), seeded curves of
    degree 3-6 and seeded algebras of quadrics in three variables, at
    p = 2, 3, 5, 7 while the reference's p^d residues stay few."""
    rng = random.Random(19)
    algebras = [veronese_map(k, n).targets for k, n in (
        (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (4, 2))]
    algebras.append(QUARTIC)
    algebras += [((3, 1), (2, 2), (1, 3)),
                 ((2, 1, 0), (1, 2, 0), (0, 1, 2), (1, 0, 2), (1, 1, 1)),
                 ((4, 1), (3, 2), (1, 4))]
    for n in (3, 4, 5, 6):
        mixed = sorted(rng.sample(range(1, n), rng.randint(1, 2)))
        algebras.append(((n, 0), *((n - i, i) for i in mixed), (0, n)))
    squares = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    algebras.append(squares + ((1, 1, 0), (0, 1, 1)))
    for _ in range(2):
        algebras.append(squares + tuple(rng.sample(
            [(1, 1, 0), (1, 0, 1), (0, 1, 1)], rng.randint(1, 2))))
    return [(targets, p) for targets in dict.fromkeys(algebras)
            for p in (2, 3, 5, 7) if p ** len(targets) <= 60_000]


@pytest.mark.parametrize("targets, p", _oracle_grid(), ids=lambda v: (
    f"p{v}" if isinstance(v, int) else ";".join(
        ",".join(map(str, a)) for a in v)))
def test_fiber_route_matches_the_rows_keyed_by_normal_forms(targets, p):
    """The fiber route's report, witness included, is the reference's on
    both toric routes' ideals."""
    mmap = MonomialMap(targets)
    rep = fedder_fiber(mmap, p)
    for route in (toric_ideal_elimination, toric_ideal_lattice):
        assert rep == _reference_fiber(route(mmap, GF(p)), mmap.targets)


def test_fiber_route_pins_veronese_3_3_at_three():
    """The sizes the rows keyed by normal forms gave."""
    mmap = veronese_map(3, 3)
    rep = fedder_fiber(mmap, 3)
    assert (rep.fiber_size, rep.constraints, rep.rank, rep.f_pure) == (
        2187, 59049, 2186, True)
    assert len(rep.witness.terms) == 2187


def _charp_line_events(call):
    """``call()`` and the number of line events in charp's own code while
    it runs: a count of work that does not depend on the machine."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += event == "line"
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename == charp.__file__ else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, events


@pytest.mark.parametrize("p, sizes", [(2, (2, 2, 1, True)),
                                      (3, (3, 3, 2, True))])
def test_the_quotient_search_does_not_walk_a_box_the_semigroup_fills(
        p, sizes):
    """(100,100,100) and the unit vectors: every point of the box below
    delta/p, (50,50,50) at p = 2 and (67,67,67) at p = 3, lies in S, so a
    walk of S up to delta/p meets 51^3 or 68^3 residuals, each costing at
    least one line of charp.  The depth-first search meets only those on
    its paths: about 4,000 and 7,000 line events in all of
    ``fedder_fiber``, against a bound of a fifth of the smaller box."""
    box = MonomialMap(((100, 100, 100), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    rep, events = _charp_line_events(lambda: fedder_fiber(box, p))
    assert (rep.fiber_size, rep.constraints, rep.rank, rep.f_pure) == sizes
    assert events < 51 ** 3 // 5


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a_grounded_fiber_needs_no_normal_form(monkeypatch, p):
    """The quartic curve is not F-pure: x^(p-1)'s component is grounded,
    so neither the witness nor its re-check runs."""
    calls = []
    for name in ("normal_form", "_products_in"):
        def counted(*args, _name=name, _real=getattr(charp, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(charp, name, counted)
    rep = fedder_fiber(MonomialMap(QUARTIC), p)
    assert rep.f_pure is False and calls == []


def test_a_fiber_quotient_of_more_than_one_term_is_an_internal_error(
        monkeypatch, capsys):
    """A quotient NF(t^e) must be one monomial with coefficient 1; a
    reduction that returns more is a bug, refused as ``RuntimeError``,
    which the command line reports as exit 4, not as bad input."""
    real = charp.normal_form

    def doctored(f, gb):
        r = real(f, gb)
        return r + r.ring.monomial((7,) + (0,) * (r.ring.arity - 1))

    monkeypatch.setattr(charp, "normal_form", doctored)
    with pytest.raises(RuntimeError, match="not one monomial"):
        fedder_fiber(veronese_map(2, 2), 3)
    assert main(["cd-certificate", "-k", "2", "-n", "2",
                 "--primes", "3"]) == 4
    assert "internal error: RuntimeError" in capsys.readouterr().err


def _dense_recheck(I, u):
    """The re-check on ``Polynomial`` objects: u * g reduced by the generic
    ``normal_form`` against the Frobenius basis {g^p} of I^[p], for every
    generator g; True when every remainder is zero."""
    frobenius = GroebnerBasis(I.ring, GrevLex(), frobenius_power(
        Ideal(I.ring, buchberger(I).elements)).generators)
    return all(normal_form(u * g, frobenius).is_zero() for g in I.generators)


@pytest.mark.parametrize("k,n,p", [
    (k, n, p) for k, n in VERONESE_CASES for p in (2, 3, 5)])
def test_fiber_witness_lies_in_the_colon(k, n, p):
    mmap = veronese_map(k, n)
    I = toric_ideal_elimination(mmap, GF(p))
    u = fedder_fiber(mmap, p).witness
    top = (p - 1,) * mmap.d
    assert u.coefficient(top) == 1
    # u sits in the multidegree (p - 1) * sum of the targets
    degree = {tuple(sum(e * a[j] for e, a in zip(m, mmap.targets))
                    for j in range(k)) for m, _ in u.terms}
    assert degree == {tuple((p - 1) * sum(a[j] for a in mmap.targets)
                            for j in range(k))}
    # u * I lies in I^[p], by the generic normal form against the basis
    # Buchberger computes for I^[p] itself, and by the re-check on
    # ``Polynomial`` objects
    bracket = buchberger(frobenius_power(I))
    for g in I.generators:
        assert normal_form(u * g, bracket).is_zero()
    assert _dense_recheck(I, u)


def _tamper_recheck(monkeypatch, change):
    """Makes the re-check run on ``change(u)`` in place of the witness u;
    the witness itself and the rows stay as computed."""
    products_in = charp._products_in

    def tampered(hs, u, gb):
        return products_in(hs, change(u), gb)

    monkeypatch.setattr(charp, "_products_in", tampered)


def _twisted_cubic_witness():
    mmap = veronese_map(2, 3)
    I = toric_ideal_lattice(mmap, GF(3))
    return mmap, I, fedder_fiber(mmap, 3).witness


def test_recheck_refuses_a_witness_without_one_monomial(monkeypatch):
    mmap, I, u = _twisted_cubic_witness()
    dropped = u.terms[-1][0]
    assert not _dense_recheck(I, u - I.ring.monomial(dropped))
    _tamper_recheck(monkeypatch, lambda u: u - u.ring.monomial(dropped))
    with pytest.raises(RuntimeError, match="re-verification"):
        fedder_fiber(mmap, 3)


def test_recheck_refuses_a_witness_with_a_foreign_monomial(monkeypatch):
    """A monomial of u's multidegree outside its support, chosen so that
    the dense re-check refuses u plus it, makes the packed one refuse."""
    mmap, I, u = _twisted_cubic_witness()
    support = {m for m, _ in u.terms}

    def degree(m):
        return tuple(sum(e * a[j] for e, a in zip(m, mmap.targets))
                     for j in range(2))

    delta = degree(u.terms[0][0])
    foreign = next(
        m for m in product(range(3 * 2 + 1), repeat=mmap.d)
        if degree(m) == delta and m not in support
        and not _dense_recheck(I, u + I.ring.monomial(m)))
    _tamper_recheck(monkeypatch, lambda u: u + u.ring.monomial(foreign))
    with pytest.raises(RuntimeError, match="re-verification"):
        fedder_fiber(mmap, 3)


@pytest.mark.parametrize("p", [43, 67])
def test_fiber_route_reruns_wider_past_8_bits(monkeypatch, p):
    """An 8-bit field holds degrees up to 127.  The witness of (2,2) has
    degree 3 (p - 1): at p = 67 that is 198 and overflows when it is
    packed, at p = 43 it is 126 and its product with a quadric overflows
    in the re-check.  Either way the first packing of the re-check stops
    and the whole re-check is repeated with 16-bit fields."""
    mmap = veronese_map(2, 2)
    I = toric_ideal_lattice(mmap, GF(p))
    limits = []
    gb_entries = groebner._gb_entries

    def spy(gb, packing):
        limits.append(packing.limit)
        return gb_entries(gb, packing)

    monkeypatch.setattr(groebner, "_gb_entries", spy)
    rep = fedder_fiber(mmap, p)
    assert limits[0] == 1 << 7 and limits[-1] == 1 << 15
    assert rep.f_pure is True and rep.fiber_size == p
    assert rep.witness.coefficient((p - 1,) * mmap.d) == 1
    assert _dense_recheck(I, rep.witness)


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_basis_is_the_reduced_basis_of_the_bracket_power(k, n, p):
    I = toric_ideal_lattice(veronese_map(k, n), GF(p))
    G = buchberger(I)
    frobenius = frobenius_power(Ideal(I.ring, G.elements)).generators
    assert frobenius == buchberger(frobenius_power(I)).elements


def test_fiber_route_validates_input(monkeypatch, groebner_caches):
    """The route takes a map and a prime: a composite p, a p past
    ``PRIME_BOUND`` and a repeated target are refused before any
    Groebner run; a refused p asks for no presentation and makes no
    engine request."""
    conic = veronese_map(2, 2)
    runs = []
    reduced_basis = groebner._reduced_basis

    def counted(*args):
        runs.append(args)
        return reduced_basis(*args)

    monkeypatch.setattr(groebner, "_reduced_basis", counted)
    for p, error, match in ((4, ValueError, "needs a prime"),
                            (PRIME_BOUND, ResourceCapError, "needs p below")):
        with pytest.raises(error, match=match):
            fedder_fiber(conic, p)
        assert toric._presentation.cache_info().misses == 0
        assert runs == []
    assert fedder_fiber(conic, 3).f_pure is True
    assert toric._presentation.cache_info().misses == 1 and runs
    with pytest.raises(ValueError, match="repeated target"):
        fedder_fiber(MonomialMap(((1, 0), (1, 0), (0, 1))), 3)


@pytest.mark.parametrize("k, n, cap, refused", [
    # (2,5) at p = 3: halves of 3^3 residues, 3^4 candidate unknowns
    (2, 5, 81, None),
    (2, 5, 80, "81 candidate Fedder unknowns at p = 3 exceed the cap of 80"),
    # (2,2) at p = 3: a half of 3^2 residues, 3 candidate unknowns
    (2, 2, 9, None),
    (2, 2, 8, "9 residues in half of the Fedder search at p = 3 exceed the "
              "cap of 8"),
])
def test_fiber_cap_refuses_before_the_unknowns_are_built(
        monkeypatch, k, n, cap, refused):
    mmap = veronese_map(k, n)
    monkeypatch.setattr(charp, "FIBER_CAP", cap)
    if refused is None:
        assert fedder_fiber(mmap, 3).f_pure is True
        return
    monkeypatch.setattr(charp, "_first_sums", None)        # never reached
    with pytest.raises(ResourceCapError) as exc:
        fedder_fiber(mmap, 3)
    assert str(exc.value) == refused


# ---------------------------------------------------------------------------
# the affine semigroup of a monomial map
# ---------------------------------------------------------------------------

def test_semigroup_membership_with_verified_witnesses():
    sg = MonomialMap(QUARTIC)
    ok, witness = semigroup_member(sg, (4, 4))
    assert ok and witness == ((4, 0), (0, 4))
    assert tuple(map(sum, zip(*witness))) == (4, 4)
    ok2, witness2 = semigroup_member(sg, (7, 5))
    assert ok2
    assert tuple(map(sum, zip(*witness2))) == (7, 5)
    assert all(g in QUARTIC for g in witness2)
    # zero is the empty sum
    assert semigroup_member(sg, (0, 0)) == (True, ())


def test_semigroup_holes():
    sg = MonomialMap(QUARTIC)
    assert semigroup_member(sg, (2, 2)) == (False, None)
    assert semigroup_member(sg, (1, 0)) == (False, None)
    # total degree not a multiple of four is unreachable
    assert semigroup_member(sg, (5, 1)) == (False, None)
    with pytest.raises(ValueError):
        semigroup_member(sg, (-1, 0))
    with pytest.raises(ValueError):
        semigroup_member(sg, (1, 2, 3))


def test_semigroup_search_stops_at_the_frame_cap(monkeypatch):
    # the frame count grows with the square of the target here: (900,900,1)
    # would push 405,900 frames
    sg = MonomialMap(((2, 0, 0), (0, 2, 0), (1, 1, 0)))
    with pytest.raises(ResourceCapError) as exc:
        semigroup_member(sg, (900, 900, 1))
    assert str(exc.value) == \
        f"semigroup search past the cap of {charp.SEMIGROUP_CAP} frames"
    # the decision is the count of frames pushed: a witness of 5,000 steps
    # pushes 4,999 below the first
    line = MonomialMap(((1,),))
    monkeypatch.setattr(charp, "SEMIGROUP_CAP", 4999)
    assert semigroup_member(line, (5000,)) == (True, ((1,),) * 5000)
    monkeypatch.setattr(charp, "SEMIGROUP_CAP", 4998)
    with pytest.raises(ResourceCapError):
        semigroup_member(line, (5000,))


def test_numerical_semigroup_two_three():
    sg = MonomialMap(((2,), (3,)))
    reachable = [m for m in range(10) if semigroup_member(sg, (m,))[0]]
    assert reachable == [0, 2, 3, 4, 5, 6, 7, 8, 9]


def test_monomial_ideal_membership_pairs():
    sg = MonomialMap(QUARTIC)
    # x^(6,2) against the principal ideal on x^(4,0): residual (2,2) is a hole
    assert monomial_ideal_member(sg, (6, 2), (4, 0)) is False
    # p-fold versions land inside for p = 2, 3, 5
    for p in (2, 3, 5):
        assert monomial_ideal_member(
            sg, (6 * p, 2 * p), (4 * p, 0)) is True
    # a residual that is itself a generator
    assert monomial_ideal_member(sg, (7, 1), (4, 0)) is True
    # negative residual: numerator not divisible by the generator
    assert monomial_ideal_member(sg, (3, 1), (4, 0)) is False
