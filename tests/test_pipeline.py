"""Certificate assembly: radical covers, the per-characteristic certificate
for square-free Veronese presentations, user-supplied monomial algebras with
witness pairs, cross-characteristic comparison, and the JSON envelope."""
from __future__ import annotations

import hashlib
import json
import random
from math import gcd

import pytest

from conftest import replay_reports

from veronese import groebner, pipeline, toric
from veronese.charp import semigroup_member
from veronese.cli import main
from veronese.groebner import Ideal, buchberger, ideal_sum, radical_member
from veronese.invariants import hilbert_piece, lc_top_piece, veronese_lc_piece
from veronese.pipeline import (
    GENERIC_2X3_GENERATORS, GENERIC_2X3_NAMES, QUARTIC_CURVE_TARGETS,
    Check, Report, ResourceCapError, VARIABLE_CAP, cd_certificate,
    char_compare, ensure_within_cap, present_monomial_algebra,
    radical_cover_check, render_json,
)
from veronese.polycore import Block, PolyRing, QQ, is_homogeneous
from veronese.toric import (
    MonomialMap, ci_check, ci_sequence, symmetric_minors_ideal,
    toric_ideal_lattice, veronese_map,
)


# the conic's ideal, written out so that building it runs no engine
_T = PolyRing(("t1", "t2", "t3"))
_CONIC = Ideal(_T, (_T.parse("t2^2 - t1*t3"),))


def _check_map(report_dict):
    return {c["name"]: c for c in report_dict["checks"]}


# ---------------------------------------------------------------------------
# radical covers
# ---------------------------------------------------------------------------

def test_radical_cover_quartic_vertices_suffice():
    I = toric_ideal_lattice(MonomialMap(QUARTIC_CURVE_TARGETS))
    assert radical_cover_check(I, (0, 3)) is True
    assert radical_cover_check(I, (0,)) is False
    assert radical_cover_check(I, (0, 1, 2, 3)) is True


def test_radical_cover_validates_subset():
    I = toric_ideal_lattice(veronese_map(2, 2))
    with pytest.raises(ValueError):
        radical_cover_check(I, (5,))
    with pytest.raises(ValueError):
        radical_cover_check(I, ())


@pytest.mark.parametrize("ideal, subset", [
    (toric_ideal_lattice(MonomialMap(((2, 0), (1, 1), (0, 2)))),
     (0, 2)),                                     # the conic, t1 and t3
    (toric_ideal_lattice(veronese_map(2, 3)), (0, 3)),   # the pure powers
])
def test_zero_dimensional_cover_requests_its_basis_once(monkeypatch, ideal,
                                                        subset):
    """The cover decides from the basis of I + (subset) it asked for, and
    asks for that basis only once, whichever module asks."""
    ring = ideal.ring
    J = ideal_sum(ideal, Ideal(ring, tuple(ring.variable(i) for i in subset)))
    requests = []
    original = groebner.buchberger

    def counting(ideal_arg, *args, **kwargs):
        requests.append(ideal_arg)
        return original(ideal_arg, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(pipeline, "buchberger", counting)
    assert radical_cover_check(ideal, subset) is True
    assert requests.count(J) == 1


def test_failing_cover_skips_variables_without_a_pure_power_lead(monkeypatch):
    """On the quartic curve with subset t1 the basis of I + (t1) has
    pure-power leads in t1, t2 and t3 but not in t4, so t4 gets no
    radical-membership run: 7 basis requests, three of them in the
    Rabinowitsch ring."""
    R = PolyRing(("t1", "t2", "t3", "t4"), QQ)
    I = Ideal(R, tuple(R.parse(t) for t in (
        "t2*t3 - t1*t4", "t2^3 - t1^2*t3", "t3^3 - t2*t4^2",
        "t1*t3^2 - t2^2*t4")))
    requests = []
    original = groebner.buchberger

    def counting(ideal_arg, *args, **kwargs):
        requests.append(ideal_arg)
        return original(ideal_arg, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(pipeline, "buchberger", counting)
    ok, witnesses = pipeline._radical_cover(I, (0,))
    assert ok is False
    assert [(w["member"], w["exponent"]) for w in witnesses] == [
        (True, 1), (True, 3), (True, 4), (False, None)]
    assert len(requests) == 7
    assert sum(r.ring.arity == 5 for r in requests) == 3


@pytest.fixture(scope="module")
def report_covers():
    """(ideal, subset) of every radical cover that the golden cases and
    the perfbench library reports of seeds 3 and 5 take in each field,
    with the checks built in each field on its own: the reports take one
    cover for all fields, over QQ, which would leave this oracle one ideal
    per algebra."""
    covers = {}
    cover = pipeline._radical_cover

    def record(ideal, subset):
        covers.setdefault((ideal, subset), None)
        return cover(ideal, subset)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_radical_cover", record)
        replay_reports(per_field=True)
    return list(covers)


def test_cover_read_from_one_basis_equals_membership_runs(report_covers):
    """Membership and exponent of every variable, whether the cover reads
    them from the basis of I + (subset) or runs ``radical_member``, equal
    those of a ``radical_member`` run per variable."""
    read = failed = 0
    for ideal, subset in report_covers:
        ring = ideal.ring
        J = ideal_sum(ideal, Ideal(ring, tuple(map(ring.variable, subset))))
        ok, witnesses = pipeline._radical_cover(ideal, subset)
        runs = [radical_member(ring.variable(i), J)
                for i in range(ring.arity)]
        assert [(w["member"], w["exponent"]) for w in witnesses] == runs
        assert ok == all(member for member, _ in runs)
        homogeneous = all(map(is_homogeneous, ideal.generators))
        read += ok and homogeneous
        failed += not ok
    assert read > 40 and failed > 0


# ---------------------------------------------------------------------------
# the Veronese certificate
# ---------------------------------------------------------------------------

def test_cd_certificate_conic():
    rep = cd_certificate(2, 2, primes=(2, 3))
    d = rep.to_report()
    assert d["kind"] == "cd_certificate"
    assert d["params"] == {"k": 2, "n": 2, "d": 3, "height": 1,
                           "cohomological_dimension": 1,
                           "characteristics": [0, 2, 3]}
    assert d["verdict"] is True
    names = [c["name"] for c in d["checks"]]
    # one block per characteristic, then the cross-characteristic checks
    for c in (0, 2, 3):
        assert f"toric_routes_agree_char_{c}" in names
        assert f"height_char_{c}" in names
        assert f"localized_ci_char_{c}_t1" in names
        assert f"localized_ci_char_{c}_t3" in names
        assert f"radical_cover_char_{c}" in names
    assert "height_constant_across_characteristics" in names
    assert "symmetric_minors_match" in names
    assert "lc_degree_zero_vanishes" in names
    assert "f_pure_p2" in names and "f_pure_p3" in names
    assert all(c["verdict"] is True for c in d["checks"])
    assert len(d["cited_facts"]) == 7


def test_cd_certificate_twisted_cubic_details():
    rep = cd_certificate(2, 3, primes=(2,))
    d = rep.to_report()
    assert d["verdict"] is True
    assert d["params"]["height"] == 2
    assert d["params"]["cohomological_dimension"] == 2
    checks = _check_map(d)
    cover = checks["radical_cover_char_0"]
    assert cover["details"]["subset"] == ["t1", "t4"]
    witnesses = cover["details"]["witnesses"]
    assert {w["variable"] for w in witnesses} == {"t1", "t2", "t3", "t4"}
    assert all(w["member"] for w in witnesses)
    ci = checks["localized_ci_char_0_t1"]
    assert len(ci["details"]["candidates"]) == 2
    assert ci["details"]["count_matches_height"] is True
    assert ci["details"]["inverted"] == "t1"
    assert ci["details"]["pure_power_of"] == "x1"
    assert ci["verdict"] is True
    # no symmetric-minors block for n = 3
    assert "symmetric_minors_match" not in checks


def test_cd_certificate_validates_arguments():
    with pytest.raises(ValueError):
        cd_certificate(0, 2)
    with pytest.raises(ValueError):
        cd_certificate(2, 0)
    with pytest.raises(ValueError):
        cd_certificate(2, 2, primes=())
    with pytest.raises(ValueError):
        cd_certificate(2, 2, primes=(4,))


def test_cd_certificate_resource_cap():
    with pytest.raises(ResourceCapError):
        cd_certificate(2, VARIABLE_CAP)     # d = cap + 1 source variables
    with pytest.raises(ResourceCapError):
        ensure_within_cap(VARIABLE_CAP + 1)
    ensure_within_cap(VARIABLE_CAP)         # boundary passes


# ---------------------------------------------------------------------------
# user-supplied monomial algebras
# ---------------------------------------------------------------------------

def test_present_quartic_full_certificate():
    rep = present_monomial_algebra(
        QUARTIC_CURVE_TARGETS, primes=(2, 3, 5),
        radical_subset=(0, 3),
        ci_candidates={0: ("t2^3 - t1^2*t3", "t2*t3 - t1*t4"),
                       3: ("t3^3 - t2*t4^2", "t2*t3 - t1*t4")},
        fpurity_witness=((6, 2), (4, 0)))
    d = rep.to_report()
    assert d["kind"] == "presentation"
    assert d["verdict"] is True
    assert (rep.params["height"] == 2
            and rep.params["cohomological_dimension"] == 2)
    checks = _check_map(d)
    for p in (2, 3, 5):
        w = checks[f"f_purity_consistent_p{p}"]
        assert w["verdict"] is True
        assert w["details"]["f_pure"] is False
        assert w["details"]["base_containment"] is False
        assert w["details"]["pfold_containment"] is True
        assert w["details"]["implies_not_f_pure"] is True
        assert w["details"]["residual"] == [2, 2]
    assert checks["normalization_is_veronese"]["verdict"] is True
    assert checks["normalization_lc_degree_zero_vanishes"]["verdict"] is True


def test_present_without_optional_ingredients():
    rep = present_monomial_algebra(QUARTIC_CURVE_TARGETS, primes=(2,))
    d = rep.to_report()
    checks = _check_map(d)
    # F-purity is recorded as data, not judged, when no witness is given
    assert checks["f_purity_recorded_p2"]["verdict"] is True
    assert checks["f_purity_recorded_p2"]["details"]["f_pure"] is False
    # no complete-intersection or radical-cover claims without candidates:
    # the quartic targets are not a full Veronese set
    assert not any(n.startswith("localized_ci") for n in checks)
    # therefore no cohomological-dimension claim either
    assert rep.params["cohomological_dimension"] is None
    assert rep.params["height"] == 2


def test_present_veronese_targets_derive_everything():
    rep = present_monomial_algebra(veronese_map(2, 3).targets, primes=(2,))
    d = rep.to_report()
    assert d["verdict"] is True
    assert rep.params["cohomological_dimension"] == rep.params["height"] == 2
    checks = _check_map(d)
    assert "localized_ci_char_0_t1" in checks
    assert "localized_ci_char_0_t4" in checks
    assert "radical_cover_char_0" in checks
    assert checks["normalization_is_veronese"]["verdict"] is True


@pytest.mark.parametrize("targets", [((2, 0), (0, 2)),
                                     ((2, 0, 0), (0, 2, 0), (0, 0, 2))])
def test_present_certifies_no_normalization_off_the_veronese_lattice(
        targets):
    """Every missing degree-2 monomial has its square in the semigroup, but
    the targets span a lattice of index 2^k, not 2: no normalization check
    is emitted, and no cohomological dimension claimed."""
    mmap = MonomialMap(targets)
    missing = [v for v in veronese_map(mmap.k, 2).targets
               if v not in targets]
    assert missing and all(semigroup_member(mmap, tuple(2 * e for e in v))[0]
                           for v in missing)
    rep = present_monomial_algebra(targets, primes=(2,))
    assert not any(c.name.startswith("normalization_") for c in rep.checks)
    assert rep.params["cohomological_dimension"] is None


@pytest.mark.parametrize("targets, digest", [
    (((4, 0), (0, 4), (2, 2)),
     "df5392b8a0e93406c1ccf0794db04b9b662c4c97fe44c91f56436838506fd004"),
    (((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)),
     "35b584238c75bf2d06e9b5f73625aa44adf837d29e3d9a75be645e8292fe3e90"),
    (((5, 1), (4, 2)),
     "b735ca2489256e2e154e72ddf525b1ad85b663b8941708c51eb716cb2447aa93"),
    (((11, 1), (10, 2)),
     "fff7ceb813cbef19d293d0d3ffa9998812d9042c1e84174e006edbb3a088c532"),
    (((7, 3, 1), (5, 6, 0), (5, 5, 1), (6, 3, 2), (9, 1, 1)),
     "fbcf983127b1ddbc5eaf3c87c2d5542163d753c05d6b25ae2e4f2091ff104f47"),
], ids=["index_8_degree_4", "index_9_degree_3", "no_pure_power_degree_6",
        "no_pure_power_degree_12", "no_pure_power_degree_11"])
def test_no_multiple_is_searched_off_the_veronese_lattice(
        monkeypatch, targets, digest):
    """A lattice index other than the degree, or a missing pure power n*e_i
    (on the right lattice), decides that no normalization check is
    emitted, so no multiple of a missing monomial is searched (a search
    capped at m = 12 made 4, 18, 60, 132 and 856 ``semigroup_member``
    calls here, all futile); the body keeps the sha256 it had when the
    search ran."""
    calls = []
    monkeypatch.setattr(pipeline, "semigroup_member",
                        lambda *args: calls.append(args))
    body = render_json(present_monomial_algebra(targets, primes=(2,))
                       .to_report())
    assert calls == []
    assert hashlib.sha256(body.encode()).hexdigest() == digest


@pytest.mark.parametrize("targets, multiples, digest", [
    (((16, 0), (0, 16), (1, 15)), [15, 8, 5, 4, 3, 5, 9, 2, 5, 3, 7, 4, 6, 8],
     "a8df47697386975c710d2f4a4876dab847cb495e6f9ee631a74f075510346676"),
    (((13, 0), (0, 13), (1, 12)), [12, 6, 4, 3, 5, 2, 7, 3, 4, 5, 7],
     "53640dbf9b883bf59dc8787c465b51e3bdd69e09bf1437aac3ddb99aea07fe8c"),
], ids=["past_the_old_cap", "below_the_old_cap"])
def test_least_multiples_are_searched_up_to_n_over_gcd(
        targets, multiples, digest):
    """(15,1) needs m = 15, since 15*(15,1) = 14*(16,0) + (1,15): the search
    bounded by n / gcd(n, v) finds it, where one capped at m = 12 emitted
    no check.  The multiples were brute-forced independently; the body
    below the old cap keeps the sha256 it had under the cap."""
    rep = present_monomial_algebra(targets, primes=(2,))
    check = _check_map(rep.to_report())["normalization_is_veronese"]
    assert check["verdict"] is True
    assert check["details"]["member_multiples"] == multiples
    body = render_json(rep.to_report())
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def _searched_multiples(mmap, n):
    """The rule's reference, which reads no pure power: when the targets
    span a lattice of index n, the least m <= 2n with m*v in the semigroup
    of each degree-n monomial v that is not a target; None when the index
    differs or some v has no such m."""
    if toric._lattice_index(mmap.targets) != n:
        return None
    least = {}
    for v in veronese_map(mmap.k, n).targets:
        if v not in mmap.targets:
            least[v] = next((m for m in range(1, 2 * n + 1)
                             if semigroup_member(
                                 mmap, tuple(m * e for e in v))[0]), None)
            if least[v] is None:
                return None
    return least


def test_the_normalization_rule_agrees_with_a_search():
    """On seeded subsets of the degree-n monomials (k <= 4, n <= 6, at
    most ``VARIABLE_CAP`` of them), the rule says yes exactly when the
    search does, and then the least multiple of each missing monomial v
    is at most n / gcd(n, v)."""
    rng = random.Random(20201)
    verdicts = []
    for _ in range(1500):
        k, n = rng.randint(1, 4), rng.randint(1, 6)
        monomials = veronese_map(k, n).targets
        powers = [v for v in monomials if n in v]
        chosen = powers if rng.random() < 0.5 else []
        others = [v for v in monomials if v not in chosen]
        room = min(VARIABLE_CAP - len(chosen), len(others))
        mmap = MonomialMap(chosen + rng.sample(
            others, rng.randint(0 if chosen else 1, room)))
        least = _searched_multiples(mmap, n)
        assert pipeline._veronese_normalization(mmap) == (
            None if least is None else n), mmap.targets
        if least is not None:
            assert all(m <= n // gcd(n, *v) for v, m in least.items())
        verdicts.append(least is not None)
    assert 300 < sum(verdicts) < 1200


def test_a_faulty_row_reduction_is_an_internal_error(monkeypatch, capsys):
    """The lattice index re-checks U * targets = H: an echelon form that
    fails it ends in exit 4, not in a report."""
    reduce = toric._integer_row_reduce

    def doctored(rows):
        H, U, r = reduce(rows)
        H[0][0] += 1
        return H, U, r

    monkeypatch.setattr(toric, "_integer_row_reduce", doctored)
    code = main(["present", "--targets", "4,0;3,1;1,3;0,4", "--primes", "2"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("internal error: RuntimeError: row reduction")


def test_present_consistency_with_cd_certificate():
    for k, n in ((2, 2), (2, 3), (2, 4), (3, 2)):
        _assert_present_agrees_with_cd_certificate(k, n)


def _assert_present_agrees_with_cd_certificate(k, n):
    primes = (2, 3, 5)
    a = _check_map(cd_certificate(k, n, primes=primes).to_report())
    b = _check_map(present_monomial_algebra(
        veronese_map(k, n).targets, primes=primes).to_report())
    assert a["height_char_0"]["verdict"] and \
        b["height_matches_lattice_nullity_char_0"]["verdict"]
    for name in ("localized_ci_char_0_t1", "radical_cover_char_0"):
        if name in a and name in b:
            assert a[name]["verdict"] == b[name]["verdict"]
    assert a["radical_cover_char_0"]["details"]["subset"] == \
        b["radical_cover_char_0"]["details"]["subset"]
    # the certificate decides F-purity by the fiber route, the presentation
    # report by the colon route: the verdicts agree at every prime
    for p in primes:
        assert a[f"f_pure_p{p}"]["verdict"] == \
            b[f"f_purity_recorded_p{p}"]["details"]["f_pure"]
        assert set(a[f"f_pure_p{p}"]["details"]) == \
            {"fiber_size", "constraints", "rank"}


def test_present_invalid_witness_makes_check_fail():
    # (5, 1) is not even in the semigroup: the witness pair is rejected and
    # the consistency check reports a false verdict rather than an exception
    rep = present_monomial_algebra(
        QUARTIC_CURVE_TARGETS, primes=(2,),
        fpurity_witness=((5, 1), (4, 0)))
    d = rep.to_report()
    checks = _check_map(d)
    w = checks["f_purity_consistent_p2"]
    assert w["verdict"] is False
    assert w["details"]["witness_in_semigroup"] is False
    assert d["verdict"] is False
    assert rep.params["cohomological_dimension"] is None


def test_present_validation_and_cap():
    with pytest.raises(ValueError):
        present_monomial_algebra(())
    with pytest.raises(ResourceCapError):
        present_monomial_algebra(tuple((i, 1) for i in range(VARIABLE_CAP + 1)))
    with pytest.raises(ValueError):
        present_monomial_algebra(QUARTIC_CURVE_TARGETS, primes=(6,))
    with pytest.raises(ValueError):
        present_monomial_algebra(QUARTIC_CURVE_TARGETS, radical_subset=(9,))
    with pytest.raises(ValueError):
        present_monomial_algebra(QUARTIC_CURVE_TARGETS,
                                 fpurity_witness=((1, 1),))


@pytest.mark.parametrize("build, entry", [
    (lambda: cd_certificate(2, 2, primes=(2.9,)), "2.9"),
    (lambda: present_monomial_algebra(QUARTIC_CURVE_TARGETS, primes=(2,),
                                      radical_subset=[0.7, 2.2]), "0.7"),
    (lambda: present_monomial_algebra(
        QUARTIC_CURVE_TARGETS, primes=(2,),
        fpurity_witness=((6.9, 2.5), (4.2, 0))), "6.9"),
], ids=["prime", "cover_index", "witness_entry"])
def test_library_refuses_non_integer_entries(build, entry):
    """A float prime, cover index or witness entry is refused, not
    truncated to p = 2, to t1 and t3, or to the witness ((6, 2), (4, 0))."""
    with pytest.raises(ValueError, match=entry):
        build()


@pytest.mark.parametrize("k, n, name", [(2.0, 2, "k"), (2, 2.5, "n")])
def test_cd_certificate_refuses_a_float_k_or_n(k, n, name, engine_counts):
    """A float k or n is a ``ValueError`` naming the argument, before any
    engine run, not a ``TypeError`` from ``math.comb``."""
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        cd_certificate(k, n, (2,))
    assert engine_counts["insert"] == 0


@pytest.mark.parametrize("build, message", [
    (lambda: cd_certificate(True, 2, (2,)), "^k must be an int, not True"),
    (lambda: cd_certificate(2, True, (2,)), "^n must be an int, not True"),
    (lambda: cd_certificate(2, 2, primes=(True,)), "True"),
    (lambda: present_monomial_algebra([(True, True), (2, 0), (0, 2)],
                                      primes=(3,)), "True"),
    (lambda: present_monomial_algebra(QUARTIC_CURVE_TARGETS, primes=(2,),
                                      radical_subset=[True]), "True"),
    (lambda: present_monomial_algebra(QUARTIC_CURVE_TARGETS, primes=(2,),
                                      ci_candidates={True: ["t1"]}),
     "out of range"),
    (lambda: present_monomial_algebra(
        QUARTIC_CURVE_TARGETS, primes=(2,),
        fpurity_witness=((True, 0), (1, 0))), "True"),
    (lambda: char_compare([(True, 0), (0, 1)]), "True"),
    (lambda: MonomialMap([(True, 0), (0, 1)]), "True"),
    (lambda: _CONIC.ring.variable(True), "^index must be an int, not True"),
    (lambda: ci_check(_CONIC, _CONIC.generators, True, 1), "^index must be"),
    (lambda: radical_cover_check(_CONIC, [True]), "True"),
    (lambda: radical_cover_check(_CONIC, [1, True]), "True"),
    (lambda: ci_sequence(veronese_map(2, 2), True),
     "^pure_power_index must be an int, not True"),
    (lambda: Block({True}), "True"),
    (lambda: Block([1, True]), "True"),
    (lambda: buchberger(_CONIC, Block({True})), "True"),
    (lambda: veronese_map(2, True), "^n must be an int, not True"),
    (lambda: symmetric_minors_ideal(True), "^n must be an int, not True"),
    (lambda: _CONIC.generators[0] ** True, "exponent"),
    (lambda: hilbert_piece(True, 3), "^k must be an int, not True"),
    (lambda: lc_top_piece(2, True), "^j must be an int, not True"),
    (lambda: veronese_lc_piece(True, 2, 1, 0), "^k must be an int, not True"),
], ids=["cd_k", "cd_n", "cd_prime", "present_targets", "present_cover",
        "present_chart", "present_witness", "char_compare_targets",
        "monomial_map", "variable", "ci_check_invert", "radical_cover_check",
        "radical_cover_check_with_its_twin", "ci_sequence", "block",
        "block_with_its_twin", "block_cache", "veronese_map",
        "symmetric_minors", "power", "hilbert_piece", "lc_top_piece",
        "veronese_lc_piece"])
def test_library_refuses_bools_as_ints(build, message, engine_counts):
    """``True`` is an int to Python but no exponent, count or index here:
    it is a ``ValueError`` before any engine run, not the report of 1 with
    ``true`` in its bytes; a map with ``True`` never meets its twin with 1
    in the presentation cache, nor a block order with ``True`` its twin in
    the Groebner cache."""
    with pytest.raises(ValueError, match=message):
        build()
    assert engine_counts["insert"] == 0


def test_present_refuses_one_string_as_a_chart_candidate_list(engine_counts):
    """A chart's candidates are a list of strings; one string is refused
    with the chart index, not split into its characters."""
    with pytest.raises(ValueError, match="candidates of chart 0"):
        present_monomial_algebra(((2, 0), (1, 1), (0, 2)), primes=(2,),
                                 ci_candidates={0: "t2^2-t1*t3"})
    assert engine_counts["insert"] == 0


@pytest.mark.parametrize("key", [7, 4, -1, 0.0])
def test_present_refuses_a_chart_outside_the_targets(key, engine_counts):
    """A ``ci_candidates`` key names one of the len(targets) t-variables;
    any other key, a float among them, is a ``ValueError`` before any
    engine run."""
    with pytest.raises(ValueError, match="out of range"):
        present_monomial_algebra(QUARTIC_CURVE_TARGETS, primes=(3,),
                                 ci_candidates={key: ["t1"]})
    assert engine_counts["insert"] == 0


@pytest.mark.parametrize("targets, vector, total", [
    ("2;3", "(3, -2)", 1),                 # the cusp
    ("2,0;1,1;0,3", "(3, -6, 2)", -1),
])
def test_present_refuses_a_toric_ideal_that_is_not_standard_graded(
        targets, vector, total, capsys, monkeypatch, groebner_caches):
    """Targets with an integer kernel vector of nonzero coordinate sum exit
    2 with a message naming that vector, before any Groebner request."""
    requests = []
    for name in ("_buchberger_cached", "_eliminated"):
        monkeypatch.setattr(groebner, name,
                            lambda *args: requests.append(args))
    code = main(["present", "--targets", targets, "--primes", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "standard-graded toric ideal" in captured.err
    assert f"kernel vector {vector} sums to {total}, not 0" in captured.err
    assert requests == []


def test_present_takes_standard_graded_targets_of_unequal_degree():
    """Kernel vectors summing to 0 are all the grading needs: targets of
    degrees 1, 2 and 3 with kernel (1, -2, 1) get a report."""
    rep = present_monomial_algebra(((1, 0), (1, 1), (1, 2)), primes=(2,))
    assert rep.params["height"] == 1


# ---------------------------------------------------------------------------
# cross-characteristic comparison
# ---------------------------------------------------------------------------

def test_char_compare_targets_mode():
    rep = char_compare(targets=QUARTIC_CURVE_TARGETS, primes=(2, 3))
    d = rep.to_report()
    assert d["kind"] == "char_compare"
    assert d["verdict"] is True
    checks = _check_map(d)
    hc = checks["height_constant_across_characteristics"]
    assert hc["details"]["heights"] == {"0": 2, "2": 2, "3": 2}
    assert rep.params["constant"] is True


def test_char_compare_fixture_mode():
    rep = char_compare(ring_names=GENERIC_2X3_NAMES,
                       generators=GENERIC_2X3_GENERATORS, primes=(2, 5))
    d = rep.to_report()
    assert d["verdict"] is True
    assert rep.params["characteristics"] == [0, 2, 5]
    assert rep.params["heights"] == [2, 2, 2]
    # no toric-route checks in fixture mode
    assert not any(n.startswith("toric_routes")
                   for n in _check_map(d))


def test_char_compare_requires_exactly_one_mode():
    with pytest.raises(ValueError):
        char_compare()
    with pytest.raises(ValueError):
        char_compare(targets=QUARTIC_CURVE_TARGETS,
                     ring_names=GENERIC_2X3_NAMES,
                     generators=GENERIC_2X3_GENERATORS)
    with pytest.raises(ValueError):
        char_compare(ring_names=GENERIC_2X3_NAMES)   # generators missing


# ---------------------------------------------------------------------------
# the envelope
# ---------------------------------------------------------------------------

def test_render_json_is_deterministic_and_round_trips():
    rep = cd_certificate(2, 2, primes=(2,))
    a = render_json(rep.to_report())
    b = render_json(cd_certificate(2, 2, primes=(2,)).to_report())
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert list(parsed) == ["kind", "params", "checks", "cited_facts",
                            "verdict"]
    for c in parsed["checks"]:
        assert list(c) == ["name", "verdict", "details"]


def test_overall_verdict_is_conjunction_of_checks():
    rep = present_monomial_algebra(
        QUARTIC_CURVE_TARGETS, primes=(2,),
        fpurity_witness=((5, 1), (4, 0)))
    d = rep.to_report()
    assert d["verdict"] == all(c["verdict"] for c in d["checks"])
    assert d["verdict"] is False


def test_cited_facts_accompany_mechanical_checks():
    d = cd_certificate(2, 2, primes=(2,)).to_report()
    assert len(d["cited_facts"]) == 7
    assert all(isinstance(s, str) and s for s in d["cited_facts"])
    d2 = char_compare(targets=QUARTIC_CURVE_TARGETS, primes=(2,)).to_report()
    assert len(d2["cited_facts"]) == 1


def test_report_verdict_envelope_and_frozen():
    yes = Check("a", True, {})
    no = Check("b", False, {"x": 1})
    assert Report("k", {}, (yes, yes)).verdict is True
    assert Report("k", {}, (yes, no)).verdict is False
    assert Report("k", {}, ()).verdict is True      # the empty conjunction
    rep = Report("k", {"p": 1}, (yes, no), ("fact",))
    d = rep.to_report()
    assert list(d) == ["kind", "params", "checks", "cited_facts", "verdict"]
    assert d == {"kind": "k", "params": {"p": 1},
                 "checks": [yes.as_dict(), no.as_dict()],
                 "cited_facts": ["fact"], "verdict": False}
    assert Report("k", {}, (yes,)).to_report()["cited_facts"] == []
    with pytest.raises(AttributeError):
        rep.kind = "other"
    with pytest.raises(AttributeError):
        rep.checks = (yes,)
    assert rep.kind == "k" and rep.checks == (yes, no)


@pytest.mark.parametrize("argv, build", [
    (["cd-certificate", "-k", "2", "-n", "2", "--primes", "2"],
     lambda: cd_certificate(2, 2, primes=(2,))),
    (["present", "--targets", "4,0;3,1;1,3;0,4", "--primes", "2"],
     lambda: present_monomial_algebra(QUARTIC_CURVE_TARGETS, primes=(2,))),
    (["char-compare", "--targets", "2,0;1,1;0,2", "--primes", "2,3"],
     lambda: char_compare(((2, 0), (1, 1), (0, 2)), primes=(2, 3))),
], ids=["cd-certificate", "present", "char-compare"])
def test_library_report_matches_cli(capsys, argv, build):
    rep = build()
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == render_json(rep.to_report())
    assert code == (0 if rep.verdict else 1)
