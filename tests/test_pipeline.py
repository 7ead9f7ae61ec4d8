"""Certificate assembly: radical covers, the per-characteristic certificate
for square-free Veronese presentations, user-supplied monomial algebras with
witness pairs, cross-characteristic comparison, and the JSON envelope."""
from __future__ import annotations

import json

import pytest

from veronese import groebner, pipeline
from veronese.cli import main
from veronese.groebner import Ideal, ideal_sum
from veronese.pipeline import (
    GENERIC_2X3_GENERATORS, GENERIC_2X3_NAMES, QUARTIC_CURVE_TARGETS,
    Check, Report, ResourceCapError, VARIABLE_CAP, cd_certificate,
    char_compare, ensure_within_cap, present_monomial_algebra,
    radical_cover_check, render_json,
)
from veronese.polycore import PolyRing, QQ
from veronese.toric import monomial_algebra_map, toric_ideal_lattice, veronese_map


def _check_map(report_dict):
    return {c["name"]: c for c in report_dict["checks"]}


# ---------------------------------------------------------------------------
# radical covers
# ---------------------------------------------------------------------------

def test_radical_cover_quartic_vertices_suffice():
    I = toric_ideal_lattice(monomial_algebra_map(QUARTIC_CURVE_TARGETS))
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
    (toric_ideal_lattice(monomial_algebra_map(((2, 0), (1, 1), (0, 2)))),
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
