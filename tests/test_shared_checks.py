"""One computation per algebra: the toric routes, the height, the derived
localized-CI verdicts and the radical cover of a report are computed once,
over QQ, and serve every characteristic.

The oracle, ``conftest.per_characteristic_checks``, builds every check in
each field on its own; the reports it gives must be those of the shared
computation, byte for byte."""
from __future__ import annotations

import json

import pytest

from conftest import (
    _clear_groebner_caches, perfbench_module, per_characteristic_checks,
)
from test_golden_reports import CASES, _replay

import veronese
from veronese import pipeline
from veronese.cli import main
from veronese.groebner import Ideal
from veronese.pipeline import (
    QUARTIC_CURVE_TARGETS, cd_certificate, char_compare,
    present_monomial_algebra,
)
from veronese.polycore import GF, PolyRing, Polynomial, QQ
from veronese.toric import veronese_map

_SEEDS = (3, 5, 7919)


def _per_field(monkeypatch):
    monkeypatch.setattr(pipeline, "_characteristic_checks",
                        per_characteristic_checks)


def _both_ways(monkeypatch, run):
    """``run()`` with the shared checks and with the per-field oracle, the
    caches cleared before each."""
    _clear_groebner_caches()
    shared = run()
    with monkeypatch.context() as patch:
        _per_field(patch)
        _clear_groebner_caches()
        per_field = run()
    _clear_groebner_caches()
    return shared, per_field


def _library_bodies(specs) -> list[str]:
    session = perfbench_module("session")
    return [session.library_report(veronese, spec) for spec in specs]


def _library_specs(seed: int) -> list[dict]:
    workloads = perfbench_module("workloads")
    return [spec for generate in workloads.GENERATORS.values()
            for spec in generate(seed)]


# ---------------------------------------------------------------------------
# the per-characteristic oracle
# ---------------------------------------------------------------------------

def test_golden_cases_equal_the_per_field_checks(monkeypatch):
    shared, per_field = _both_ways(
        monkeypatch, lambda: [_replay(argv) for argv in CASES.values()])
    assert shared == per_field


@pytest.mark.parametrize("seed", _SEEDS)
def test_library_reports_equal_the_per_field_checks(monkeypatch, seed):
    specs = _library_specs(seed)
    shared, per_field = _both_ways(monkeypatch,
                                   lambda: _library_bodies(specs))
    assert len(shared) == len(specs) > 50
    assert shared == per_field


def test_gf2_reports_equal_the_per_field_checks(monkeypatch):
    """Over GF(2), where -1 = 1 and a pure difference is a sum."""
    specs = [dict(spec, primes=[2]) for spec in _library_specs(3)]

    def run():
        reports = [cd_certificate(k, n, (2,))
                   for k, n in ((1, 2), (2, 2), (2, 3), (3, 2))]
        for subset in ((0, 3), (0,), (1, 2), (3, 0, 3)):
            reports.append(present_monomial_algebra(
                QUARTIC_CURVE_TARGETS, primes=(2,), radical_subset=subset))
        reports.append(present_monomial_algebra(
            ((4, 0), (3, 1), (0, 4)), primes=(2,), radical_subset=(1,)))
        reports.append(char_compare(veronese_map(3, 2).targets, primes=(2,)))
        return ([pipeline.render_json(r.to_report()) for r in reports]
                + _library_bodies(specs))

    shared, per_field = _both_ways(monkeypatch, run)
    assert shared == per_field
    assert sum('"verdict": false' in body for body in shared) > 2


def test_given_candidates_are_checked_in_each_field(monkeypatch):
    """A given candidate whose coefficients vanish mod 2 is the zero
    polynomial over GF(2): that field's check fails, as it did when every
    field was checked on its own, and the other fields' do not."""
    argv = ["present", "--targets", "2,0;1,1;0,2", "--primes", "2,3",
            "--ci", "t1:2*t2^2-2*t1*t3"]
    shared, per_field = _both_ways(monkeypatch, lambda: _replay(argv))
    assert shared == per_field
    got, err = shared
    assert err == "" and got["exit_code"] == 1
    checks = {c["name"]: c for c in json.loads(got["stdout"])["checks"]}
    assert checks["localized_ci_char_2_t1"]["details"]["candidates"] == ["0"]
    assert checks["localized_ci_char_2_t1"]["verdict"] is False
    assert checks["localized_ci_char_3_t1"]["details"]["candidates"] == [
        "2*t2^2 + t1*t3"]
    assert checks["localized_ci_char_0_t1"]["verdict"] is True
    assert checks["localized_ci_char_3_t1"]["verdict"] is True


def test_derived_charts_are_checked_once(monkeypatch, groebner_caches):
    """The derived charts of a Veronese certificate are checked over QQ
    only, whatever primes it names; their candidates are written in each
    field."""
    fields = []
    ci_check = pipeline.ci_check

    def record(ideal, *args):
        fields.append(ideal.ring.domain)
        return ci_check(ideal, *args)

    monkeypatch.setattr(pipeline, "ci_check", record)
    report = cd_certificate(2, 3, (2, 3, 5)).to_report()
    assert fields == [QQ, QQ]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["localized_ci_char_0_t1"]["details"]["candidates"] == [
        "-t2^2 + t1*t3", "-t2^3 + t1^2*t4"]
    assert checks["localized_ci_char_2_t1"]["details"]["candidates"] == [
        "t2^2 + t1*t3", "t2^3 + t1^2*t4"]
    assert checks["localized_ci_char_5_t1"]["details"]["candidates"] == [
        "4*t2^2 + t1*t3", "4*t2^3 + t1^2*t4"]


def test_a_specialised_ideal_must_be_pure_differences(monkeypatch, capsys):
    """Only a reduced basis of monomials and monic pure differences reads
    over every field; any other element is an engine fault (exit 4)."""
    ring = PolyRing(("t1", "t2", "t3"), QQ)
    for text in ("t2^2 - 2*t1*t3", "t2^2 + t1*t3", "t2^2 - t1*t3 + t1^2"):
        with pytest.raises(RuntimeError, match="pure difference"):
            pipeline._specialise(Ideal(ring, (ring.parse(text),)), GF(3))
    conic = Ideal(ring, (ring.parse("t2^2 - t1*t3"), ring.parse("t1^3")))
    over_gf2 = pipeline._specialise(conic, GF(2))
    assert [str(g) for g in over_gf2.generators] == ["t2^2 + t1*t3", "t1^3"]
    assert pipeline._specialise(conic, QQ) is conic

    presentation = pipeline._presentation
    doubled = Ideal(ring, (Polynomial(ring, tuple(
        (m, 2 * c) for m, c in ring.parse("t2^2 - t1*t3").terms)),))
    monkeypatch.setattr(pipeline, "_presentation",
                        lambda mmap: (doubled, *presentation(mmap)[1:]))
    code = main(["cd-certificate", "-k", "2", "-n", "2", "--primes", "2"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("internal error: RuntimeError: ")


def test_the_cover_is_computed_once(monkeypatch, groebner_caches):
    """One radical cover per report, over QQ, whatever primes it names; each
    characteristic's record has its own details, equal to the others'."""
    fields = []
    radical_cover = pipeline._radical_cover

    def record(ideal, subset):
        fields.append(ideal.ring.domain)
        return radical_cover(ideal, subset)

    monkeypatch.setattr(pipeline, "_radical_cover", record)
    report = present_monomial_algebra(((4, 0), (3, 1), (0, 4)),
                                      primes=(2, 3), radical_subset=(1, 1))
    assert fields == [QQ]
    covers = [c for c in report.checks if c.name.startswith("radical_cover")]
    assert [c.name for c in covers] == [
        "radical_cover_char_0", "radical_cover_char_2", "radical_cover_char_3"]
    assert not any(c.verdict for c in covers)
    assert covers[0].details["subset"] == ["t2"]
    for a, b in zip(covers, covers[1:]):
        assert a.details == b.details
        assert a.details["witnesses"] is not b.details["witnesses"]
