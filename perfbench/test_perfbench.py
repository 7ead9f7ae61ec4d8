"""Tests of the benchmark itself: seeded inputs, report checks and the
stage tracer.  Run from the checkout root with

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(25)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    gen = workloads.GENERATORS[name]
    assert gen(7) == gen(7)
    assert json.loads(json.dumps(gen(7))) == gen(7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_differs_across_seeds(name):
    gen = workloads.GENERATORS[name]
    assert len({json.dumps(gen(s)) for s in SEEDS}) == len(SEEDS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_stay_within_cap_and_outside_excluded_sizes(name):
    for seed in SEEDS:
        for spec in workloads.GENERATORS[name](seed):
            assert workloads.source_variables(spec) <= workloads.VARIABLE_CAP
            if spec["kind"] == "cd":
                assert (spec["k"], spec["n"]) not in workloads.EXCLUDED_CD
            if spec["kind"] == "present":
                arity = len(spec["targets"][0])
                if arity == 3:
                    assert max(spec["primes"]) < 5
                else:
                    # richer degree-5 curves take up to 24 s at p = 5
                    assert arity == 2
                    assert sum(spec["targets"][0]) < 5 or len(spec["targets"]) <= 3


def test_veronese_heights_follow_the_closed_form():
    for k, n in workloads.COMPARE_VERONESE + workloads.CD_CASES:
        targets = workloads.veronese_targets(k, n)
        assert workloads.toric_height(targets) == workloads.veronese_height(k, n)


def test_char_sweep_parses_the_veronese_quadrics():
    specs = workloads.char_sweep(3)
    parsed = [s for s in specs if "generators" in s]
    assert {tuple(s["veronese"]) for s in parsed} == set(workloads.COMPARE_VERONESE)
    assert all(s["kind"] == "compare" for s in specs)


def test_tail_keeps_ten_reports_beyond_it():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(105) == 90
    assert run.tail_percentile(15) == 50


def test_harrell_davis_estimates_quantiles():
    values = [float(i) for i in range(1, 102)]
    assert run.harrell_davis(values, 0.5) == pytest.approx(51.0, abs=1e-6)
    assert run.harrell_davis(values, 0.9) == pytest.approx(91.0, abs=0.5)
    assert run.harrell_davis([3.0] * 20, 0.8) == pytest.approx(3.0)


def _body(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def test_verify_accepts_a_good_report_and_flags_bad_ones():
    spec = {"kind": "compare", "targets": [[2, 0], [1, 1], [0, 2]],
            "primes": [2], "veronese": [2, 2], "height": 1}
    report = {"kind": "char_compare", "params": {"heights": [1, 1]},
              "checks": [{"name": f"toric_routes_agree_char_{c}",
                          "verdict": True, "details": {}} for c in (0, 2)],
              "cited_facts": [], "verdict": True}
    assert run.verify(spec, _body(report)) == []
    assert run.verify(spec, json.dumps(report)) == ["body is not canonically rendered"]
    wrong = dict(report, params={"heights": [1, 2]})
    assert run.verify(spec, _body(wrong))[0].startswith("heights")
    disagree = dict(report, verdict=False,
                    checks=[dict(report["checks"][0], verdict=False)])
    problems = run.verify(spec, _body(disagree))
    assert "verdict is not true" in problems
    assert any("routes" in p for p in problems)


def _traced_session(specs: list[dict]) -> dict:
    root = HERE.parent
    lines = "".join(json.dumps(s) + "\n" for s in specs)
    out = subprocess.run([sys.executable, str(HERE / "session.py"), "--trace"],
                         input=lines, capture_output=True, text=True, check=True,
                         cwd=root, env=dict(run.ENV), timeout=120)
    answers = [json.loads(ln) for ln in out.stdout.splitlines()]
    assert all("body" in a for a in answers[:-1])
    return answers[-1]["trace"]


def test_trace_counts_repeat_exactly_and_cover_from_imports():
    specs = [workloads._cd(2, 2, (2,)), workloads._present(workloads.QUARTIC_CURVE, (2,)),
             workloads._compare_ideal(2, 3, (3,))]
    first, second = _traced_session(specs), _traced_session(specs)
    layers = [run.layer_metrics(run.merge_traces([t])) for t in (first, second)]
    counts = {n: v for n, (v, u) in layers[0].items() if run.is_count(u)}
    assert counts == {n: v for n, (v, u) in layers[1].items() if run.is_count(u)}
    assert counts["charp.fedder.gb_calls"] > 0
    assert counts["polycore.parse.calls"] > 0
    for module in run.REBOUND_MODULES:
        assert first["rebound"][module]
    assert first["calls"]["pipeline"] == len(specs)
