"""The pair driver ``tools/bench_pairs.py``: the order of its runs, its
median, interquartile-range and wins arithmetic on synthetic run records,
ties included, its claim rule, the file it writes, which must pass the
checks of ``tests/test_bench_records.py``, and its exit status, on two
stand-in trees whose ``perfbench/run.py`` prints canned results."""
from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

import test_bench_records

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "bench_pairs.py"
_SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text("utf-8"))
_RUN_REL = next(m for m in _SPEC["end_to_end"] if m["name"] == "run_rel")
_OK_FRAC = next(m for m in _SPEC["end_to_end"] if m["name"] == "ok_frac")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool()


def _runs(parent, change, workload="session", seed=1, metric="run_rel",
          correct=True):
    """Untraced records of paired values, the parent first in even pairs."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        first = "parent" if pair % 2 == 0 else "change"
        for side, value in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "seed": seed, "pair": pair,
                         "side": side, "first": first, "trace": 0,
                         "exit": 0 if correct else 1, "correct": correct,
                         "metrics": {metric: value}})
    return runs


def test_pairs_alternate_which_side_goes_first():
    where = list(bench_pairs.schedule(["certify", "session"], 3, 1, [7919],
                                      0))
    assert len(where) == 2 * 2 * (3 + 3)
    assert [(w["workload"], w["seed"], w["pair"], w["side"])
            for w in where[:6]] == [
        ("certify", 1, 0, "parent"), ("certify", 1, 0, "change"),
        ("certify", 1, 1, "change"), ("certify", 1, 1, "parent"),
        ("certify", 1, 2, "parent"), ("certify", 1, 2, "change")]
    assert [(w["seed"], w["pair"], w["side"]) for w in where[6:12]] == [
        (7919, 0, "parent"), (7919, 0, "change"),
        (7919, 1, "change"), (7919, 1, "parent"),
        (7919, 2, "parent"), (7919, 2, "change")]
    assert all(w["first"] == ("parent", "change")[w["pair"] % 2]
               for w in where)


def test_median_iqr_and_wins_of_paired_values():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 6.0]
    stats = bench_pairs.compare(parent, change,
                                bench_pairs._better(_RUN_REL))
    assert stats == {"parent_median": 3.0, "change_median": 2.5,
                     "parent_iqr": 2.0, "wins": 3}
    # one value per side: no spread
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0)


def test_ties_count_for_neither_side():
    parent = [1.0, 1.0, 1.0, 2.0]
    change = [1.0, 1.0, 0.5, 2.0]
    for spec, wins in ((_RUN_REL, "1/4"), (_OK_FRAC, "0/4")):
        summary = bench_pairs.metric_summary(
            _runs(parent, change, metric=spec["name"]), spec)
        assert summary["change_wins"] == wins
    stats = bench_pairs.compare(parent, change,
                                bench_pairs._better(_OK_FRAC))
    assert stats["wins"] == 0


def test_values_pair_by_seed_and_pair_number_not_by_position():
    runs = _runs([1.0, 2.0, 3.0], [1.5, 1.0, 2.0])
    # records out of order, and a pair with one side only
    runs = runs[::-1] + [dict(runs[0], pair=9)]
    assert bench_pairs.paired(runs, "run_rel") == ([1.0, 2.0, 3.0],
                                                   [1.5, 1.0, 2.0])


def test_metric_summary_reads_like_the_earlier_files():
    parent = [0.040, 0.041, 0.039, 0.042, 0.040]
    change = [0.038, 0.039, 0.040, 0.037, 0.038]
    got = bench_pairs.metric_summary(_runs(parent, change), _RUN_REL)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert got["parent"] == {"n": 5, "median": 0.04, "q1": round(q1, 5),
                             "q3": round(q3, 5)}
    assert got["change"]["median"] == 0.038
    assert got["change_wins"] == "4/5"
    assert got["median_change_pct"] == -5.0
    assert got["parent_iqr"] == round(q3 - q1, 5)
    assert got["change_median_within_parent_quartiles"] is False
    assert got["within_bound"] is True
    worse = bench_pairs.metric_summary(
        _runs(parent, [v * 1.25 for v in parent]), _RUN_REL)
    assert worse["within_bound"] is False         # +25% past a 20% bound


def test_a_bound_narrower_than_the_parent_spread_is_unresolved():
    parent = [1.0, 1.0, 0.98, 1.0, 1.02]          # IQR 0 of median 1.0
    steady = bench_pairs.metric_summary(
        _runs(parent, [1.0, 1.0, 1.0, 1.0, 1.0], metric="ok_frac"),
        _OK_FRAC)
    assert steady["within_bound"] is True
    parent = [1.0, 0.9, 0.95, 1.0, 0.92]          # IQR 0.08, bound 0.01
    for change, within in (([1.0, 0.9, 0.95, 1.0, 0.92], "unresolved"),
                           ([1.01, 1.01, 1.02, 1.01, 1.03], True)):
        summary = bench_pairs.metric_summary(
            _runs(parent, change, metric="ok_frac"), _OK_FRAC)
        assert summary["within_bound"] == within


def test_a_claim_is_met_only_by_nine_wins_in_ten_past_the_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    better = [p - 0.1 for p in parent]
    held = _runs(parent, better, seed=7919)

    claim = bench_pairs.claim(_runs(parent, better) + held, _RUN_REL,
                              "session", 1, [7919])
    assert claim["met"] is True
    assert claim["change_wins"] == "10/10"
    assert claim["held_out_7919"]["change_wins"] == "10/10"

    eight = better[:8] + parent[8:]               # two ties: 8/10
    assert not bench_pairs.claim(_runs(parent, eight) + held, _RUN_REL,
                                 "session", 1, [7919])["met"]
    small = [p - 0.001 for p in parent]           # 10/10 inside the IQR
    assert not bench_pairs.claim(_runs(parent, small) + held, _RUN_REL,
                                 "session", 1, [7919])["met"]
    held_worse = _runs(parent, [p + 0.1 for p in parent], seed=7919)
    assert not bench_pairs.claim(_runs(parent, better) + held_worse,
                                 _RUN_REL, "session", 1, [7919])["met"]


def _namespace(**kw):
    args = dict(seed=1, pairs=3, held_out=[7919], seconds=30, trace=0,
                claim=("session", "run_rel"), note=None)
    return argparse.Namespace(**{**args, **kw})


def _full_runs(parent, change, seed):
    """Records with every end-to-end metric, each at the run's value."""
    runs = _runs(parent, change, seed=seed)
    for r in runs:
        value = r["metrics"]["run_rel"]
        r["metrics"] = {m["name"]: value for m in _SPEC["end_to_end"]}
    return runs


def _check_like_the_record_tests(bench):
    """The assertions of ``tests/test_bench_records.py`` on one file."""
    for block, workload, summary, runs in test_bench_records._blocks(bench):
        assert runs, (block, workload)
        assert summary["all_reports_correct"] == \
            all(r["correct"] for r in runs)
    claim = bench["claim"]
    runs = [r for r in bench["runs"] if r["workload"] == claim["workload"]]
    for name, seed in (("claim", 1), ("held_out_7919", 7919)):
        stated = claim if name == "claim" else claim[name]
        got = test_bench_records._recomputed(
            [r for r in runs if r["seed"] == seed], claim["metric"])
        assert stated["change_wins"] == got["change_wins"]
        for key in ("parent_median", "change_median", "parent_iqr"):
            assert abs(stated[key] - got[key]) <= 1.5e-4


def test_the_file_passes_the_record_checks():
    runs = (_full_runs([1.0, 1.1, 0.9], [0.8, 0.9, 0.7], 1)
            + _full_runs([1.2, 1.0, 1.1], [1.0, 1.1, 1.0], 7919))
    bench = bench_pairs.bench(runs, _SPEC, _namespace())
    assert [k for k in bench if k.startswith("end_to_end")] == [
        "end_to_end", "end_to_end_held_out_7919"]
    assert bench["end_to_end"]["session"]["pairs"] == 3
    assert bench["end_to_end_held_out_7919"]["session"]["pairs"] == 3
    assert bench["runs"] is runs
    _check_like_the_record_tests(bench)


def test_traced_runs_compare_every_count():
    counts = [m["name"] for m in _SPEC["per_layer"] if m["unit"] == "count"]
    runs = _runs([1, 1], [1, 1], metric=counts[0])
    for r in runs:
        r["trace"] = 1
    assert bench_pairs.traced_counts(runs, counts) == {
        "session": {"equal": True, counts[0]: {"parent": [1, 1],
                                               "change": [1, 1]}}}
    runs[-1]["metrics"][counts[0]] = 2
    assert bench_pairs.traced_counts(runs, counts)["session"]["equal"] \
        is False


# -- the driver end to end, on stand-in trees ------------------------------

_FAKE_RUN = '''\
import json, sys
value = {value!r}
if value is None:
    print("Traceback: boom", file=sys.stderr)
    sys.exit(1)
print(json.dumps({{"details": True}}))
print(json.dumps({{"correct": {correct!r}, "attempted": 4, "failed": 0,
                   "metrics": {{"run_rel": {{"value": value, "unit": "ratio"}},
                                "ok_frac": {{"value": 1.0, "unit": "ratio"}}}}}}))
sys.exit(0 if {correct!r} else 1)
'''


def _tree(root, value, correct=True):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        _FAKE_RUN.format(value=value, correct=correct), "utf-8")
    (root / "BENCHMARK.json").write_text(json.dumps(_SPEC), "utf-8")
    return root


def _drive(tmp_path, parent, change, *extra):
    out = tmp_path / "bench.json"
    code = bench_pairs.main([str(parent), str(change), "--out", str(out),
                             "--workload", "session", "--pairs", "2",
                             "--seconds", "1", *extra])
    return code, json.loads(out.read_text("utf-8"))


def test_the_driver_copies_each_result_and_exits_0(tmp_path):
    parent = _tree(tmp_path / "parent", 0.04)
    change = _tree(tmp_path / "change", 0.03)
    code, bench = _drive(tmp_path, parent, change, "--claim",
                         "session:run_rel")
    assert code == 0
    assert [(r["side"], r["metrics"]["run_rel"]) for r in bench["runs"]] == [
        ("parent", 0.04), ("change", 0.03), ("change", 0.03),
        ("parent", 0.04)]
    run = bench["runs"][0]
    assert {k: run[k] for k in ("exit", "correct", "attempted", "failed",
                                "trace")} == {
        "exit": 0, "correct": True, "attempted": 4, "failed": 0, "trace": 0}
    assert bench["claim"]["change_wins"] == "2/2"
    assert bench["end_to_end"]["session"]["all_reports_correct"] is True


def test_the_note_opens_the_file(tmp_path):
    parent = _tree(tmp_path / "parent", 0.04)
    code, bench = _drive(tmp_path, parent, parent, "--note", "self vs self")
    assert code == 0
    assert next(iter(bench.items())) == ("note", "self vs self")


def test_the_driver_exits_1_when_a_run_is_not_correct(tmp_path):
    parent = _tree(tmp_path / "parent", 0.04)
    change = _tree(tmp_path / "change", 0.03, correct=False)
    code, bench = _drive(tmp_path, parent, change)
    assert code == 1
    assert bench["end_to_end"]["session"]["all_reports_correct"] is False
    for r in bench["runs"]:
        assert r["correct"] is (r["side"] == "parent")


def test_a_run_without_a_result_line_is_recorded_as_not_correct(tmp_path):
    parent = _tree(tmp_path / "parent", 0.04)
    change = _tree(tmp_path / "change", None)
    code, bench = _drive(tmp_path, parent, change)
    assert code == 1
    for r in bench["runs"]:
        if r["side"] == "change":
            assert (r["exit"], r["correct"], r["error"]) == (
                1, False, "Traceback: boom")
            assert "metrics" not in r
    assert bench["end_to_end"]["session"]["run_rel"] == {"pairs": 0}


def test_the_driver_exits_2_when_the_file_cannot_be_written(tmp_path):
    parent = _tree(tmp_path / "parent", 0.04)
    out = tmp_path / "missing" / "bench.json"
    assert bench_pairs.main([str(parent), str(parent), "--out", str(out),
                             "--workload", "session", "--pairs", "1"]) == 2


def test_the_driver_refuses_a_tree_without_the_benchmark(tmp_path, capsys):
    parent = _tree(tmp_path / "parent", 0.04)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(parent), str(tmp_path), "--out",
                          str(tmp_path / "b.json")])
    assert exc.value.code == 2
    assert "no perfbench/run.py" in capsys.readouterr().err


def test_the_command_runs_the_benchmark_with_this_interpreter():
    assert bench_pairs.run_command("session", 1, 30, 0) == [
        sys.executable, "perfbench/run.py", "--workload", "session",
        "--seed", "1", "--seconds", "30", "--trace", "0"]
