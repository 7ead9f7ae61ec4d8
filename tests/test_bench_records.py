"""The run records of every ``BENCH_*.json`` at the root of the repository
agree with the summaries built from them.

``perfbench/run.py`` exits 0 only when every report of the run is correct,
so a record with ``exit`` 0 must say ``correct``.  Each ``end_to_end`` block
says ``all_reports_correct`` exactly when every run it summarises is
correct: the block ``end_to_end`` summarises the untraced runs of its
workload at the paired seeds, and ``end_to_end_held_out_<seed>`` those at
that seed.

A ``claim`` recomputes from the untraced runs of its workload: the medians
of each side, the parent's interquartile range and the change's wins, at
the seeds that are not held out, and the same in each ``held_out_<seed>``
block at that seed.  Runs pair by (seed, ``pair``) where the records number
their pairs, else by their order within each side."""
from __future__ import annotations

import json
import operator
import statistics
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_HELD_OUT = "end_to_end_held_out_"
_CLAIM_HELD_OUT = "held_out_"
_TOLERANCE = 1.5e-4          # the claims are rounded to 4 decimals


def _bench_files():
    return sorted(p.name for p in _ROOT.glob("BENCH_*.json")
                  if "runs" in json.loads(p.read_text("utf-8")))


def _load(name):
    return json.loads((_ROOT / name).read_text("utf-8"))


def _run_records(bench):
    """Every run record: the top-level ``runs`` and the ``runs`` of any
    top-level section that holds some."""
    records = list(bench["runs"])
    for value in bench.values():
        if isinstance(value, dict) and isinstance(value.get("runs"), list):
            records += value["runs"]
    return records


def _blocks(bench):
    """(block name, workload, summary, the runs it summarises)."""
    untraced = [r for r in bench["runs"] if not r.get("trace")]
    held_out = {int(name[len(_HELD_OUT):]) for name in bench
                if name.startswith(_HELD_OUT)}
    for name, section in bench.items():
        if name == "end_to_end":
            seeds = {r["seed"] for r in untraced} - held_out
        elif name.startswith(_HELD_OUT):
            seeds = {int(name[len(_HELD_OUT):])}
        else:
            continue
        for workload, summary in section.items():
            runs = [r for r in untraced
                    if r["workload"] == workload and r["seed"] in seeds]
            yield name, workload, summary, runs


def test_some_files_hold_run_records():
    assert len(_bench_files()) >= 5


@pytest.mark.parametrize("name", _bench_files())
def test_a_run_that_exits_0_is_correct(name):
    for record in _run_records(_load(name)):
        if record.get("exit") == 0:
            assert record["correct"] is True, record


@pytest.mark.parametrize("name", _bench_files())
def test_every_block_is_correct_exactly_when_its_runs_are(name):
    for block, workload, summary, runs in _blocks(_load(name)):
        where = f"{block}/{workload}"
        assert runs, where
        assert summary["all_reports_correct"] == \
            all(r["correct"] for r in runs), where


def _claimed_files():
    return [name for name in _bench_files() if "claim" in _load(name)]


def _pairs(runs):
    """The parent runs and the change runs, position i of each one pair."""
    parent = [r for r in runs if r["side"] == "parent"]
    change = [r for r in runs if r["side"] == "change"]
    if all("pair" in r for r in runs):
        by_pair = {(r["seed"], r["pair"]): r for r in change}
        change = [by_pair.pop((r["seed"], r["pair"])) for r in parent]
        assert not by_pair, "change runs without a parent run"
    assert len(parent) == len(change)
    return parent, change


def _recomputed(runs, metric):
    parent, change = _pairs(runs)
    p = [r["metrics"][metric] for r in parent]
    c = [r["metrics"][metric] for r in change]
    better = operator.gt if metric == "ok_frac" else operator.lt
    q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
    return {"parent_median": statistics.median(p),
            "change_median": statistics.median(c),
            "parent_iqr": q3 - q1,
            "change_wins": f"{sum(map(better, c, p))}/{len(p)}"}


def test_some_files_hold_claims():
    assert len(_claimed_files()) >= 9


@pytest.mark.parametrize("name", _claimed_files())
def test_claims_recompute_from_their_runs(name):
    bench = _load(name)
    claim = bench["claim"]
    assert "parent_iqr" in claim
    runs = [r for r in bench["runs"]
            if not r.get("trace") and r["workload"] == claim["workload"]]
    held_out = {int(key[len(_CLAIM_HELD_OUT):]) for key in claim
                if key.startswith(_CLAIM_HELD_OUT)}
    blocks = [("claim", claim, [r for r in runs if r["seed"] not in held_out])]
    blocks += [(f"{_CLAIM_HELD_OUT}{seed}", claim[f"{_CLAIM_HELD_OUT}{seed}"],
                [r for r in runs if r["seed"] == seed]) for seed in held_out]
    for block, stated, block_runs in blocks:
        got = _recomputed(block_runs, claim["metric"])
        assert {"parent_median", "change_median", "change_wins"} <= \
            stated.keys(), block
        assert stated["change_wins"] == got["change_wins"], block
        for key in ("parent_median", "change_median", "parent_iqr"):
            if key in stated:
                assert abs(stated[key] - got[key]) <= _TOLERANCE, \
                    (block, key, stated[key], got[key])
