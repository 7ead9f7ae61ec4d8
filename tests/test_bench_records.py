"""The run records of every ``BENCH_*.json`` at the root of the repository
agree with the summaries built from them.

``perfbench/run.py`` exits 0 only when every report of the run is correct,
so a record with ``exit`` 0 must say ``correct``.  Each ``end_to_end`` block
says ``all_reports_correct`` exactly when every run it summarises is
correct: the block ``end_to_end`` summarises the untraced runs of its
workload at the paired seeds, and ``end_to_end_held_out_<seed>`` those at
that seed."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_HELD_OUT = "end_to_end_held_out_"


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
