"""Alternating parent/change pairs of benchmark runs, written as a BENCH file.

    python tools/bench_pairs.py PARENT CHANGE --out FILE
        [--workload W ...] [--pairs 10] [--seed 1]
        [--held-out 7919] [--seconds 30] [--trace 0]
        [--claim WORKLOAD:METRIC] [--note TEXT]

PARENT and CHANGE are the roots of two checkouts.  For each workload, in
the order given, the driver runs ``--pairs`` pairs at ``--seed`` and then
as many at each ``--held-out`` seed.  A pair is one run of
``perfbench/run.py --workload W --seed S --seconds N --trace T`` in each
tree, started in that tree's root, one at a time; the parent goes first
in even pairs and the change in odd ones, so neither side always meets a
machine that has just warmed up.

Each run becomes one record: where it ran (``workload``, ``seed``,
``pair``, ``side``, ``first``, ``trace``), its ``exit`` status and wall
time, and the fields of its result line, the last line of its stdout,
copied as they are, except that each metric keeps only its value (its unit
is in ``BENCHMARK.json``).  A run that prints no result line is recorded as
not correct, with its last line of stderr.

Untraced runs are summarised per workload and metric of ``BENCHMARK.json``
``end_to_end``: the median and quartiles of each side
(``statistics.quantiles(n=4, method="inclusive")``), the change's wins (a
pair in which the change reads better; ties count for neither side) and
whether the change's median is within the metric's bound: ``"unresolved"``
when the parent's interquartile range is wider than the bound, relative
to its median, and not every change run beats every parent run.  The block
``end_to_end`` holds the paired seed and ``end_to_end_held_out_<seed>``
each held-out seed.  ``--claim`` adds a ``claim`` block for one workload
and metric, with a ``held_out_<seed>`` block per held-out seed; it is met
when the change wins at least 9 pairs in 10, its median is better than
the parent's by more than the parent's interquartile range, and its median
is better at every held-out seed too.  Traced runs are summarised by
``traced_counts``: whether every count metric of the change equals the
parent's in every pair.  ``--note`` is written as the file's ``note``,
what the runs measure, so that the file needs no editing by hand.

Exits 0 when every run is correct, 1 when one is not, and 2 when the file
cannot be written.  Standard library only; writes nothing but ``--out``
(and what the runs themselves write).
"""
from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("certify", "char-sweep", "session")
SIDES = ("parent", "change")


def run_command(workload: str, seed: int, seconds: int, trace: int
                ) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def record(where: dict, code: int, stdout: str, stderr: str,
           wall_s: float) -> dict:
    """The run record of one finished run (see the module docstring)."""
    rec = dict(where, exit=code)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, TypeError, KeyError):
        err = stderr.strip().splitlines()
        rec.update(correct=False, error=err[-1] if err else "no result line")
    else:
        rec.update({k: v for k, v in result.items() if k != "metrics"})
        rec["metrics"] = metrics
    rec["wall_s"] = round(wall_s, 1)
    return rec


def run_one(tree: Path, where: dict, seconds: int) -> dict:
    start = perf_counter()
    proc = subprocess.run(
        run_command(where["workload"], where["seed"], seconds,
                    where["trace"]),
        cwd=tree, capture_output=True, text=True)
    return record(where, proc.returncode, proc.stdout, proc.stderr,
                  perf_counter() - start)


def schedule(workloads, pairs: int, seed: int, held_out, trace: int):
    """Where each run goes, in the order the runs are made."""
    for workload in workloads:
        for s in [seed, *held_out]:
            for pair in range(pairs):
                first = SIDES[pair % 2]
                for side in (first, SIDES[1 - SIDES.index(first)]):
                    yield {"workload": workload, "seed": s, "pair": pair,
                           "side": side, "first": first, "trace": trace}


# -- summaries -------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def paired(runs: list[dict], metric: str) -> tuple[list, list]:
    """The parent's and the change's values of ``metric``, pair by pair
    (by seed and ``pair``), over the pairs in which both runs have it."""
    by_pair = {(r["seed"], r["pair"], r["side"]): r for r in runs}
    parent, change = [], []
    for (seed, pair, side), r in sorted(by_pair.items()):
        other = by_pair.get((seed, pair, "change"))
        if side == "parent" and other is not None \
                and metric in r.get("metrics", {}) \
                and metric in other.get("metrics", {}):
            parent.append(r["metrics"][metric])
            change.append(other["metrics"][metric])
    return parent, change


def compare(parent: list[float], change: list[float], better) -> dict:
    """Medians, the parent's IQR and the change's wins of paired values;
    a tie is a win for neither side."""
    q1, q3 = quartiles(parent)
    return {"parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "wins": sum(map(better, change, parent))}


def _better(spec: dict):
    return operator.lt if spec["better"] == "lower" else operator.gt


def _pct(new: float, old: float) -> float:
    return round(100 * (new - old) / old, 1) if old else 0.0


def metric_summary(runs: list[dict], spec: dict) -> dict:
    parent, change = paired(runs, spec["name"])
    if not parent:
        return {"pairs": 0}
    stats = compare(parent, change, _better(spec))
    side = {}
    for name, values in (("parent", parent), ("change", change)):
        q1, q3 = quartiles(values)
        side[name] = {"n": len(values),
                      "median": round(statistics.median(values), 5),
                      "q1": round(q1, 5), "q3": round(q3, 5)}
    pm, cm = stats["parent_median"], stats["change_median"]
    worse = (cm - pm) if spec["better"] == "lower" else (pm - cm)
    pq1, pq3 = quartiles(parent)
    bound = spec["bound"] * abs(pm)
    better = _better(spec)
    resolved = stats["parent_iqr"] <= bound or all(
        better(c, p) for c in change for p in parent)
    return {**side,
            "change_wins": f"{stats['wins']}/{len(parent)}",
            "median_change_pct": _pct(cm, pm),
            "parent_iqr": round(stats["parent_iqr"], 5),
            "change_median_within_parent_quartiles": pq1 <= cm <= pq3,
            "within_bound": worse <= bound if resolved else "unresolved"}


def end_to_end(runs: list[dict], specs: list[dict]) -> dict:
    """One summary per workload of the untraced ``runs`` of one seed set."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        block = {"pairs": len({(r["seed"], r["pair"]) for r in mine}),
                 "all_reports_correct": all(r["correct"] for r in mine)}
        for spec in specs:
            block[spec["name"]] = metric_summary(mine, spec)
        out[workload] = block
    return out


def claim_block(runs: list[dict], spec: dict) -> tuple[dict, bool]:
    """The claim numbers of ``runs``, rounded, and whether the change wins
    at least 9 pairs in 10 by a median gap wider than the parent's IQR."""
    parent, change = paired(runs, spec["name"])
    stats = compare(parent, change, _better(spec))
    pm, cm = stats["parent_median"], stats["change_median"]
    gap = pm - cm if spec["better"] == "lower" else cm - pm
    strong = (10 * stats["wins"] >= 9 * len(parent)
              and gap > stats["parent_iqr"])
    return {"parent_median": round(pm, 4), "change_median": round(cm, 4),
            "median_change_pct": _pct(cm, pm),
            "parent_iqr": round(stats["parent_iqr"], 4),
            "change_wins": f"{stats['wins']}/{len(parent)}"}, strong


def claim(runs: list[dict], spec: dict, workload: str, seed: int,
          held_out) -> dict:
    """The claim block of ``spec`` on ``workload``: met when it is strong
    at ``seed`` and the change's median is better at every held-out seed."""
    mine = [r for r in runs if r["workload"] == workload]
    block, met = claim_block([r for r in mine if r["seed"] == seed], spec)
    out = {"workload": workload, "metric": spec["name"], **block}
    for h in held_out:
        block, _ = claim_block([r for r in mine if r["seed"] == h], spec)
        out[f"held_out_{h}"] = block
        met = met and _better(spec)(block["change_median"],
                                    block["parent_median"])
    out["met"] = met
    return out


def traced_counts(runs: list[dict], count_metrics: list[str]) -> dict:
    """Per workload, each count metric of each side in pair order, and
    whether the change's equal the parent's in every pair."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        block = {"equal": True}
        for name in count_metrics:
            parent, change = paired(mine, name)
            if parent:
                block[name] = {"parent": parent, "change": change}
                block["equal"] = block["equal"] and parent == change
        out[workload] = block
    return out


def bench(runs: list[dict], spec: dict, args: argparse.Namespace) -> dict:
    """The BENCH file of ``runs`` under the benchmark definition ``spec``."""
    out = {
        "machine": f"{os.cpu_count()}-core {platform.system()}, "
                   f"{platform.python_implementation()} "
                   f"{platform.python_version()}",
        "command": " ".join(run_command("<w>", "<s>", args.seconds,
                                        args.trace)[1:]),
        "method": (
            "tools/bench_pairs.py: alternating parent/change pairs, one run "
            "at a time, the side that runs first alternating from pair to "
            "pair. Quartiles are statistics.quantiles(n=4, "
            "method='inclusive') over the runs of one side. A win is a pair "
            "in which the change reads better (lower, or higher where "
            "better is higher); ties count for neither side. within_bound: "
            "the change's median is worse than the parent's by no more than "
            "the BENCHMARK.json bound, relative to the parent's median; "
            "'unresolved' when the parent's IQR is wider than that bound "
            "and not every change run beats every parent run."),
        "seeds": {"paired": args.seed, "pairs": args.pairs,
                  "held_out": args.held_out},
    }
    if args.note:
        out = {"note": args.note, **out}
    if args.trace:
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] == "count"]
        out["traced_counts"] = traced_counts(runs, counts)
    else:
        if args.claim:
            workload, metric = args.claim
            metric_spec = next(m for m in spec["end_to_end"]
                               if m["name"] == metric)
            out["claim"] = claim(runs, metric_spec, workload, args.seed,
                                 args.held_out)
        out["end_to_end"] = end_to_end(
            [r for r in runs if r["seed"] == args.seed], spec["end_to_end"])
        for h in args.held_out:
            out[f"end_to_end_held_out_{h}"] = end_to_end(
                [r for r in runs if r["seed"] == h], spec["end_to_end"])
    out["runs"] = runs
    return out


def _claim_arg(text: str) -> tuple[str, str]:
    workload, sep, metric = text.partition(":")
    if not sep or workload not in WORKLOADS:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC, got "
                                         f"{text!r}")
    return workload, metric


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the change tree")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for more; default all three")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", type=int, action="append", default=[])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", type=_claim_arg)
    parser.add_argument("--note", help="what the runs measure, written as "
                        "the file's note")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seed in args.held_out:
        parser.error("a held-out seed must differ from --seed")
    if args.claim and args.trace:
        parser.error("a claim is made on untraced runs")
    if args.claim and args.claim[0] not in (args.workload or WORKLOADS):
        parser.error("the claimed workload is not run")
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    spec = json.loads((args.change / "BENCHMARK.json").read_text("utf-8"))
    if args.claim and args.claim[1] not in [
            m["name"] for m in spec["end_to_end"]]:
        parser.error(f"no end-to-end metric {args.claim[1]!r}")

    trees = dict(zip(SIDES, (args.parent, args.change)))
    runs = []
    for where in schedule(args.workload or WORKLOADS, args.pairs, args.seed,
                          args.held_out, args.trace):
        rec = run_one(trees[where["side"]], where, args.seconds)
        runs.append(rec)
        print(f"{rec['workload']} seed {rec['seed']} pair {rec['pair']} "
              f"{rec['side']}: exit {rec['exit']}, {rec['wall_s']} s",
              file=sys.stderr, flush=True)
    try:
        args.out.write_text(json.dumps(bench(runs, spec, args), indent=2)
                            + "\n", "utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
