"""Benchmark of the veronese toolkit: whole reports, end to end, and the
stages inside them.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  The workloads are described in ``workloads.py`` and the
metrics in ``README.md``.  Each run is a closed loop with one client: one
report at a time, every second one preceded by one run of the reference
kernel (``refkernel.py``) in its own process.  ``certify`` and ``char-sweep``
start one ``python -m veronese`` process per report; ``session`` sends
every report of a pass to one long-lived library process (``session.py``).

A run makes a fixed number of passes over its seeded inputs, sized from
``--seconds``, so that runs of one commit always do the same work.  Every
report is checked (see ``verify``).  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` runs every report twice, plain and under
``stagetrace.Tracer``, checks that the two bodies are byte-identical, and
prints the per-layer metrics.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds details such as the tail percentile.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from math import ceil
from pathlib import Path
from time import perf_counter

import workloads
from stagetrace import TRACE_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable
#: children import the package from src/ and may cache its bytecode, as an
#: installed CLI does; the warm-up import writes the cache before timing
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = str(SRC)

#: seconds one plain pass over each workload's inputs takes on the 2-core
#: box the benchmark was sized on; a run makes seconds / this many passes
PASS_SECONDS = {"certify": 8.0, "char-sweep": 5.0, "session": 7.0}
#: a traced pass runs every report plain and traced, so it costs this much more
TRACED_PASS_COST = 2.2
#: one reference-kernel run precedes every REF_EVERY-th report, and one
#: set-up sample (interpreter start plus ``import veronese``) follows every
#: SETUP_EVERY-th, so machine speed is sampled all through the run
REF_EVERY = 2
SETUP_EVERY = 4
REPORT_TIMEOUT_S = 60.0
#: no pass starts after this many seconds, so a run ends within 180 s
PASS_DEADLINE_S = 120.0
TAIL_BEYOND = 10

#: stages that must record at least one call on each workload
REQUIRED_STAGES = {
    "certify": ("pipeline", "render", "toric.elimination", "toric.lattice",
                "toric.minimal_generators", "toric.ci", "invariants.height",
                "charp.fedder", "charp.semigroup", "groebner.buchberger",
                "groebner.normal_form", "groebner.colon",
                "groebner.intersect", "groebner.eliminate",
                "groebner.saturate", "groebner.ideal_equal"),
    "char-sweep": ("pipeline", "render", "toric.elimination",
                   "toric.lattice", "invariants.height", "polycore.parse",
                   "groebner.buchberger", "groebner.eliminate",
                   "groebner.saturate", "groebner.ideal_equal"),
    "session": ("pipeline", "render", "toric.elimination", "toric.lattice",
                "toric.minimal_generators", "toric.ci", "invariants.height",
                "charp.fedder", "charp.semigroup", "groebner.buchberger",
                "groebner.colon", "groebner.intersect"),
}
#: modules that import stage functions by name and so must be rebound
REBOUND_MODULES = ("veronese.pipeline", "veronese.charp", "veronese.cli")

ENVELOPE = ["kind", "params", "checks", "cited_facts", "verdict"]
REPORT_KINDS = {"cd": "cd_certificate", "present": "presentation",
                "compare": "char_compare"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed report)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(cmd: list[str]) -> tuple[int, str, str, float, float]:
    """Run to completion; return (exit code, stdout, stderr, wall seconds,
    peak resident set in MB)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(REPORT_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (proc.returncode, out.decode(), err[0].decode(), seconds,
            usage.ru_maxrss / 1024)


def reference_seconds() -> float:
    """Wall time of one reference-kernel process, start to exit."""
    code, _, err, seconds, _ = run_child([PYTHON, str(HERE / "refkernel.py")])
    if code != 0:
        raise BenchmarkError(f"reference kernel failed: {err.strip()}")
    return seconds


def setup_seconds() -> float:
    code, _, err, seconds, _ = run_child([PYTHON, "-c", "import veronese"])
    if code != 0:
        raise BenchmarkError(f"cannot import veronese: {err.strip()}")
    return seconds


class SessionWorker:
    """A running ``session.py`` process, asked one report at a time."""

    def __init__(self, traced: bool) -> None:
        cmd = [PYTHON, str(HERE / "session.py")] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self.err: list[str] = []
        self.reader = threading.Thread(
            target=lambda: self.err.append(self.proc.stderr.read()))
        self.reader.start()

    def ask(self, spec: dict) -> dict:
        killer = threading.Timer(REPORT_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            self.proc.stdin.write(json.dumps(spec) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        finally:
            killer.cancel()
        return json.loads(line) if line else {"error": "worker died"}

    def close(self) -> tuple[list[str], float]:
        """End the session; return its remaining output lines and peak MB."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        killer = threading.Timer(REPORT_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            rest = self.proc.stdout.read().splitlines()
            self.reader.join()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.proc.stderr.close()
        return rest, usage.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# one report
# ---------------------------------------------------------------------------

class Reporter:
    """Produces reports for one pass, as fresh CLI processes or through a
    session worker; ``traced`` selects the stage-tracing variant."""

    def __init__(self, workload: str, traced: bool) -> None:
        self.traced = traced
        self.session = SessionWorker(traced) if workload == "session" else None
        self.traces: list[dict] = []
        self.peak_mb = 0.0

    def report(self, spec: dict) -> tuple[float, str, list[str]]:
        """Return (seconds, body, problems) for one report."""
        if self.session is not None:
            answer = self.session.ask(spec)
            if "error" in answer:
                return 0.0, "", [answer["error"]]
            return answer["seconds"], answer["body"], []
        script = [str(HERE / "stagetrace.py")] if self.traced else ["-m", "veronese"]
        code, out, err, seconds, peak = run_child(
            [PYTHON] + script + workloads.cli_args(spec))
        self.peak_mb = max(self.peak_mb, peak)
        problems = [] if code == 0 else [f"exit {code}: {err.strip()[-300:]}"]
        if self.traced:
            lines = [ln for ln in err.splitlines() if ln.startswith(TRACE_PREFIX)]
            if lines:
                self.traces.append(json.loads(lines[-1][len(TRACE_PREFIX):]))
            else:
                problems.append("traced process wrote no trace")
        return seconds, out, problems

    def finish(self) -> list[str]:
        """Close the session worker, if any; return problems found."""
        if self.session is None:
            return []
        rest, self.peak_mb = self.session.close()
        problems = []
        if self.session.proc.returncode != 0:
            problems.append(f"session exit {self.session.proc.returncode}: "
                            f"{''.join(self.session.err).strip()[-300:]}")
        if self.traced:
            traces = [json.loads(ln)["trace"] for ln in rest if ln.startswith('{"trace"')]
            if traces:
                self.traces.append(traces[-1])
            else:
                problems.append("traced session wrote no trace")
        return problems


def verify(spec: dict, body: str) -> list[str]:
    """Problems with one report body: envelope, canonical rendering,
    verdicts, agreement of the two toric routes and the expected height."""
    try:
        report = json.loads(body)
    except ValueError:
        return ["body is not JSON"]
    if not isinstance(report, dict) or list(report) != ENVELOPE:
        return ["malformed envelope"]
    problems = []
    if json.dumps(report, indent=2) + "\n" != body:
        problems.append("body is not canonically rendered")
    if report["kind"] != REPORT_KINDS[spec["kind"]]:
        problems.append(f"kind {report['kind']!r}")
    checks = report["checks"]
    if not all(isinstance(c, dict) and list(c) == ["name", "verdict", "details"]
               for c in checks):
        return problems + ["malformed check"]
    if report["verdict"] is not True or any(c["verdict"] is not True for c in checks):
        problems.append("verdict is not true")
    by_name = {c["name"]: c for c in checks}
    chars = [0] + sorted(set(spec["primes"]))
    if spec["kind"] != "compare" or "targets" in spec:
        for ch in chars:
            route = by_name.get(f"toric_routes_agree_char_{ch}")
            if route is None or route["verdict"] is not True:
                problems.append(f"toric routes disagree or missing at char {ch}")
    params = report["params"]
    if spec["kind"] == "compare":
        heights = params.get("heights")
    else:
        heights = [params.get("height")]
    if spec["kind"] == "cd":
        heights += [by_name.get(f"height_char_{ch}", {}).get("details", {}).get("height")
                    for ch in chars]
    if not heights or any(h != spec["height"] for h in heights):
        problems.append(f"heights {heights} != expected {spec['height']}")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least TAIL_BEYOND of n reports
    beyond it (nearest rank); 50 when there are too few reports."""
    for q in range(99, 50, -1):
        if n - ceil(q * n / 100) >= TAIL_BEYOND:
            return q
    return 50


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of the order statistics.  It moves less between runs than
    a single order statistic (by about a third for the tails here)."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 50 * n
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += x ** (a - 1) * (1 - x) ** (b - 1)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def end_to_end(times: list[float], refs: list[float], setup: list[float],
               peak_mb: float, failed: int) -> tuple[dict, dict]:
    ref = statistics.mean(refs)
    q = tail_percentile(len(times))
    p50 = harrell_davis(times, 0.5)
    tail = harrell_davis(times, q / 100)
    metrics = {
        "report_rel.p50": (p50 / ref, "ratio"),
        "report_rel.tail": (tail / ref, "ratio"),
        "run_rel": (statistics.mean(times) / ref, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": (1 - failed / len(times), "ratio"),
    }
    # raw seconds drift with the box's load too much to gate on; for readers
    raw = {"report_s.p50": (p50, "s"), "report_s.tail": (tail, "s"),
           "reports_per_s": (len(times) / sum(times), "1/s")}
    details = {"raw": as_json(raw), "tail_percentile": q,
               "reports": len(times), "ref_s": ref,
               "report_s": [round(t, 5) for t in times],
               "ref_s_samples": [round(r, 5) for r in refs],
               "setup_s_samples": [round(t, 5) for t in setup]}
    return metrics, details


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def merge_traces(traces: list[dict]) -> dict:
    """Sum the per-process counters of one pass (peaks take the max)."""
    total: dict = {}
    for t in traces:
        for key, value in t.items():
            if key == "rebound":
                for mod, names in value.items():
                    total.setdefault(key, {}).setdefault(mod, set()).update(names)
            elif isinstance(value, dict):
                bucket = total.setdefault(key, {})
                for k, v in value.items():
                    bucket[k] = bucket.get(k, 0) + v
            elif key.startswith("peak_"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics of one traced pass, from its merged counters."""
    calls = t["calls"].get
    busy = t["busy_s"].get
    gb_s = t["gb_s"].get
    gb_calls = t["gb_calls"].get
    gb = calls("groebner.buchberger", 0)
    m = {
        "groebner.buchberger.calls": (gb, "count"),
        "groebner.buchberger.self_s": (t["self_s"].get("groebner.buchberger", 0.0), "s"),
        "groebner.buchberger.basis_elements": (t["basis_elements"], "count"),
        "groebner.buchberger.peak_basis": (t["peak_basis"], "count"),
        "groebner.buchberger.peak_degree": (t["peak_degree"], "count"),
        "groebner.buchberger.repeat_frac": (t["gb_repeats"] / gb if gb else 0.0, "ratio"),
        "groebner.buchberger.distinct": (t["gb_distinct"], "count"),
    }
    for op in ("colon", "intersect", "eliminate", "saturate", "ideal_equal"):
        m[f"groebner.{op}.busy_s"] = (busy(f"groebner.{op}", 0.0), "s")
    m["groebner.normal_form.calls"] = (calls("groebner.normal_form", 0), "count")
    m["charp.fedder.busy_s"] = (busy("charp.fedder", 0.0), "s")
    m["charp.fedder.gb_s"] = (gb_s("charp.fedder", 0.0), "s")
    m["charp.fedder.gb_calls"] = (gb_calls("charp.fedder", 0), "count")
    m["charp.fedder.colon_generators"] = (t["colon_generators"], "count")
    m["charp.semigroup.calls"] = (calls("charp.semigroup", 0), "count")
    m["charp.semigroup.busy_s"] = (busy("charp.semigroup", 0.0), "s")
    for stage in ("toric.elimination", "toric.lattice", "toric.ci",
                  "invariants.height"):
        m[f"{stage}.busy_s"] = (busy(stage, 0.0), "s")
        m[f"{stage}.gb_s"] = (gb_s(stage, 0.0), "s")
    m["toric.minimal_generators.busy_s"] = (busy("toric.minimal_generators", 0.0), "s")
    m["pipeline.self_s"] = (t["self_s"].get("pipeline", 0.0), "s")
    m["pipeline.gb_s"] = (gb_s("pipeline", 0.0), "s")
    m["polycore.parse.calls"] = (calls("polycore.parse", 0), "count")
    m["polycore.parse.busy_s"] = (busy("polycore.parse", 0.0), "s")
    m["cli.render_s"] = (busy("render", 0.0), "s")
    return m


def is_count(unit: str) -> bool:
    return unit in ("count", "ratio")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def passes_for(workload: str, seconds: int, traced: bool) -> int:
    cost = PASS_SECONDS[workload] * (TRACED_PASS_COST if traced else 1.0)
    return max(2 if traced else 1, round(seconds / cost))


class Run:
    """Everything one run measures."""

    def __init__(self, workload: str, traced: bool) -> None:
        self.workload = workload
        self.traced = traced
        self.times: list[float] = []       # report seconds
        self.refs: list[float] = []        # reference-kernel seconds
        self.setup: list[float] = []
        self.overhead: list[tuple[float, float]] = []  # (plain, traced) per pass
        self.pass_traces: list[dict] = []
        self.problems: dict[str, list[str]] = {}
        self.self_check: list[str] = []
        self.failed = 0
        self.peak_mb = 0.0

    def one_pass(self, inputs: list[dict]) -> None:
        plain = Reporter(self.workload, traced=False)
        tracer = Reporter(self.workload, traced=True) if self.traced else None
        times = [0.0, 0.0]
        try:
            for i, spec in enumerate(inputs):
                if i % REF_EVERY == 0:
                    self.refs.append(reference_seconds())
                if tracer is None:
                    seconds, body, problems = plain.report(spec)
                else:
                    # alternate which variant runs first
                    order = (plain, tracer) if i % 2 == 0 else (tracer, plain)
                    results = {id(r): r.report(spec) for r in order}
                    seconds, body, problems = results[id(plain)]
                    t_seconds, t_body, t_problems = results[id(tracer)]
                    problems = problems + t_problems
                    if t_body != body:
                        problems.append("plain and traced bodies differ")
                    times[0] += seconds
                    times[1] += t_seconds
                if not problems:
                    problems = verify(spec, body)
                if problems:
                    self.failed += 1
                    self.problems[" ".join(workloads.cli_args(spec))] = problems
                self.times.append(seconds)
                if len(self.times) % SETUP_EVERY == 0:
                    self.setup.append(setup_seconds())
        finally:
            for reporter in (plain, tracer):
                if reporter is not None:
                    self.self_check += reporter.finish()
        self.peak_mb = max(self.peak_mb, plain.peak_mb)
        if tracer is not None and tracer.traces:
            self.overhead.append((times[0], times[1]))
            self.pass_traces.append(merge_traces(tracer.traces))


def run(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    inputs = workloads.GENERATORS[workload](seed)
    start = perf_counter()
    setup_seconds()                      # writes the bytecode cache; not a sample
    passes = passes_for(workload, seconds, traced)
    r = Run(workload, traced)
    done = 0
    while done < passes and perf_counter() - start < PASS_DEADLINE_S:
        r.one_pass(inputs)
        done += 1
    if done != passes:
        r.self_check.append(f"only {done} of {passes} passes fit the deadline")

    metrics, details = end_to_end(r.times, r.refs, r.setup, r.peak_mb, r.failed)
    details.update(workload=workload, seed=seed, passes=done,
                   inputs=len(inputs), failed_frac=r.failed / len(r.times))
    if traced:
        metrics = layered(r.pass_traces, r.overhead, details["ref_s"],
                          r.self_check, workload)
    if r.problems or r.self_check:
        details.update(problems=r.problems, self_check=r.self_check)
    return ({"correct": r.failed == 0 and not r.self_check,
             "attempted": len(r.times), "failed": r.failed,
             "metrics": as_json(metrics)},
            details)


def layered(pass_traces: list[dict], overhead, ref: float,
            self_check: list[str], workload: str) -> dict:
    """Per-layer metrics over the traced passes: counts from the first pass
    (which every other pass must repeat exactly), times as medians."""
    if not pass_traces:
        self_check.append("no traced pass produced a trace")
        return {}
    for stage in REQUIRED_STAGES[workload]:
        if not pass_traces[0]["calls"].get(stage):
            self_check.append(f"stage {stage} recorded no call")
    for module in REBOUND_MODULES:
        if not pass_traces[0]["rebound"].get(module):
            self_check.append(f"no stage function rebound in {module}")
    per_pass = [layer_metrics(t) for t in pass_traces]
    out = {}
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if is_count(unit):
            if any(v != value for v in values):
                self_check.append(f"{name} differs across passes: {values}")
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(values), unit)
    out["trace_overhead"] = (sum(t for _, t in overhead) / sum(p for p, _ in overhead),
                             "ratio")
    out["ref_s"] = (ref, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "veronese" / "__init__.py").is_file():
        print(f"error: no veronese sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result, details = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
