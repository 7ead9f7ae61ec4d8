"""Paired CPU time of the in-process library pass of two source trees.

    python tools/pass_cpu.py PARENT_SRC CHANGE_SRC [--workload session]
        [--seed 3] [--pairs 16] [--clear-caches]

Each of PARENT_SRC and CHANGE_SRC is a directory that holds the
``veronese`` package (the ``src/`` of a checkout).  One pass renders every
input that ``perfbench/workloads.py`` generates for the workload and seed
through ``perfbench/session.py``'s ``library_report``, in input order, in
one fresh interpreter, and measures the CPU time of the whole pass
(``time.process_time``, import excluded).  A pair times ``CHILDREN`` such
fresh children of each tree, interleaved (parent first in each round of
even pairs, change first in odd ones), after one untimed warm-up pass of
each, and keeps the least time of each tree: other load on the machine
only ever slows a child down, so the least of a few is the steadiest
estimate of a tree's own cost.  ``--clear-caches`` empties every cache of
the package before each report, as each report of a CLI process starts.

Speed of a shared machine drifts between sittings, and within one sitting
by more than most changes, while the ratio of passes run back to back
stays steady; so the result is the per-pair ratio change / parent of the
least times.  Prints one line per pair, then the median ratio, its
quartiles and the number of pairs the change won (ratio below 1).
Standard library only; reads ``perfbench/`` and writes no file, bytecode
caches included.
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time

_ROOT = Path(__file__).resolve().parent.parent
_PERFBENCH = _ROOT / "perfbench"
#: fresh children timed per tree in each pair
CHILDREN = 5


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clear_caches() -> None:
    """Empty every cache defined in a loaded ``veronese`` module."""
    for name, module in list(sys.modules.items()):
        if name != "veronese" and not name.startswith("veronese."):
            continue
        for value in vars(module).values():
            if (getattr(value, "__module__", None) == name
                    and hasattr(value, "cache_clear")):
                value.cache_clear()


def one_pass(src: Path, workload: str, seed: int, clear: bool) -> float:
    """CPU seconds of one library pass of the tree at ``src``, in this
    process."""
    sys.path.insert(0, str(src.resolve()))
    import veronese
    specs = _perfbench_module("workloads").GENERATORS[workload](seed)
    session = _perfbench_module("session")
    start = process_time()
    for spec in specs:
        if clear:
            _clear_caches()
        session.library_report(veronese, spec)
    return process_time() - start


def _child(src: Path, args: argparse.Namespace) -> float:
    """CPU seconds of one pass, in a fresh interpreter."""
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--child",
           str(src), "--workload", args.workload, "--seed", str(args.seed)]
    if args.clear_caches:
        cmd.append("--clear-caches")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return float(out.stdout)


def pair_times(time_child, trees, first: int) -> list[float]:
    """The least of ``CHILDREN`` times ``time_child(tree)`` of each of the
    two trees, run interleaved with tree ``first`` first in each round."""
    least = [math.inf, math.inf]
    for _ in range(CHILDREN):
        for which in (first, 1 - first):
            least[which] = min(least[which], time_child(trees[which]))
    return least


def summary(ratios: list[float]) -> str:
    """Median, quartiles and wins of the per-pair ratios."""
    median = statistics.median(ratios)
    if len(ratios) > 1:
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    else:
        q1 = q3 = median
    wins = sum(r < 1 for r in ratios)
    return (f"median ratio {median:.3f}, quartiles {q1:.3f} {q3:.3f}, "
            f"wins {wins}/{len(ratios)}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?",
                        help="source tree of the parent")
    parser.add_argument("change", type=Path, nargs="?",
                        help="source tree of the change")
    parser.add_argument("--workload", default="session",
                        choices=("certify", "char-sweep", "session"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=16)
    parser.add_argument("--clear-caches", action="store_true",
                        help="empty the package caches before each report")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    if args.child is not None:
        print(repr(one_pass(args.child, args.workload, args.seed,
                            args.clear_caches)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the parent and the change source trees")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = (args.parent, args.change)
    for src in trees:
        if not (src / "veronese" / "__init__.py").is_file():
            parser.error(f"no veronese package under {src}")
        _child(src, args)                # warm-up, untimed
    ratios = []
    for pair in range(args.pairs):
        parent, change = pair_times(lambda src: _child(src, args), trees,
                                    pair % 2)
        ratios.append(change / parent)
        print(f"pair {pair + 1}: parent {parent:.4f} s, "
              f"change {change:.4f} s, ratio {change / parent:.3f}",
              flush=True)
    print(summary(ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
