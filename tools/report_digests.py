"""Same-bytes probe: digests of the library reports of the benchmark inputs.

    python tools/report_digests.py [--src PATH] [--seeds N ...]

Imports ``veronese`` from ``--src`` (default: the ``src/`` next to this
directory), renders every input that ``perfbench/workloads.py`` generates
for each workload and seed (default seeds 3, 5 and 7919) through
``perfbench/session.py``'s ``library_report``, all in this one process, and
prints one line per workload and seed: the report count and the sha256 of
the rendered reports, concatenated in input order.  Two source trees whose
outputs are identical make the same library reports, byte for byte.  It
reads ``perfbench/`` and writes no file, bytecode caches included.
Standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PERFBENCH = _ROOT / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(veronese, seeds) -> list[str]:
    """One line per workload and seed: report count and sha256."""
    workloads = _perfbench_module("workloads")
    session = _perfbench_module("session")
    lines = []
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            specs = workloads.GENERATORS[workload](seed)
            digest = hashlib.sha256()
            for spec in specs:
                digest.update(
                    session.library_report(veronese, spec).encode("utf-8"))
            lines.append(f"{workload} seed {seed}: {len(specs)} reports, "
                         f"sha256 {digest.hexdigest()}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=_ROOT / "src",
                        help="source tree holding the veronese package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 5, 7919])
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.src.resolve()))
    import veronese
    print("\n".join(digests(veronese, args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
