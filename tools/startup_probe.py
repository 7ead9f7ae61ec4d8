"""Start-up probe: where the time of ``import veronese.cli`` goes.

    python tools/startup_probe.py [--runs N] [--src PATH]

Runs one warm-up process, which writes the bytecode cache, then N fresh
``python -X importtime -c "import veronese.cli"`` processes of this
interpreter with ``--src`` (default: the ``src/`` next to this directory)
on ``PYTHONPATH``.  It prints the median cumulative time of the import, the
median self and cumulative microseconds of every module the import loads,
slowest first, and the names of those modules.  Modules that interpreter
start-up (``site``) loaded before are not loaded again, so they are not
counted.  Standard library only.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

_ROOT = "veronese.cli"
_PREFIX = "import time:"


def import_times(src: Path) -> dict[str, tuple[int, int]]:
    """{module: (self us, cumulative us)} of every module that one fresh
    ``import veronese.cli`` loads, ``veronese.cli`` included."""
    # the bytecode cache is written and read, as an installed CLI does
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {_ROOT}"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    group = {}                # the lines since the last top-level one
    for line in done.stderr.splitlines():
        if not line.startswith(_PREFIX):
            continue
        own, total, name = line[len(_PREFIX):].split("|")
        if not own.strip().isdigit():
            continue          # the header
        module = name.strip()
        group[module] = (int(own), int(total))
        if name.startswith("  "):
            continue          # indented under the module that imports it
        # a top-level line comes after every module it imported
        if module == _ROOT:
            return group
        group = {}
    raise RuntimeError(f"no import of {_ROOT} in the -X importtime output")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="timed processes (default 10)")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory that holds the veronese package")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    import_times(args.src)                        # warm-up: bytecode cache
    runs = [import_times(args.src) for _ in range(args.runs)]
    modules = [m for m in runs[0] if all(m in run for run in runs)]

    def median(module, field):
        return statistics.median(run[module][field] for run in runs)

    print(f"{sys.executable} ({sys.version.split()[0]}), {args.runs} runs, "
          f"src {args.src}")
    print(f"import {_ROOT}: median {median(_ROOT, 1) / 1000:.1f} ms "
          f"cumulative")
    print(f"{'self us':>9} {'cum us':>9}  module")
    for module in sorted(modules, key=lambda m: (-median(m, 1), m)):
        print(f"{median(module, 0):>9.0f} {median(module, 1):>9.0f}  {module}")
    print(f"modules loaded ({len(modules)}): {', '.join(sorted(modules))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
