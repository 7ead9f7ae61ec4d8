"""The same-bytes probe ``tools/report_digests.py``: on one seed, one line
per workload, with the number of its inputs and the sha256 of their library
reports as this process renders them; on its default seeds, the lines
pinned in ``tests/golden/library_digests.txt``."""
from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

from conftest import perfbench_module

import veronese

_SRC = Path(veronese.__file__).resolve().parent.parent
_PROBE = _SRC.parent / "tools" / "report_digests.py"
_PINNED = Path(__file__).resolve().parent / "golden" / "library_digests.txt"


def test_the_probe_digests_the_library_reports_of_one_seed():
    done = subprocess.run(
        [sys.executable, str(_PROBE), "--src", str(_SRC), "--seeds", "3"],
        capture_output=True, text=True, timeout=300, check=True)
    workloads = perfbench_module("workloads")
    session = perfbench_module("session")
    expected = []
    for workload in workloads.WORKLOADS:
        specs = workloads.GENERATORS[workload](3)
        body = "".join(session.library_report(veronese, spec)
                       for spec in specs)
        expected.append(f"{workload} seed 3: {len(specs)} reports, sha256 "
                        f"{hashlib.sha256(body.encode('utf-8')).hexdigest()}")
    assert done.stdout.splitlines() == expected
    assert done.stderr == ""


def test_the_library_reports_keep_their_pinned_digests():
    """Seeds 3, 5 and 7919 of every workload, as the ``session`` workload
    renders them, keep their bytes.  The file is regenerated, like the
    golden reports, only when library reports are meant to change."""
    done = subprocess.run(
        [sys.executable, str(_PROBE), "--src", str(_SRC)],
        capture_output=True, text=True, timeout=300, check=True)
    assert done.stdout == _PINNED.read_text("utf-8")
    assert done.stderr == ""
