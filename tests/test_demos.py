"""Every demo under ``demos/`` runs to completion: each is started in its own
interpreter with ``PYTHONPATH=src``, as the README shows, under
``-X dev -W error`` (a child process does not inherit the test run's
flags), and must exit 0 with nothing on stderr.  The whole set takes about
1.5 s."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(_DEMOS) >= 7


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                           str(demo)], cwd=_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
