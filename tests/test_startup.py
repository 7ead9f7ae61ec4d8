"""Start-up hygiene: importing the CLI loads neither ``dataclasses`` nor
``inspect``.  Each CLI report runs in a fresh interpreter, so every module
imported here is paid for by every report; the check is by module name, not
by timing, so it is deterministic."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import veronese.cli, json; "
    "print(json.dumps(sorted(sys.modules)))"
)


def test_cli_import_loads_no_code_generating_modules():
    # -S skips site, whose .pth hooks may import anything first
    done = subprocess.run([sys.executable, "-S", "-c", _PROBE, str(_SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "veronese.cli" in loaded and "veronese.pipeline" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
