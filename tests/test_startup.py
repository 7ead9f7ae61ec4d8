"""Start-up hygiene: importing the CLI loads neither ``dataclasses`` nor
``inspect``, and builds no large prime field.  Each CLI report runs in a
fresh interpreter, so every module imported and every field built at import
is paid for by every report; the checks are by module name and by the
primality tests made, not by timing, so they are deterministic."""
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


# The package module is made but not run, so that ``veronese.polycore`` is
# imported first and its ``_is_prime`` wrapped before any other module of
# the package runs; then the package and the CLI are imported.
_PRIME_PROBE = """
import importlib.util, json, pathlib, sys
src = pathlib.Path(sys.argv[1])
spec = importlib.util.spec_from_file_location(
    "veronese", src / "veronese" / "__init__.py",
    submodule_search_locations=[str(src / "veronese")])
package = importlib.util.module_from_spec(spec)
sys.modules["veronese"] = package
import veronese.polycore as polycore
tested = []
is_prime = polycore._is_prime
def counted(p):
    tested.append(p)
    return is_prime(p)
polycore._is_prime = counted
spec.loader.exec_module(package)
import veronese.cli
polycore.GF(7)                   # a field built after import is seen
print(json.dumps(tested))
"""


def test_cli_import_tests_no_large_prime():
    """A prime field built at import runs its trial division in every
    report; only the probe's own GF(7) may be tested."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PRIME_PROBE, str(_SRC)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    tested = json.loads(done.stdout)
    assert 7 in tested
    assert [p for p in tested if p > 10**5] == []
