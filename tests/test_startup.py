"""Start-up hygiene: importing the CLI loads neither ``dataclasses``,
``inspect``, ``json``, ``argparse`` nor ``fractions``, builds no large
prime field and compiles no regular expression, and a report from a plain
command line loads neither ``argparse`` nor what it imports on first use,
and, its scalars being integral, not ``fractions`` either.  Each CLI
report runs in a fresh interpreter, so every module imported, every field
built and every pattern compiled at import is paid for by every report;
the checks are by module name, by the primality tests made and by the
compile calls made, not by timing, so they are deterministic."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import perfbench_module

_SRC = Path(__file__).resolve().parent.parent / "src"

# the module list is taken before the probe imports json to print it
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import veronese.cli; "
    "loaded = sorted(sys.modules); import json; print(json.dumps(loaded))"
)

_JSON_MODULES = ("json", "json.decoder", "json.encoder", "json.scanner",
                 "_json")

#: ``fractions`` and what it imports: a rational scalar is an int until
#: a value is not integral, and no report of an integral input makes one
_FRACTION_MODULES = ("fractions", "decimal", "numbers")


def test_cli_import_loads_no_code_generating_modules():
    # -S skips site, whose .pth hooks may import anything first
    done = subprocess.run([sys.executable, "-S", "-c", _PROBE, str(_SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "veronese.cli" in loaded and "veronese.pipeline" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    assert "argparse" not in loaded and "gettext" not in loaded
    # reports are rendered without the json package
    assert [name for name in _JSON_MODULES if name in loaded] == []
    assert [name for name in _FRACTION_MODULES if name in loaded] == []


#: modules a report from a plain command line must not load: the full
#: parser, what it imports on first use (``gettext`` with ``locale``, and
#: ``shutil`` for the help formatter's terminal width) and ``copy``
_FULL_PARSER_MODULES = ("argparse", "gettext", "locale", "shutil", "copy")

# one report through cli.main; the names are taken after it, on stderr
_REPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from veronese.cli import main
code = main(["char-compare", "--targets", "2,0;1,1;0,2", "--primes", "2,3"])
names = sys.argv[2].split(",")
print(code, *[name for name in names if name in sys.modules], file=sys.stderr)
"""


def test_a_plain_report_loads_no_argument_parser():
    done = subprocess.run(
        [sys.executable, "-S", "-c", _REPORT_PROBE, str(_SRC),
         ",".join(_FULL_PARSER_MODULES + _FRACTION_MODULES)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert '"kind": "char_compare"' in done.stdout
    assert done.stderr.split() == ["0"]


# every command line on stdin, one JSON list each, through cli.main in one
# process, the reports discarded; then, as JSON on stderr, the number of
# lines, their exit codes and the names loaded of those given.  Modules
# stay loaded, so a name loaded by any report is seen after the last.
_WORKLOAD_PROBE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from veronese.cli import main
lines = [json.loads(line) for line in sys.stdin]
sys.stdout = io.StringIO()
codes = sorted({main(argv) for argv in lines})
names = [name for name in sys.argv[2].split(",") if name in sys.modules]
print(json.dumps([len(lines), codes, names]), file=sys.stderr)
"""


@pytest.mark.parametrize("workload", ["certify", "char-sweep"])
def test_no_benchmark_cli_report_loads_fractions(workload):
    """The CLI reports of a benchmark workload, at seeds 1 and 7919, are
    integral and load none of ``fractions``, ``decimal`` or ``numbers``."""
    workloads = perfbench_module("workloads")
    argvs = [workloads.cli_args(spec) for seed in (1, 7919)
             for spec in workloads.GENERATORS[workload](seed)]
    done = subprocess.run(
        [sys.executable, "-S", "-c", _WORKLOAD_PROBE, str(_SRC),
         ",".join(_FRACTION_MODULES)],
        input="".join(json.dumps(argv) + "\n" for argv in argvs),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    count, codes, loaded = json.loads(done.stderr)
    assert count == len(argvs) == 40 and set(codes) <= {0, 1}
    assert loaded == []


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
    """A prime field built at import runs its primality test in every
    report; only the probe's own GF(7) may be tested."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PRIME_PROBE, str(_SRC)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    tested = json.loads(done.stdout)
    assert 7 in tested
    assert [p for p in tested if p > 10**5] == []


# ``re.compile`` and ``re._compile``, which the module-level functions of
# ``re`` call, are wrapped before the package is imported; each call is
# recorded with the module of the nearest frame outside ``re``.  After the
# import the probe parses one polynomial, which must be seen compiling.
_REGEX_PROBE = """
import json, re, sys
callers = []
def wrapped(compile):
    def recorded(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__", "").split(".")[0] == "re":
            frame = frame.f_back
        callers.append(frame.f_globals.get("__name__", ""))
        return compile(*args, **kwargs)
    return recorded
re.compile = wrapped(re.compile)
re._compile = wrapped(re._compile)
sys.path.insert(0, sys.argv[1])
import veronese.cli
at_import = list(callers)
veronese.polycore.PolyRing(("x",)).parse("x + 1")
print(json.dumps([at_import, callers[len(at_import):]]))
"""


def test_cli_import_compiles_no_regular_expression():
    done = subprocess.run(
        [sys.executable, "-S", "-c", _REGEX_PROBE, str(_SRC)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    at_import, after = json.loads(done.stdout)
    assert [m for m in at_import if m.startswith("veronese")] == []
    assert "veronese.polycore" in after


def test_the_startup_probe_reports_the_cli_import():
    probe = _SRC.parent / "tools" / "startup_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), "--runs", "2", "--src", str(_SRC)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].startswith("import veronese.cli: median ")
    assert lines[2].split() == ["self", "us", "cum", "us", "module"]
    assert lines[3].split()[2] == "veronese.cli"   # every module is under it
    loaded = lines[-1].split(": ", 1)[1].split(", ")
    assert {"veronese.cli", "veronese.polycore"} <= set(loaded)
    assert "argparse" not in loaded
    assert [name for name in _JSON_MODULES if name in loaded] == []
    assert [name for name in _FRACTION_MODULES if name in loaded] == []
