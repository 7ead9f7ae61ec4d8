"""The code-line count ``tools/code_lines.py``: lines that hold code, with
docstrings, comments and blank lines left out, per module of a temporary
package whose count is known, and a smoke run on the package itself."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import veronese

_SRC = Path(veronese.__file__).resolve().parent.parent
_TOOL = _SRC.parent / "tools" / "code_lines.py"

# 8 lines hold code: the import, the two lines of the call, the two lines
# of the string that is no docstring, ``class``, ``def`` and ``return``;
# docstrings, comments and blank lines hold none
_MODULE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment

# a comment line
LIMIT = max(1,
            2)
TEXT = """not a docstring:
it is assigned"""


class Box:
    """Class docstring."""

    def size(self):
        """Method docstring,

        with a blank line inside."""
        return LIMIT
'''


def _run(src: Path) -> list[str]:
    done = subprocess.run([sys.executable, str(_TOOL), "--src", str(src)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stderr == ""
    return done.stdout.splitlines()


def test_a_module_of_known_count(tmp_path):
    package = tmp_path / "veronese"
    package.mkdir()
    (package / "a.py").write_text(_MODULE, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n\n\ny = 2\n", encoding="utf-8")
    assert _run(tmp_path) == ["     8 veronese/a.py",
                              "     2 veronese/b.py",
                              "    10 total"]


def test_a_smoke_run_on_the_package():
    lines = _run(_SRC)
    counts = [int(line.split()[0]) for line in lines]
    modules = sorted((_SRC / "veronese").glob("*.py"))
    assert [line.split()[1] for line in lines] == [
        *(f"veronese/{p.name}" for p in modules), "total"]
    assert sum(counts[:-1]) == counts[-1]
    assert all(0 < count < len(p.read_text(encoding="utf-8").splitlines())
               for count, p in zip(counts, modules))
