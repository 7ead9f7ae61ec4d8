"""The CLI process entry and the per-subcommand parser.

``cli.run`` is what ``python -m veronese``, ``python -m veronese.cli`` and
the ``veronese`` script start: `main`, then ``gc.freeze()`` and exit.  A
process must print and exit exactly as in-process `main` does, and `main`
itself must never freeze.

`main` builds only the invoked subcommand's parser.  Every usage, help and
error line must stay the full parser's, so each case here is compared with
``_build_parser()`` in the same interpreter: argparse's wording differs
between Python versions, the two parsers must not."""
from __future__ import annotations

import argparse
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from veronese import cli
from veronese.cli import main

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"

#: one argv per exit code: verdict true, verdict false, an argparse usage
#: error, a library refusal of bad input, the resource cap
_BY_EXIT_CODE = [
    (0, ["height", "--ring", "x,y", "--ideal", "x*y"]),
    (1, ["semigroup", "--generators", "2,0;1,1;0,2", "--target", "1,0"]),
    (2, ["height", "--ring", "x", "--ideal", "x", "--no-such-flag"]),
    (2, ["height", "--ring", "x", "--ideal", "x", "--char", "-1"]),
    (3, ["veronese-ideal", "-k", "2", "-n", "12"]),
]


def _in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _process(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=_ROOT, timeout=120)
    return done.returncode, done.stdout, done.stderr


# ---------------------------------------------------------------------------
# process entry
# ---------------------------------------------------------------------------

def test_main_never_freezes_the_collector(capsys):
    assert gc.get_freeze_count() == 0
    for _, argv in _BY_EXIT_CODE:
        _in_process(capsys, argv)
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("module", ["veronese", "veronese.cli"])
@pytest.mark.parametrize("expected, argv", _BY_EXIT_CODE)
def test_process_prints_and_exits_as_main(capsys, module, expected, argv):
    inside = _in_process(capsys, argv)
    assert inside[0] == expected
    assert _process("-m", module, *argv) == inside


def test_out_file_holds_the_bytes_stdout_gets(tmp_path):
    argv = ["char-compare", "--targets", "2,0;1,1;0,2", "--primes", "2,3"]
    code, out, err = _process("-m", "veronese", *argv)
    assert code == 0 and err == "" and out
    path = tmp_path / "report.json"
    assert _process("-m", "veronese", *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")


def test_console_script_starts_the_entry():
    text = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^veronese = "veronese\.cli:run"$', text, re.M)


# ---------------------------------------------------------------------------
# per-subcommand parser
# ---------------------------------------------------------------------------

def _parse_outcome(capsys, parse, argv):
    try:
        parsed = vars(parse(list(argv)))
        code = None
    except SystemExit as exc:
        parsed, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, parsed


def _assert_parsed_as_full(capsys, argv):
    lazy = _parse_outcome(capsys, cli._parse_args, argv)
    full = _parse_outcome(capsys, lambda a: cli._build_parser().parse_args(a),
                          argv)
    assert lazy == full


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_one_subcommand_run_builds_one_parser(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    assert main(["height", "--ring", "x,y", "--ideal", "x*y"]) == 0
    assert built == ["veronese height"]
    capsys.readouterr()
    built.clear()
    cli._build_parser()
    assert len(built) == 1 + len(cli._SUBCOMMANDS)


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
@pytest.mark.parametrize("tail", [
    ["--help"],
    [],                                  # every required flag missing
    ["--no-such-flag"],
    ["stray"],
    ["--primes"],                        # a flag without its value
    ["--", "--out"],
])
def test_subcommand_parser_matches_the_full_parser(capsys, name, tail):
    _assert_parsed_as_full(capsys, [name, *tail])


@pytest.mark.parametrize("argv", [
    ["veronese-ideal", "-k", "2", "-n", "3", "--char", "5", "--timing"],
    ["present", "--targets", "2,0;1,1;0,2", "--ci", "t1:t2", "--ci", "t3:t2"],
    ["height", "--ring", "x,y", "--ideal=-x*y", "--out", "r.json"],
    ["ci-check", "--ring", "x", "--ideal-file", "f", "--invert", "x",
     "--candidates", "x"],
    ["radical-cover", "--ring", "x", "--ideal", "x", "--subset", "x",
     "--subset", "y"],
    ["fedder", "--ring", "x", "--ideal", "x", "--p", "two"],
    ["semigroup", "--generators", "1", "--target", "1", "--targ", "2"],
    ["cd-certificate", "-k", "2", "-n", "2", "-k"],
    ["char-compare", "--ring", "x", "--ideal", "x", "--ideal-file", "f"],
    ["height", "--ring", "x", "--ideal", "x", "-h", "--bogus"],
])
def test_full_argument_lists_parse_as_with_the_full_parser(capsys, argv):
    _assert_parsed_as_full(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], [], ["no-such-command"], ["--", "height"],
    ["Height", "--ring", "x"], ["--bogus", "height"],
])
def test_top_level_arguments_match_the_full_parser(capsys, argv):
    _assert_parsed_as_full(capsys, argv)
