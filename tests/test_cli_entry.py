"""The CLI process entry and the plain command-line path.

``cli.run`` is what ``python -m veronese``, ``python -m veronese.cli`` and
the ``veronese`` script start: `main`, the ``atexit`` callbacks and a flush
of stdout and stderr, then ``os._exit``, with no interpreter teardown.  A
process must print and exit exactly as in-process `main` does, a report it
cannot write must exit 2 however stdout is buffered, and `main` itself must
never end the process.

`main` parses a plain command line from the flag table alone and builds no
argparse parser; every other line goes to the full parser, which writes
every usage, help and error line.  So each case here, and each of a seeded
sample of lines drawn from the flag table, is compared with
``_build_parser()`` in the same interpreter: argparse's wording and parsing
differ between Python versions, the two paths must not."""
from __future__ import annotations

import argparse
import atexit
import os
import random
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


def _process(*args, unbuffered=False, stdout=subprocess.PIPE,
             stderr=subprocess.PIPE):
    """Exit code, stdout and stderr of a fresh interpreter, with stdout
    block-buffered (a pipe's default) or, if ``unbuffered``, not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    done = subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=stderr, text=True, env=env,
                          cwd=_ROOT, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _closed_pipe_process(*args, unbuffered=False, stream="stdout"):
    """`_process` with ``stream``, stdout or stderr, a pipe whose read end
    is already closed, so that every write to it fails with a broken pipe;
    with stderr closed, stdout goes to the null device."""
    read, write = os.pipe()
    os.close(read)
    streams = ({"stdout": write} if stream == "stdout" else
               {"stdout": subprocess.DEVNULL, "stderr": write})
    try:
        code, _, err = _process(*args, unbuffered=unbuffered, **streams)
    finally:
        os.close(write)
    return code, err


def _script(setup=""):
    """What the generated ``veronese`` console script runs, after
    ``setup``: `cli.run` under the script's name."""
    return ["-c", f"{setup}import sys; from veronese.cli import run; "
                  "sys.argv[0] = 'veronese'; sys.exit(run())"]


#: the three ways a process starts `cli.run`
_ENTRIES = [
    pytest.param(["-m", "veronese"], id="veronese"),
    pytest.param(["-m", "veronese.cli"], id="veronese.cli"),
    pytest.param(_script(), id="script"),
]

#: a report that ends in a verdict, for the pipe cases
_REPORT = ["cd-certificate", "-k", "2", "-n", "2", "--primes", "3"]


# ---------------------------------------------------------------------------
# process entry
# ---------------------------------------------------------------------------

def test_main_never_ends_the_process(capsys, monkeypatch):
    """`main` returns its code, or argparse raises ``SystemExit``; it never
    runs the ``atexit`` callbacks or calls ``os._exit``, which only
    `cli.run` does."""
    ended = []
    monkeypatch.setattr(os, "_exit", ended.append)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: ended.append(0))
    for expected, argv in _BY_EXIT_CODE:
        assert _in_process(capsys, argv)[0] == expected
    assert ended == []


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("expected, argv", _BY_EXIT_CODE)
def test_process_prints_and_exits_as_main(capsys, entry, expected, argv):
    inside = _in_process(capsys, argv)
    assert inside[0] == expected
    assert _process(*entry, *argv) == inside


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("entry", _ENTRIES)
def test_a_report_stdout_cannot_take_exits_2(entry, unbuffered):
    """A report written to a closed pipe exits 2 with one error line under
    both buffering modes: `main` flushes it inside its own exit codes, and
    the bytes left in the buffer do not turn the exit into CPython's 120
    at the end."""
    assert _closed_pipe_process(*entry, *_REPORT, unbuffered=unbuffered) \
        == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["height", "--ring", "x", "--ideal", "x", "--char", "-1"],
    ["height", "--ring", "x", "--ideal", "x+"],
    ["cd-certificate", "-k", "2", "-n", "2", "--primes", "4"],
    ["height", "--ring", "x", "--ideal", "x", "--bogus"],
], ids=["char", "parse", "prime", "flag"])
def test_bad_input_with_a_closed_stderr_exits_2(argv, unbuffered):
    """A bad input exits 2 also when stderr cannot take its error line,
    under both buffering modes: neither a line `main` prints nor
    argparse's usage exit may turn the code into 1 ("verdict false") or
    CPython's 120."""
    assert _closed_pipe_process("-m", "veronese", *argv,
                                unbuffered=unbuffered, stream="stderr") \
        == (2, None)


@pytest.mark.parametrize("expected, argv", _BY_EXIT_CODE)
def test_atexit_callbacks_run_after_the_report(capsys, expected, argv):
    """An ``atexit`` callback registered before `cli.run` still runs: its
    line follows everything `main` wrote to stderr, and the process exits
    with `main`'s code."""
    code, out, err = _in_process(capsys, argv)
    setup = ("import atexit, sys; atexit.register("
             "lambda: print('atexit ran', file=sys.stderr)); ")
    assert _process(*_script(setup), *argv) == (
        code, out, err + "atexit ran\n")


def test_a_stream_that_cannot_be_flushed_at_the_end_exits_120(tmp_path):
    """A report that went to ``--out`` exits 0, but an ``atexit`` callback
    left bytes for a closed stdout: the final flush fails, and the process
    exits 120, CPython's status for a standard stream it cannot flush at
    exit (without CPython's "Exception ignored" lines)."""
    setup = ("import atexit, sys; atexit.register("
             "lambda: sys.stdout.write('late')); ")
    argv = [*_REPORT, "--out", str(tmp_path / "report.json")]
    assert _closed_pipe_process(*_script(setup), *argv) == (120, "")
    assert (tmp_path / "report.json").read_text(encoding="utf-8")


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


@pytest.mark.parametrize("digits", [700, 5000])
@pytest.mark.parametrize("setting", [[], ["-X", "int_max_str_digits=640"]])
@pytest.mark.parametrize("argv", [
    ["fedder", "--ring", "x", "--ideal", "x", "--p"],
    ["cd-certificate", "-k", "2", "-n"],
])
def test_an_int_of_more_than_640_digits_exits_2_unechoed(setting, argv,
                                                          digits):
    """Past 640 digits an int flag is refused by the full parser in one
    short line, exit 2 whatever ``int_max_str_digits`` is: it names no
    private function and does not echo the value, as ``int``'s own error
    did past 4,300 digits."""
    code, out, err = _process(*setting, "-m", "veronese", *argv,
                              "9" * digits)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"veronese {argv[0]}: error: argument {argv[-1]}: invalid int "
        f"value: more than 640 digits")
    assert len(err) < 300 and "_int_flag" not in err and "9" * 10 not in err


@pytest.mark.parametrize("digits", [700, 5000])
@pytest.mark.parametrize("setting", [[], ["-X", "int_max_str_digits=640"]])
@pytest.mark.parametrize("argv, line", [
    (["height", "--ring", "x,y", "--ideal", "{}*x"],
     "error: integer of more than 640 digits (column 1)"),
    (["height", "--ring", "x", "--ideal", "x", "--char", "{}"],
     "error: characteristic of more than 640 digits"),
    (["semigroup", "--generators", "1,0;0,1", "--target", "{},1"],
     "error: integer of more than 640 digits in a vector"),
])
def test_an_integer_in_text_of_more_than_640_digits_exits_2_unechoed(
        setting, argv, line, digits):
    """The same for the integers in a polynomial, ``--char`` and a vector,
    which the library reads: one line, exit 2, whatever
    ``int_max_str_digits`` is."""
    code, out, err = _process(*setting, "-m", "veronese",
                              *[a.format("9" * digits) for a in argv])
    assert (code, out, err) == (2, "", line + "\n")


# ---------------------------------------------------------------------------
# plain path and full parser
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


def test_a_plain_line_builds_no_parser(capsys, monkeypatch):
    """A plain line builds no ``ArgumentParser``; a line the plain path
    declines (an abbreviation, help) builds the full parser once: the
    top-level parser and one per subcommand."""
    built = _count_parsers(monkeypatch)
    assert main(["height", "--ring", "x,y", "--ideal", "x*y"]) == 0
    assert built == []
    for argv in (["cd-certificate", "-k", "2", "-n", "2", "--prim", "3"],
                 ["height", "--help"]):
        built.clear()
        assert _in_process(capsys, argv)[0] == 0
        assert built.count("veronese") == 1
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
    ["height", "--ring=--", "--ideal", "x"],
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


#: the odd values every flag may get, besides well-formed ones
_ODD_VALUES = ("", "-1", "x", "2,3", "\u0663", "--")    # "\u0663" is "٣"


def _fuzz_tokens(rng, flag):
    """One use of ``flag``: its option string exact, abbreviated (such as
    ``--prim``) or unknown, and its value separate, after "=", glued on
    (``-k2``) or missing."""
    option, draw = flag.option, rng.random()
    if draw < 0.05:
        option = option[:max(3, len(option) - rng.randint(1, 3))]
    elif draw < 0.08:
        option += "x"
    if flag.kind == "switch":
        value = rng.choice(_ODD_VALUES)
        return [option] if rng.random() < 0.9 else [f"{option}={value}"]
    good = "2" if flag.kind == "int" else rng.choice(("x,y", "2,0;1,1;0,2"))
    value = good if rng.random() < 0.8 else rng.choice(_ODD_VALUES)
    draw = rng.random()
    if draw < 0.7:
        return [option, value]
    if draw < 0.94:
        return [f"{option}={value}"]
    return [f"{option}{value}"] if draw < 0.97 else [option]


def _fuzz_argv(rng):
    """A command line drawn from the flag table: a subcommand and its
    flags, some left out (required ones too), none, one or both of an
    exclusive group, some repeated, with now and then "--", "-h", a stray
    word or an unknown option put in, and half of the lines through
    `cli._attach_values`, as `main` passes them."""
    name = rng.choice(list(cli._SUBCOMMANDS))
    flags = [*cli._SUBCOMMANDS[name][1], *cli._OUT]
    group = [f for f in flags if f.group]
    chosen = [f for f in flags
              if not f.group and (f.required or rng.random() < 0.3)]
    chosen += rng.sample(group, rng.choice((0, 1, 1, 1, 1, 2)) if group else 0)
    rng.shuffle(chosen)
    if chosen and rng.random() < 0.08:
        chosen.pop()
    if chosen and rng.random() < 0.12:
        chosen.append(rng.choice(chosen))
    argv = [name]
    for flag in chosen:
        argv += _fuzz_tokens(rng, flag)
    for odd in ("--", "-h", "stray", "--no-such-flag"):
        if rng.random() < 0.03:
            argv.insert(rng.randint(0 if odd == "--" else 1, len(argv)), odd)
    return cli._attach_values(argv) if rng.random() < 0.5 else argv


def test_seeded_lines_parse_as_with_the_full_parser(capsys, monkeypatch):
    """2,400 seeded lines, each parsed by `cli._parse_args` and by the full
    parser; one full parser serves both (argparse keeps no state between
    parses), and both plain and declined lines are well represented."""
    full = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: full)
    rng = random.Random(35)
    plain = 0
    for _ in range(2400):
        argv = _fuzz_argv(rng)
        plain += cli._plain_args(argv) is not None
        _assert_parsed_as_full(capsys, argv)
    assert 600 <= plain <= 1800          # a quarter to three quarters plain
