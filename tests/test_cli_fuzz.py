"""Seeded fuzz of the command line: small random inputs to every subcommand,
in process.  Whatever the input, ``main`` must end in a report or a
classified error (exit 0, 1, 2 or 3), never in an internal error (exit 4)
or a traceback.  Inputs stay tiny (at most 3 variables, degree at most 3,
characteristics and primes from 0 to 5) so that the whole run is fast."""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from conftest import install_per_field
from veronese.cli import main

_NAMES = ("x", "y", "z")
_CASES = 200


def _vector(rng, dim):
    return ",".join(str(rng.randint(0, 3)) for _ in range(dim))


def _vectors(rng, dim):
    return ";".join(_vector(rng, dim) for _ in range(rng.randint(1, 3)))


def _prime(rng):
    """Mostly a prime, so that most cases get past input checking."""
    return str(rng.choice((2, 3, 5)) if rng.random() < 0.8 else
               rng.choice((0, 1, 4)))


def _primes(rng):
    return ",".join(_prime(rng) for _ in range(rng.randint(1, 2)))


def _monomial(rng, names, deg):
    factors = []
    for pos, nm in enumerate(names):
        e = deg if pos == len(names) - 1 else rng.randint(0, deg)
        deg -= e
        if e:
            factors.append(nm if e == 1 else f"{nm}^{e}")
    return "*".join(factors) or "1"


def _monomial_exponents(rng, dim, deg):
    """A random exponent vector of length ``dim`` and degree ``deg``."""
    cuts = sorted(rng.randint(0, deg) for _ in range(dim - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, deg])]


def _targets(rng, dim):
    """Targets in ``dim`` variables, half of the time all of one degree:
    their toric ideals are standard graded, so that ``present`` reaches
    its checks."""
    if rng.random() < 0.5:
        return _vectors(rng, dim)
    n = rng.randint(1, 3)
    one_degree = sorted({tuple(_monomial_exponents(rng, dim, n))
                         for _ in range(6)})
    return ";".join(",".join(map(str, t)) for t in one_degree)


def _chart(rng, d, c):
    """A ``--ci`` value: one of t1..td and up to three monomials and
    binomials m1 - m2 of one degree, each times ``c``.  With "" or "-",
    the shape whose CI verdict every field shares; with "2*" or "3*", one
    that vanishes in some field, so each field checks it."""
    names = [f"t{i}" for i in range(1, d + 1)]
    polys = []
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, 3)
        body = _monomial(rng, names, deg)
        if rng.random() < 0.8:
            body = f"({body}-{_monomial(rng, names, deg)})"
        polys.append(c + body)
    return f"{rng.choice(names)}:{','.join(polys)}"


def _degree(rng):
    return 0 if rng.random() < 0.1 else rng.randint(1, 3)


def _poly(rng, names, deg=None):
    """Up to three terms; all of degree ``deg`` when it is given."""
    if rng.random() < 0.05:
        return rng.choice(("0", "1"))
    text = ""
    for k in range(rng.randint(1, 3)):
        c = rng.randint(1, 3)
        term = _monomial(rng, names, _degree(rng) if deg is None else deg)
        body = term if c == 1 else f"{c}*{term}"
        sign = rng.choice(("-", "")) if not k else rng.choice((" + ", " - "))
        text += sign + body
    return text


def _polys(rng, names, homogeneous=False):
    return ", ".join(
        _poly(rng, names, rng.randint(1, 3) if homogeneous else None)
        for _ in range(rng.randint(1, 3)))


def _ring(rng):
    return _NAMES[:rng.randint(1, 3)]


def _ideal_args(rng, names):
    homogeneous = rng.random() < 0.5
    return ["--ring", ",".join(names), "--ideal",
            _polys(rng, names, homogeneous)]


def _argv(rng, command):
    if command == "veronese-ideal":
        return [command, "-k", str(_degree(rng)),
                "-n", str(min(_degree(rng), 2)),
                "--char", rng.choice(("0", _prime(rng)))]
    if command == "present":
        dim = rng.randint(1, 3)
        targets = _targets(rng, dim)
        # the names of the source ring
        d = targets.count(";") + 1
        names = tuple(f"t{i}" for i in range(1, d + 1))
        argv = [command, "--targets", targets, "--primes", _primes(rng)]
        if rng.random() < 0.3:
            argv += ["--radical-subset", f"t{rng.randint(1, d)}"]
        if rng.random() < 0.3:
            polys = _polys(rng, names).replace(" ", "")
            argv += ["--ci", f"t{rng.randint(1, d)}:{polys}"]
        if rng.random() < 0.3:
            argv += ["--fpurity-witness", f"{_vector(rng, dim)};"
                                          f"{_vector(rng, dim)}"]
        return argv
    if command == "height":
        names = _ring(rng)
        return [command, *_ideal_args(rng, names),
                "--char", rng.choice(("0", _prime(rng)))]
    if command == "ci-check":
        names = _ring(rng)
        return [command, *_ideal_args(rng, names),
                "--invert", rng.choice(names),
                "--candidates", _polys(rng, names),
                "--char", rng.choice(("0", _prime(rng)))]
    if command == "radical-cover":
        names = _ring(rng)
        return [command, *_ideal_args(rng, names),
                "--subset",
                ",".join(rng.sample(names, rng.randint(1, len(names)))),
                "--char", rng.choice(("0", _prime(rng)))]
    if command == "fedder":
        names = _ring(rng)
        return [command, *_ideal_args(rng, names), "--p", _prime(rng)]
    if command == "semigroup":
        dim = rng.randint(1, 3)
        return [command, "--generators", _vectors(rng, dim),
                "--target", _vector(rng, dim)]
    if command == "cd-certificate":
        k, n = rng.choice(((0, 1), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
                           (2, 3), (3, 1), (3, 2)))
        return [command, "-k", str(k), "-n", str(n), "--primes", _primes(rng)]
    # char-compare
    if rng.random() < 0.5:
        return [command, "--targets", _vectors(rng, rng.randint(1, 3)),
                "--primes", _primes(rng)]
    return [command, *_ideal_args(rng, _ring(rng)), "--primes", _primes(rng)]


_CHAR_COMPARE_FLAGS = ("--targets", "--ring", "--ideal")


def _char_compare_argv(rng, flags):
    """char-compare with exactly the given mode flags, random values."""
    names = _ring(rng)
    values = {"--targets": _vectors(rng, rng.randint(1, 3)),
              "--ring": ",".join(names),
              "--ideal": _polys(rng, names, rng.random() < 0.5)}
    argv = ["char-compare"]
    for flag in flags:
        argv += [flag, values[flag]]
    return argv + ["--primes", _primes(rng)]


_COMMANDS = ("veronese-ideal", "present", "height", "ci-check",
             "radical-cover", "fedder", "semigroup", "cd-certificate",
             "char-compare")


def test_random_small_inputs_exit_cleanly(capsys):
    rng = random.Random(20261018)
    seen = set()
    present_reports = 0
    for _ in range(_CASES):
        command = rng.choice(_COMMANDS)
        argv = _argv(rng, command)
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse usage error, e.g. "-x"
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err and "internal error" not in err, \
            (argv, err)
        seen.add(command)
        present_reports += command == "present" and code in (0, 1)
    assert seen == set(_COMMANDS)
    assert present_reports >= 9


@pytest.mark.parametrize("flags", [
    flags for size in range(len(_CHAR_COMPARE_FLAGS) + 1)
    for flags in combinations(_CHAR_COMPARE_FLAGS, size)])
def test_char_compare_every_mode_flag_subset_exits_cleanly(capsys, flags):
    """Only ``--targets`` alone and ``--ring`` with ``--ideal`` name a mode;
    every other subset is bad input."""
    rng = random.Random(f"char-compare {flags}")
    valid = flags in (("--targets",), ("--ring", "--ideal"))
    for _ in range(5):
        argv = _char_compare_argv(rng, flags)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in ((0, 1, 2, 3) if valid else (2,)), (argv, code, err)
        assert "Traceback" not in err and "internal error" not in err, \
            (argv, err)


def test_shared_cover_exits_as_the_per_field_checks(capsys, monkeypatch):
    """``present`` with a radical subset, and half of the time a chart,
    its checks built once for every characteristic and, by the per-field
    oracle (``install_per_field``), in each field on its own: the same exit
    and the same bytes, so no input that reports when each field is
    checked on its own exits 3 or 4 when they share one computation.  The
    first input's cover fails: t1 and t3 are outside rad(I + (t2))."""
    rng = random.Random(20261019)
    inputs = [(["present", "--targets", "1,1,1;1,0,0;0,1,0", "--primes", "2",
                "--radical-subset", "t2"], None)]
    while len(inputs) < 100:
        argv = _argv(rng, "present")
        d = argv[2].count(";") + 1
        names = [f"t{i}" for i in rng.sample(range(1, d + 1),
                                             rng.randint(1, d))]
        argv += ["--radical-subset", ",".join(names)]
        # a chart of binomials with a unit coefficient, whose CI verdict
        # is shared, or with 2 or 3, checked in each field
        coefficient = None
        if "--ci" not in argv and rng.random() < 0.5:
            coefficient = rng.choice(("", "-", "2*", "3*"))
            argv += ["--ci", _chart(rng, d, coefficient)]
        inputs.append((argv, coefficient))
    codes, covers, charts = set(), [], []
    for argv, coefficient in inputs:
        runs = []
        for oracle in (False, True):
            with monkeypatch.context() as patch:
                if oracle:
                    install_per_field(patch)
                code = main(argv)
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1], argv
        code, (out, _) = runs[0]
        assert code in (0, 1, 2, 3), (argv, runs[0])
        codes.add(code)
        if '"radical_cover_char_0"' in out:
            covers.append('"member": false' not in out)
        if coefficient is not None and '"localized_ci_char_0_' in out:
            charts.append(coefficient in ("", "-"))
    assert {0, 1, 2} <= codes
    assert sum(covers) > 10 and len(covers) - sum(covers) > 10, covers
    assert sum(charts) >= 12 and len(charts) - sum(charts) >= 6, charts
