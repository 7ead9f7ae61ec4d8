"""The rule for rational scalars: an int when the value is integral, a
``Fraction`` with a denominator above 1 otherwise, and ``fractions``
imported on the first value that needs it.  Every polynomial the reports
build is integral, so they run on ints; a non-integral computation stays
exact, and no float ever becomes a coefficient."""
from __future__ import annotations

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import replay_reports
from veronese import polycore
from veronese.groebner import Ideal, buchberger
from veronese.polycore import GF, GrevLex, Lex, PolyRing, QQ, divide

_SRC = Path(__file__).resolve().parent.parent / "src"


def _canonical(c) -> bool:
    """An int, or a Fraction that is not integral; not a bool or a float."""
    return c.__class__ is int or (c.__class__ is Fraction
                                  and c.denominator > 1)


def test_integral_scalars_are_ints():
    assert (QQ.zero, QQ.one) == (0, 1)
    assert QQ.zero.__class__ is int and QQ.one.__class__ is int
    for value, expected in [(7, 7), (Fraction(4, 2), 2), (Fraction(-3), -3),
                            (2.0, 2), (True, 1)]:
        got = QQ.normalize(value)
        assert got == expected and got.__class__ is int, value
    for unit in (1, -1, Fraction(1), Fraction(-1)):
        assert QQ.invert(unit).__class__ is int
    assert QQ.invert(Fraction(1, 3)) == 3
    assert QQ.invert(Fraction(-1, 3)).__class__ is int


def test_the_inverse_of_a_non_unit_is_a_fraction():
    for value, expected in [(2, Fraction(1, 2)), (-6, Fraction(-1, 6)),
                            (Fraction(2, 3), Fraction(3, 2))]:
        got = QQ.invert(value)
        assert got == expected and got.__class__ is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.invert(0)


def test_a_float_converts_exactly_and_never_becomes_a_coefficient():
    """A float is read as the rational it is, in QQ and in a prime field
    alike, and an arithmetic operand that is a float is refused."""
    assert QQ.normalize(1.5) == Fraction(3, 2)
    assert QQ.normalize(1.5).__class__ is Fraction
    R = PolyRing(("x", "y"), QQ)
    f = R.from_dict({(1, 0): 1.5, (0, 1): 2.0, (0, 0): 0.0})
    assert repr(f.terms) == repr((((1, 0), Fraction(3, 2)), ((0, 1), 2)))
    assert GF(5).normalize(1.5) == 4        # 3 * 2^-1 = 3 * 3 mod 5
    assert GF(5).normalize(2.0).__class__ is int
    assert GF(5).normalize(Fraction(7, 2)) == 1
    with pytest.raises(TypeError):
        R.variable("x") * 1.5
    with pytest.raises(TypeError):
        R.variable("x") + 0.5


def test_one_and_fraction_one_build_the_same_polynomial():
    R = PolyRing(("x", "y"), QQ)
    x = R.variable("x")
    pairs = [(R.constant(1), R.constant(Fraction(1))),
             (x + 1, x + Fraction(1)),
             (x * 2, x * Fraction(4, 2)),
             (R.from_dict({(1, 0): 3}), R.from_dict({(1, 0): Fraction(3)}))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert repr(a.terms) == repr(b.terms)   # same values, same types


@pytest.mark.parametrize("order", [GrevLex(), Lex()], ids=str)
def test_a_division_that_comes_out_integral_leaves_ints(order):
    """Making 2x - 2y monic divides by 2, and the quotient of 2x^2 by 2x
    is x: each integral result holds ints, on the path taken as it stands
    (grevlex) and on the sorting one (lex)."""
    R = PolyRing(("x", "y"), QQ)
    f = R.parse("2*x - 2*y")
    (g,) = buchberger(Ideal(R, (f,)), order).elements
    assert repr(g.terms) == repr((((1, 0), 1), ((0, 1), -1)))
    (q,), r = divide(R.parse("2*x^2"), [R.parse("2*x")], order)
    assert repr(q.terms) == repr((((1, 0), 1),)) and r.is_zero()


# one non-integral computation in a fresh interpreter: the names of the
# fraction modules loaded after import and after the basis, and the basis
_LAZY_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
names = ("fractions", "decimal", "numbers")
import veronese.cli
from veronese.groebner import Ideal, buchberger
from veronese.polycore import PolyRing
print(*[name for name in names if name in sys.modules], sep=",")
R = PolyRing(("x", "y"))
(g,) = buchberger(Ideal(R, (R.parse("2*x - y"),))).elements
print(*[name for name in names if name in sys.modules], sep=",")
print(g, *[type(c).__name__ for _, c in g.terms])
print(g.terms[1][1] == sys.modules["fractions"].Fraction(-1, 2))
"""


def test_a_non_integral_computation_loads_fractions_and_stays_exact():
    done = subprocess.run(
        [sys.executable, "-S", "-c", _LAZY_PROBE, str(_SRC)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "", "fractions,decimal,numbers", "x - 1/2*y int Fraction", "True"]


def test_no_report_builds_a_float_or_an_integral_fraction(monkeypatch):
    """Every polynomial built by the golden cases and the library reports
    of the benchmark inputs, the presentation bases among them, holds only
    canonical coefficients."""
    init = polycore.Polynomial.__init__
    bad = []

    def checked(self, ring, terms):
        bad.extend(c for _, c in terms if not _canonical(c))
        init(self, ring, terms)

    monkeypatch.setattr(polycore.Polynomial, "__init__", checked)
    replay_reports()
    assert bad == []


def _divisions(path: Path) -> list[str]:
    """The qualified name of the function around each true division in a
    source file, ``/`` and ``/=`` alike."""
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_the_one_division_of_scalars_is_the_inverse_in_qq():
    found = {path.name: _divisions(path)
             for path in sorted((_SRC / "veronese").glob("*.py"))}
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "polycore.py": ["Rationals.invert"]}
