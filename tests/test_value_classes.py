"""The immutable value classes: equality and hash by class and field
values, no assignment or deletion, constructor checks and normalisations,
copies and pickles that rebuild through the constructor.  Every record type
of the package is covered."""
from __future__ import annotations

import copy
import pickle
from types import MappingProxyType

import pytest

from veronese.charp import AffineSemigroup, FiberReport, FpurityReport
from veronese.groebner import GroebnerBasis, Ideal
from veronese.invariants import DimensionResult, GradedPiece
from veronese.pipeline import Check, Report, _Chart, _Plan
from veronese.polycore import (
    Block, GF, GrevLex, Lex, PolyRing, PrimeField, QQ, Rationals,
)
from veronese.toric import CIReport, MonomialMap


def _ring():
    return PolyRing(("x", "y"), GF(5))


def _poly():
    return _ring().parse("x^2 + 3*y")


# each entry builds one value; two calls build equal but distinct objects.
# Mapping fields get hashable stand-ins, so that hashes and pickles apply.
_BUILDERS = {
    "Rationals": Rationals,
    "PrimeField": lambda: PrimeField(5),
    "Lex": Lex,
    "GrevLex": GrevLex,
    "Block": lambda: Block(frozenset({0}), Lex()),
    "PolyRing": _ring,
    "Polynomial": _poly,
    "Ideal": lambda: Ideal(_ring(), (_poly(),)),
    "GroebnerBasis": lambda: GroebnerBasis(_ring(), GrevLex(), (_poly(),)),
    "DimensionResult": lambda: DimensionResult(1, 1, GrevLex()),
    "GradedPiece": lambda: GradedPiece(index=2, degree=-2, dimension=1),
    "FpurityReport": lambda: FpurityReport(3, (_poly(),), _poly(), True),
    "FiberReport": lambda: FiberReport(3, 4, 2, 2, _poly(), True),
    "AffineSemigroup": lambda: AffineSemigroup([[2, 0], [1, 1]]),
    "MonomialMap": lambda: MonomialMap([[2, 0], [1, 1]]),
    "CIReport": lambda: CIReport(0, (_poly(),), (1,), 1, verified=True),
    "Check": lambda: Check("a", True, ()),
    "Report": lambda: Report("k", (), (Check("a", True, ()),), ("fact",)),
    "_Chart": lambda: _Chart(0, ("x",), ()),
    "_Plan": lambda: _Plan("height", "expected", 1, True,
                           (_Chart(0, None, ()),), (0,)),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_equal_values_have_equal_hashes(name):
    a, b = _BUILDERS[name](), _BUILDERS[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a == a and hash(a) == hash(a)       # cached hashes stay put
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = _BUILDERS[name]()
    assert not hasattr(value, "__dict__")
    for field in value.__match_args__ or ("anything",):
        before = getattr(value, field, None)
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field, None) is before


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_copies_and_pickles_rebuild_equal_values(name):
    value = _BUILDERS[name]()
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


def test_classes_with_equal_field_values_differ():
    R = _ring()
    pairs = [
        (Lex(), GrevLex()),
        (Rationals(), Lex()),
        (MonomialMap([[2, 0], [1, 1]]), AffineSemigroup([[2, 0], [1, 1]])),
        (R.zero, Ideal(R, ())),                    # both are (R, ())
        (DimensionResult(1, 1, 1), GradedPiece(1, 1, 1)),
    ]
    for a, b in pairs:
        assert a != b and b != a
        assert not a == b


def test_unequal_fields_compare_unequal():
    assert PrimeField(5) != PrimeField(7)
    assert PolyRing(("x", "y"), QQ) != PolyRing(("x", "y"), GF(5))
    assert PolyRing(("x", "y")) != PolyRing(("y", "x"))
    assert Block({0}) != Block({1}) and Block({0}) != Block({0}, Lex())
    R = _ring()
    assert R.parse("x") != R.parse("y")
    assert R.parse("x") != PolyRing(("x", "y"), QQ).parse("x")
    assert Ideal(R, (R.parse("x"),)) != Ideal(R, (R.parse("y"),))
    assert (GroebnerBasis(R, GrevLex(), ()) != GroebnerBasis(R, Lex(), ()))
    assert Check("a", True, ()) != Check("a", False, ())


@pytest.mark.parametrize("build", [
    lambda: PrimeField(4),
    lambda: PrimeField(1),
    lambda: PolyRing(()),
    lambda: PolyRing(("x", "x")),
    lambda: PolyRing(("X",)),
    lambda: Block(frozenset()),
    lambda: Block({-1}),
    lambda: MonomialMap(()),
    lambda: MonomialMap([[1, 0], [1]]),
    lambda: MonomialMap([[0, 0]]),
    lambda: MonomialMap([[1, 0], [1, 0]]),
    lambda: AffineSemigroup(()),
    lambda: AffineSemigroup([[1, 0], [0]]),
    lambda: AffineSemigroup([[0, 0]]),
    lambda: Ideal(_ring(), (PolyRing(("x", "y"), QQ).parse("x"),)),
], ids=["prime-4", "prime-1", "no-names", "duplicate-names", "bad-name",
        "empty-block", "negative-block", "empty-map", "ragged-map",
        "constant-target", "repeated-target", "empty-semigroup",
        "ragged-semigroup", "zero-generator", "foreign-generator"])
def test_constructor_checks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_constructor_defaults_and_normalisations():
    assert Block({1, 0}).inner == GrevLex()
    assert Block([1, 0]).eliminated == frozenset({0, 1})
    R = PolyRing(["x", "y"])
    assert R.names == ("x", "y") and R.domain == QQ
    assert R == PolyRing(("x", "y"), QQ)
    assert Ideal(R, [R.zero, R.parse("x"), R.zero]).generators == (R.parse("x"),)
    assert Ideal(R, (R.zero,)).is_zero()
    assert MonomialMap([[2, 0], [0, 2]]).targets == ((2, 0), (0, 2))
    assert AffineSemigroup([[1]]).generators == ((1,),)
    rep = CIReport(1, (), (), 0)
    assert (rep.candidates_in_ideal, rep.generates_after_saturation,
            rep.count_matches_height, rep.verified, rep.note) == (None,) * 5
    assert Report("k", {}, ()).cited_facts == ()
    assert _Chart(2).candidates is None
    assert _Chart(2).details == MappingProxyType({})


def test_keyword_construction_and_repr():
    assert PrimeField(p=3) == GF(3)
    assert PolyRing(names=("x",), domain=QQ) == PolyRing(("x",))
    assert Block(eliminated={0}, inner=Lex()) == Block({0}, Lex())
    assert repr(PrimeField(5)) == "PrimeField(p=5)"
    assert repr(GrevLex()) == "GrevLex()"
    assert (repr(GradedPiece(2, -2, 1))
            == "GradedPiece(index=2, degree=-2, dimension=1)")
    assert repr(_poly()) == "<x^2 + 3*y in GF(5)[x, y]>"


def test_record_constructor_takes_positions_keywords_and_defaults():
    assert (CIReport(0, (), (), 1, note="n")
            == CIReport(inverted=0, candidates=(), alpha_denominators=(),
                        claimed_height=1, note="n"))
    assert CIReport(0, (), (), 1, note="n").verified is None
    assert _Chart(1, details={"a": 1}).candidates is None
    assert Check(name="a", verdict=True, details=()) == Check("a", True, ())
    for build in (lambda: GradedPiece(1, 2, 3, 4),
                  lambda: GradedPiece(1, 2),
                  lambda: GradedPiece(1, 2, index=3),
                  lambda: GradedPiece(1, 2, 3, weight=4),
                  lambda: Report("k", {})):
        with pytest.raises(TypeError):
            build()
