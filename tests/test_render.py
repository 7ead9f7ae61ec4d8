"""The report renderer against ``json``: ``render_json(value)`` must be
``json.dumps(value, indent=2) + "\\n"``, byte for byte, for every value of
the types a report holds (dicts with str keys, lists, tuples, str, int,
bool, None and finite floats), and must refuse every other value instead of
rendering it some other way.

The values are seeded nested ones up to depth 4 with strings built from
every class of character the renderer escapes differently, fixed edge
cases, and the report envelope of every golden case, rendered again."""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from veronese.pipeline import char_compare, render_json

_GOLDEN_DIR = Path(__file__).parent / "golden"

#: a quote and a backslash, the short escapes, the ends of the control
#: range, DEL, two characters of the Basic Multilingual Plane, one above it
#: (a surrogate pair) and the empty string; plain ASCII pieces as well
_PIECES = ['"', "\\", "\b\f\n\r\t", "\x00", "\x1f", "\x7f", "é",
           "≤", "\U0001d11e", "", "t1", "x^2 - y", " "]


def _oracle(value) -> str:
    return json.dumps(value, indent=2) + "\n"


def _string(rng: random.Random) -> str:
    return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 4)))


def _value(rng: random.Random, depth: int):
    kinds = ["str", "int", "bool", "none", "float"]
    if depth < 4:
        kinds += ["dict", "list", "tuple"] * 2
    kind = rng.choice(kinds)
    size = rng.randint(0, 4)
    if kind == "str":
        return _string(rng)
    if kind == "int":
        return rng.choice((rng.randint(-50, 50), rng.randint(-10**40, 10**40)))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "float":
        return round(rng.uniform(-1e4, 1e4) * rng.choice((1, 1e-6, 1e12)), 3)
    items = [_value(rng, depth + 1) for _ in range(size)]
    if kind == "dict":
        return {_string(rng): item for item in items}
    return items if kind == "list" else tuple(items)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_values_render_as_json_does(seed):
    rng = random.Random(f"render/{seed}")
    for _ in range(60):
        value = _value(rng, 0)
        assert render_json(value) == _oracle(value), value


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, [[]], ((),)], (1, (2, ())),
    {"": ""}, 0, -7, -10**39, 10**39, True, False, None,
    {"t": True, "f": False, "n": None, "i": -1},
    0.0, -0.0, 1.0, round(2 / 3, 3), round(-1234.56789, 3), 1e16, 1e-7,
    round(1e22 / 3, 3), {"elapsed_seconds": round(0.1234567, 3)},
    [*_PIECES], {piece: piece for piece in _PIECES},
    "\U0001d11eé\x7f", "\ud834", "￿", "\U0010ffff",
])
def test_edge_values_render_as_json_does(value):
    assert render_json(value) == _oracle(value)


@pytest.mark.parametrize("value, error", [
    ({1, 2}, TypeError),
    (b"bytes", TypeError),
    (object(), TypeError),
    (frozenset(), TypeError),
    ({1: "int key"}, TypeError),
    ({None: "no key"}, TypeError),
    ({"deep": [{"set": {3}}]}, TypeError),
    (math.nan, ValueError),
    (math.inf, ValueError),
    (-math.inf, ValueError),
    ({"rate": [0.5, math.nan]}, ValueError),
])
def test_values_outside_a_report_are_refused(value, error):
    with pytest.raises(error):
        render_json(value)


def _golden_cases():
    return sorted(p.stem for p in _GOLDEN_DIR.glob("*.json"))


@pytest.mark.parametrize("case", _golden_cases())
def test_golden_envelopes_render_again(case):
    """A golden file and the report in its stdout, read back and rendered
    again, give their own text."""
    text = (_GOLDEN_DIR / f"{case}.json").read_text("utf-8")
    golden = json.loads(text)
    assert render_json(golden) == text
    assert golden["stdout"]
    assert render_json(json.loads(golden["stdout"])) == golden["stdout"]


def test_integers_of_any_length_render():
    """Every int of a report is written by ``polycore._decimal``: one of
    5,000 digits and its negative render as their digits, past the
    4,300 that ``json`` writes under CPython's default
    ``int_max_str_digits``, and so does a ``char_compare`` target of more
    than 4,300 digits, in its description."""
    sevens = 7 * (10 ** 5000 - 1) // 9
    assert render_json({"n": sevens, "m": [-sevens, 0, -1]}) == (
        '{\n  "n": ' + "7" * 5000 + ',\n  "m": [\n    -' + "7" * 5000
        + ',\n    0,\n    -1\n  ]\n}\n')
    report = char_compare([(10 ** 5000,)], primes=(2,))
    assert report.params["description"] == "toric ideal of 1" + "0" * 5000
    text = render_json(report.to_report())
    assert '"description": "toric ideal of 1' + "0" * 5000 + '"' in text
