"""Elimination against the route it replaced.

``eliminate`` reduces and builds only the elements of its run whose lead is
free of the dropped variables, each against the others alone, and reads
their kept exponent fields straight into the smaller ring.  The oracle here
is a copy of the route before: the whole reduced basis under the
elimination order, ``buchberger(ideal, Block(drop))``, restricted to the
elements free of the dropped variables.  With ``groebner.eliminate``
replaced by the oracle, ``intersect``, ``saturate`` and ``colon_ideal`` take
the old route too.  On seeded binomial and generic ideals over QQ, GF(2)
and GF(5), dropping one to three variables, on an input whose run outgrows
the first packing width, and on the Fedder colons of the golden reports
and of the perfbench library reports of seeds 3 and 5, both routes must
build exactly the same polynomials."""
from __future__ import annotations

import random
from itertools import compress

import pytest

from veronese import charp, groebner
from veronese.groebner import (
    Ideal, buchberger, colon_ideal, eliminate, intersect, saturate,
)
from veronese.polycore import (
    GF, Block, PolyRing, Polynomial, QQ, _FIELD_BITS,
)

from conftest import replay_reports
from test_kernel_reference import _random_binomials, _random_poly


def _restricted_basis(ideal: Ideal, drop) -> Ideal:
    """The route before: the reduced basis under ``Block(drop)``, and of it
    the elements without a term in a dropped variable, restricted."""
    ring = ideal.ring
    kept = [i not in drop for i in range(ring.arity)]
    dropped = [not k for k in kept]
    small = PolyRing(tuple(compress(ring.names, kept)), ring.domain)
    out = []
    for g in buchberger(ideal, Block(drop)).elements:
        terms = []
        for m, c in g.terms:
            if any(compress(m, dropped)):
                break
            terms.append((tuple(compress(m, kept)), c))
        else:
            out.append(Polynomial(small, tuple(terms)))
    return Ideal(small, tuple(out))


def _exact(ideal: Ideal):
    """The ring and the repr of the terms, so that equal values of other
    types, 1 and Fraction(1), differ."""
    return ideal.ring, [repr(g.terms) for g in ideal.generators]


@pytest.fixture
def both_routes(monkeypatch, groebner_caches):
    """Calls a function once as the library runs it and once with
    ``groebner.eliminate`` replaced by the oracle, each from empty
    caches, and returns both values."""
    def call(fn, *args):
        groebner_caches()
        got = fn(*args)
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "eliminate", _restricted_basis)
            groebner_caches()
            expected = fn(*args)
        groebner_caches()
        return got, expected
    return call


def _generic(rng, ring):
    """Two or three polynomials of one to three squarefree terms and a
    trinomial, so that the run is in the ideal's own domain."""
    out = [_random_poly(rng, ring, rng.randint(1, 3), 1)
           for _ in range(rng.randint(2, 3))]
    a, b, c = (ring.variable(i) for i in rng.sample(range(ring.arity), 3))
    out.append(a * b - c * c + a * c)
    return [g for g in out if not g.is_zero()]


def _seeded_cases(dom):
    rng = random.Random(f"elimination/{dom}")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    for kind in ("binomial", "generic") * 8:
        make = _random_binomials if kind == "binomial" else _generic
        a = Ideal(ring, make(rng, ring))
        b = Ideal(ring, make(rng, ring))
        f = (ring.variable(rng.randrange(ring.arity)) if kind == "binomial"
             else _random_poly(rng, ring, 2, 1))
        drop = frozenset(rng.sample(range(ring.arity), rng.randint(1, 3)))
        yield kind, a, b, f, drop


@pytest.mark.parametrize("dom", [QQ, GF(2), GF(5)], ids=str)
def test_seeded_eliminations_match_the_restricted_basis(dom, both_routes):
    drops = set()
    for kind, a, b, f, drop in _seeded_cases(dom):
        case = f"{kind} {a} dropping {sorted(drop)}"
        got, expected = both_routes(eliminate, a, drop)
        assert _exact(got) == _exact(expected), case
        got, expected = both_routes(intersect, a, b)
        assert _exact(got) == _exact(expected), case
        if not f.is_zero():
            got, expected = both_routes(saturate, a, f)
            assert _exact(got) == _exact(expected), case
        got, expected = both_routes(colon_ideal, a, b)
        assert _exact(got) == _exact(expected), case
        drops.add(len(drop))
    assert drops == {1, 2, 3}


def test_an_elimination_past_the_first_width(both_routes):
    """The run outgrows the first packing width, so both routes read the
    kept fields of a wider packing."""
    ring = PolyRing(("x", "y", "z"), GF(5))
    ideal = Ideal(ring, (ring.parse("x - y^200"), ring.parse("x*z - y")))
    got, expected = both_routes(eliminate, ideal, {0})
    assert _exact(got) == _exact(expected)
    assert max(g.total_degree() for g in got.generators) >= \
        1 << _FIELD_BITS - 1
    for fn, other in ((intersect, Ideal(ring, (ring.parse("y*z"),))),
                      (colon_ideal, Ideal(ring, (ring.parse("z"),
                                                 ring.parse("y^2"))))):
        got, expected = both_routes(fn, ideal, other)
        assert _exact(got) == _exact(expected)


@pytest.fixture(scope="module")
def fedder_inputs():
    """The (I^[p], I) pairs whose colon ``fedder_fpure`` asks for in the
    golden cases and the perfbench library reports of seeds 3 and 5."""
    inputs = {}
    colon = charp.colon_ideal

    def record(ideal, other):
        inputs.setdefault((ideal, other), None)
        return colon(ideal, other)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charp, "colon_ideal", record)
        replay_reports()
    return list(inputs)


def test_fedder_colons_match_the_restricted_basis(fedder_inputs,
                                                  both_routes):
    assert {ideal.ring.domain.characteristic
            for ideal, _ in fedder_inputs} == {2, 3, 5}
    for ideal, other in fedder_inputs:
        got, expected = both_routes(colon_ideal, ideal, other)
        assert _exact(got) == _exact(expected), f"({ideal} : {other})"
