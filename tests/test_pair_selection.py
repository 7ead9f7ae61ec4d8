"""S-pair selection by the degree in the kept variables.

Under an elimination order the engine takes pairs by the degree of their
lcm in the variables the outer block keeps; the eliminated variables weigh
nothing.  The oracles are the engine that selects by total degree, as it
did before, and the first-in, first-out engine (``FifoEngine``): on seeded
ideals over QQ, GF(2) and GF(5), the bases under every order and the
results of ``eliminate``, ``saturate``, ``intersect`` and ``colon_ideal``
must be the same, while the work differs."""
from __future__ import annotations

import random

import pytest

from veronese import groebner
from veronese.groebner import (
    Ideal, _Engine, buchberger, colon_ideal, eliminate, intersect, saturate,
)
from veronese.polycore import (
    GF, Block, GrevLex, Lex, PolyRing, QQ, _FIELD_BITS, _packing,
)

from conftest import FifoEngine
from test_kernel_reference import _ORDERS, _random_binomials, _random_poly


class _TotalDegree(_Engine):
    """Selects pairs by the total degree of their lcm under every order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.kept = None


def _seeded_inputs(rng, ring):
    """Two ideals, one of binomials and one with a random polynomial of up
    to three terms as well, so that some runs take the shared binomial path
    and some the run in the domain; a variable to saturate by and variables
    to drop."""
    a = _random_binomials(rng, ring)
    a.append(_random_poly(rng, ring, 3, 2))
    b = _random_binomials(rng, ring)
    f = ring.variable(rng.randrange(ring.arity))
    drop = rng.sample(range(ring.arity), rng.randint(1, 2))
    return Ideal(ring, a), Ideal(ring, b), f, drop


def _results(inputs):
    a, b, f, drop = inputs
    return ([buchberger(a, order).elements for order in _ORDERS],
            eliminate(a, drop).generators, saturate(a, f).generators,
            intersect(a, b).generators, colon_ideal(a, b).generators)


@pytest.mark.parametrize("oracle", [_TotalDegree, FifoEngine],
                         ids=["total-degree", "fifo"])
@pytest.mark.parametrize("dom", [QQ, GF(2), GF(5)], ids=str)
def test_selection_by_kept_degree_matches_other_selections(
        dom, oracle, engine_counts, groebner_caches, monkeypatch):
    rng = random.Random(f"selection/{dom}/{oracle.__name__}")
    ring = PolyRing(("a", "b", "c", "d"), dom)
    spolys = {}
    for _ in range(3):
        inputs = _seeded_inputs(rng, ring)
        for engine in (_Engine, oracle):
            with monkeypatch.context() as patch:
                patch.setattr(groebner, "_Engine", engine)
                groebner_caches()
                before = engine_counts["_spoly"]
                got = _results(inputs)
                spolys[engine] = spolys.get(engine, 0) + \
                    engine_counts["_spoly"] - before
            if engine is _Engine:
                expected = got
        assert got == expected
    assert spolys[_Engine] != spolys[oracle]


class _Logged(_Engine):
    def __init__(self, *args):
        super().__init__(*args)
        self.pushed = []

    def _push_pair(self, i, t, lcm, deg):
        self.pushed.append(deg)
        super()._push_pair(i, t, lcm, deg)


@pytest.mark.parametrize("order, degree", [
    (Block(frozenset({2})), 3),
    (Block(frozenset({0, 2})), 1),
    (GrevLex(), 6),
    (Lex(), 6),
], ids=str)
def test_elimination_selection_ignores_the_eliminated_variables(order,
                                                                degree):
    """Leads x^2*w^3 and x*y*w^3: their lcm x^2*y*w^3 has degree 6, and 3
    in x and y."""
    ring = PolyRing(("x", "y", "w"), QQ)
    gens = [ring.parse("x^2*w^3 - y"), ring.parse("x*y*w^3 - x")]
    engine = _Logged(ring, _packing(order, 3, _FIELD_BITS))
    engine.run(gens)
    assert engine.pushed[0] == degree
