"""Pinned Buchberger work on fixed inputs: S-polynomials formed, pairs
queued and basis insertions, counted by wrapping the engine's methods from
the test side.  A change to pair selection, the criteria or the widening
path that adds or removes work shows up here even when the bases agree.
The ``groebner`` caches are cleared first (the ``engine_counts`` fixture of
``conftest.py``), so each count is that of a fresh process."""
from __future__ import annotations

import pytest

from veronese.charp import fedder_fpure
from veronese.polycore import GF, QQ
from veronese.toric import (
    MonomialMap, toric_ideal_elimination, toric_ideal_lattice,
    veronese_map,
)

QUARTIC = ((4, 0), (3, 1), (1, 3), (0, 4))


@pytest.mark.parametrize("k, n, expected", [
    (2, 3, {"_spoly": 20, "_push_pair": 20, "insert": 10}),
    (3, 2, {"_spoly": 64, "_push_pair": 64, "insert": 20}),
])
def test_veronese_by_elimination(engine_counts, k, n, expected):
    toric_ideal_elimination(veronese_map(k, n), QQ)
    assert engine_counts == expected


def test_fedder_on_the_quartic_curve_at_five(engine_counts, groebner_caches,
                                             colon_calls):
    """The colon (I^[5] : I) over the four generators of I: the running
    intersection already lies in the last two pieces, so ``colon_ideal``
    computes two pieces (each one ``intersect`` inside ``colon``) and one
    combining ``intersect``."""
    ideal = toric_ideal_lattice(MonomialMap(QUARTIC), GF(5))
    for name in engine_counts:
        engine_counts[name] = 0
    groebner_caches()
    assert fedder_fpure(ideal).f_pure is False
    assert engine_counts == {"_spoly": 162, "_push_pair": 208, "insert": 84}
    assert colon_calls == {"colon": 2, "intersect": 3}
