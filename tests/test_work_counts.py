"""Pinned Buchberger work on fixed inputs: S-polynomials formed, pairs
queued and basis insertions, counted by wrapping the engine's methods from
the test side.  A change to pair selection, the criteria or the widening
path that adds or removes work shows up here even when the bases agree.
The caches are cleared first, so each count is that of a fresh process."""
from __future__ import annotations

import pytest

from veronese import groebner
from veronese.charp import fedder_fpure
from veronese.polycore import GF, QQ
from veronese.toric import (
    MonomialMap, toric_ideal_elimination, toric_ideal_lattice,
    veronese_map,
)

QUARTIC = ((4, 0), (3, 1), (1, 3), (0, 4))


@pytest.fixture
def counts(monkeypatch):
    tally = {"_spoly": 0, "_push_pair": 0, "insert": 0}
    for name in tally:
        method = getattr(groebner._Engine, name)

        def wrapped(self, *args, _name=name, _method=method):
            tally[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(groebner._Engine, name, wrapped)
    groebner._buchberger_cached.cache_clear()
    groebner._gb_entries.cache_clear()
    yield tally
    groebner._buchberger_cached.cache_clear()
    groebner._gb_entries.cache_clear()


@pytest.mark.parametrize("k, n, expected", [
    (2, 3, {"_spoly": 27, "_push_pair": 29, "insert": 12}),
    (3, 2, {"_spoly": 90, "_push_pair": 107, "insert": 27}),
])
def test_veronese_by_elimination(counts, k, n, expected):
    toric_ideal_elimination(veronese_map(k, n), QQ)
    assert counts == expected


def test_fedder_on_the_quartic_curve_at_five(counts):
    ideal = toric_ideal_lattice(MonomialMap(QUARTIC), GF(5))
    for name in counts:
        counts[name] = 0
    groebner._buchberger_cached.cache_clear()
    groebner._gb_entries.cache_clear()
    assert fedder_fpure(ideal, 5).f_pure is False
    assert counts == {"_spoly": 351, "_push_pair": 545, "insert": 185}
