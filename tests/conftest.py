"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest

from veronese import groebner


def _clear_groebner_caches() -> None:
    """Empty every cache defined in ``veronese.groebner``, so that the next
    request does its engine work as in a fresh process."""
    for value in vars(groebner).values():
        if (getattr(value, "__module__", None) == groebner.__name__
                and hasattr(value, "cache_clear")):
            value.cache_clear()


@pytest.fixture
def groebner_caches():
    """Clears every ``groebner`` cache before and after the test, and gives
    the test the clearing function for clears of its own."""
    _clear_groebner_caches()
    yield _clear_groebner_caches
    _clear_groebner_caches()


@pytest.fixture
def engine_counts(monkeypatch, groebner_caches):
    """S-polynomials formed, pairs queued and basis insertions of every
    engine run in the test, counted by wrapping the engine's methods, with
    the ``groebner`` caches cleared first."""
    tally = {"_spoly": 0, "_push_pair": 0, "insert": 0}
    for name in tally:
        method = getattr(groebner._Engine, name)

        def wrapped(self, *args, _name=name, _method=method):
            tally[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(groebner._Engine, name, wrapped)
    return tally


@pytest.fixture
def colon_calls(monkeypatch):
    """Calls of ``groebner.colon`` and ``groebner.intersect`` made through
    the module, those inside ``colon`` included, counted by wrapping the
    module attributes that ``colon_ideal`` calls."""
    tally = {"colon": 0, "intersect": 0}
    for name in tally:
        function = getattr(groebner, name)

        def wrapped(*args, _name=name, _function=function):
            tally[_name] += 1
            return _function(*args)

        monkeypatch.setattr(groebner, name, wrapped)
    return tally
