"""The presentation cache: ``pipeline._presentation`` derives the two toric
routes and the height once per map in a process, over QQ, for every
characteristic, and no report's bytes depend on what the process computed
before it."""
from __future__ import annotations

from collections import Counter

import pytest

from conftest import _clear_caches, perfbench_module

import veronese
from veronese import charp, groebner, invariants, pipeline, polycore, toric
from veronese.cli import main
from veronese.pipeline import (
    cd_certificate, char_compare, present_monomial_algebra,
)
from veronese.toric import veronese_map

_STAGES = ("toric_ideal_elimination", "toric_ideal_lattice", "krull_dim")


@pytest.fixture
def stage_calls(monkeypatch, groebner_caches):
    """(function, characteristic) of every toric-route and height call made
    through ``pipeline``, with the caches cleared first.  Every one of them
    is in characteristic zero."""
    tally = Counter()
    for name in _STAGES:
        function = getattr(pipeline, name)

        def wrapped(*args, _name=name, _function=function):
            ring = args[0].ring if _name == "krull_dim" else None
            dom = args[1] if ring is None else ring.domain
            tally[_name, dom.characteristic] += 1
            return _function(*args)

        monkeypatch.setattr(pipeline, name, wrapped)
    return tally


def _session_pass(before_each=lambda: None) -> list[str]:
    """The bodies of the seed-3 ``session`` library reports, rendered in
    this process in input order, ``before_each`` called before each."""
    specs = perfbench_module("workloads").GENERATORS["session"](3)
    session = perfbench_module("session")
    bodies = []
    for spec in specs:
        before_each()
        bodies.append(session.library_report(veronese, spec))
    return bodies


def test_a_fresh_session_pass_presents_each_algebra_once(stage_calls):
    """The 35 reports of the seed-3 ``session`` pass ask for one
    presentation each, on 7 algebras; each call of a route or of the
    height is one of those 7, over QQ, whatever primes the reports name."""
    assert len(_session_pass()) == 35
    assert stage_calls == {(name, 0): 7 for name in _STAGES}
    info = pipeline._presentation.cache_info()
    assert (info.misses, info.hits) == (7, 28)


def test_a_second_report_on_an_algebra_presents_nothing(stage_calls, capsys):
    cd_certificate(2, 3, (2,))
    assert stage_calls == {(name, 0): 1 for name in _STAGES}
    stage_calls.clear()
    targets = veronese_map(2, 3).targets
    present_monomial_algebra(targets, primes=(2, 3))
    char_compare(targets, primes=(2, 5, 7))
    assert main(["veronese-ideal", "-k", "2", "-n", "3", "--char", "3"]) == 0
    assert stage_calls == {}
    capsys.readouterr()


def test_the_unit_is_one_immutable_value():
    """Every field of the cached unit is a hashable value, so no report can
    change what the next one reads."""
    unit = pipeline._presentation(veronese_map(2, 2))
    hash(unit)
    ideal, lattice, agree, dims = unit
    assert agree is True and (dims.height, dims.dimension) == (1, 2)
    assert ideal.ring.domain == polycore.QQ
    assert type(ideal.generators) is type(lattice.generators) is tuple


def _mutable_parts(value):
    """Every dict and list inside ``value``, itself included."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from _mutable_parts(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from _mutable_parts(item)


def test_checks_are_never_shared_between_reports(groebner_caches):
    """Each report builds its own checks, and each of its checks its own
    details, though one computation serves every characteristic: no dict
    or list inside the details of a check is inside those of another check
    of the report or of the next report on the same algebra, and changing
    one report's details leaves the next report as it was."""
    first = cd_certificate(2, 2, (2, 3))
    expected = pipeline.render_json(first.to_report())
    second = cd_certificate(2, 2, (2, 3))
    assert pipeline._presentation.cache_info().hits == 1
    seen = set()
    for check in (*first.checks, *second.checks):
        parts = {id(part) for part in _mutable_parts(check.details)}
        assert not parts & seen, check.name
        seen |= parts
    for check in first.checks:
        for part in list(_mutable_parts(check.details)):
            part.clear()
    assert pipeline.render_json(second.to_report()) == expected
    third = cd_certificate(2, 2, (2, 3))
    assert pipeline.render_json(third.to_report()) == expected


def test_session_bodies_do_not_depend_on_earlier_reports(groebner_caches):
    """The seed-3 ``session`` reports, rendered one after the other in one
    warm process and each with every cache of the package cleared first,
    are the same bytes."""
    warm = _session_pass()
    assert pipeline._presentation.cache_info().hits > 0
    assert _session_pass(lambda: _clear_caches(
        charp, groebner, invariants, pipeline, polycore, toric)) == warm
