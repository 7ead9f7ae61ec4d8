"""The presentation cache: ``pipeline._presentation`` derives the two toric
routes and the height once per (map, field) in a process, and no report's
bytes depend on what the process computed before it."""
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
    through ``pipeline``, with the caches cleared first."""
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


def test_a_fresh_session_pass_presents_each_algebra_once_per_field(
        stage_calls):
    """The seed-3 ``session`` pass asks for 85 presentations, 37 of them
    distinct; each call of a route or of the height is one of those 37."""
    assert len(_session_pass()) == 35
    per_stage = Counter()
    for (name, _), calls in stage_calls.items():
        per_stage[name] += calls
    assert per_stage == {name: 37 for name in _STAGES}
    info = pipeline._presentation.cache_info()
    assert (info.misses, info.hits) == (37, 48)


def test_a_second_report_on_an_algebra_presents_only_new_fields(
        stage_calls, capsys):
    cd_certificate(2, 3, (2,))
    assert stage_calls == {(name, c): 1 for name in _STAGES for c in (0, 2)}
    stage_calls.clear()
    targets = veronese_map(2, 3).targets
    present_monomial_algebra(targets, primes=(2,))
    char_compare(targets, primes=(2,))
    assert main(["veronese-ideal", "-k", "2", "-n", "3", "--char", "2"]) == 0
    assert stage_calls == {}
    present_monomial_algebra(targets, primes=(2, 3))
    assert stage_calls == {(name, 3): 1 for name in _STAGES}
    capsys.readouterr()


def test_the_unit_is_one_immutable_value():
    """Every field of the cached unit is a hashable value, so no report can
    change what the next one reads."""
    unit = pipeline._presentation(veronese_map(2, 2), polycore.GF(3))
    hash(unit)
    ideal, lattice, agree, dims = unit
    assert agree is True and (dims.height, dims.dimension) == (1, 2)
    assert type(ideal.generators) is type(lattice.generators) is tuple


def test_checks_are_never_shared_between_reports(groebner_caches):
    """Each report builds its own checks: changing one report's details
    leaves the next report on the same algebra as it was."""
    first = cd_certificate(2, 2, (2,))
    expected = pipeline.render_json(first.to_report())
    for check in first.checks:
        check.details.clear()
    second = cd_certificate(2, 2, (2,))
    assert pipeline._presentation.cache_info().hits == 2
    assert pipeline.render_json(second.to_report()) == expected


def test_session_bodies_do_not_depend_on_earlier_reports(groebner_caches):
    """The seed-3 ``session`` reports, rendered one after the other in one
    warm process and each with every cache of the package cleared first,
    are the same bytes."""
    warm = _session_pass()
    assert pipeline._presentation.cache_info().hits > 0
    assert _session_pass(lambda: _clear_caches(
        charp, groebner, invariants, pipeline, polycore, toric)) == warm
