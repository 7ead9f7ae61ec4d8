"""The presentation cache: ``toric._presentation`` derives the two toric
routes and the height once per map in a process, over QQ, for every
characteristic and every reader, the fiber route of ``charp`` included, so
no report builds a toric ideal outside QQ; and no report's bytes depend on
what the process computed before it."""
from __future__ import annotations

from collections import Counter

import pytest

from conftest import _clear_caches, perfbench_module, rebind

import veronese
from veronese import charp, groebner, invariants, pipeline, polycore, toric
from veronese.cli import main
from veronese.pipeline import (
    QUARTIC_CURVE_TARGETS, cd_certificate, char_compare,
    present_monomial_algebra,
)
from veronese.toric import veronese_map

_STAGES = ("toric_ideal_elimination", "toric_ideal_lattice", "krull_dim")


@pytest.fixture
def stage_calls(monkeypatch, groebner_caches):
    """(function, characteristic) of every toric-route and height call made
    through any module that binds them, with the caches cleared first.
    Every one of them is in characteristic zero."""
    tally = Counter()
    for name in _STAGES:
        function = getattr(veronese, name)

        def wrapped(*args, _name=name, _function=function):
            ring = args[0].ring if _name == "krull_dim" else None
            dom = args[1] if ring is None else ring.domain
            tally[_name, dom.characteristic] += 1
            return _function(*args)

        rebind(monkeypatch, function, wrapped)
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
    presentation each, on 7 algebras, and their fiber routes 12 more, one
    per prime of a certificate; each call of a route or of the height is
    one of those 7, over QQ, whatever primes the reports name."""
    assert len(_session_pass()) == 35
    assert stage_calls == {(name, 0): 7 for name in _STAGES}
    info = toric._presentation.cache_info()
    assert (info.misses, info.hits) == (7, 40)


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


def test_no_report_builds_a_toric_ideal_outside_the_rationals(stage_calls):
    """A certificate at three primes and a presentation report at the same
    three: one lattice route per algebra, over QQ.  The fiber route reads
    the QQ presentation into each prime field; it used to build its own
    by the lattice route over GF(2), GF(3) and GF(5)."""
    cd_certificate(2, 3, (2, 3, 5))
    present_monomial_algebra(QUARTIC_CURVE_TARGETS, (2, 3, 5),
                             radical_subset=(0, 3))
    lattice = {key: n for key, n in stage_calls.items()
               if key[0] == "toric_ideal_lattice"}
    assert lattice == {("toric_ideal_lattice", 0): 2}


def test_the_unit_is_one_immutable_value():
    """Every field of the cached unit is a hashable value, so no report can
    change what the next one reads."""
    unit = toric._presentation(veronese_map(2, 2))
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
    info = toric._presentation.cache_info()
    # each report reads it once, and its fiber route once per prime
    assert (info.misses, info.hits) == (1, 5)
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
    assert toric._presentation.cache_info().hits > 0
    assert _session_pass(lambda: _clear_caches(
        charp, groebner, invariants, pipeline, polycore, toric)) == warm
