"""The presentation cache: ``toric._presentation`` derives the two toric
routes and the height once per map in a process, over QQ, for every
characteristic and every reader, the fiber route of ``charp`` included, so
no report builds a toric ideal outside QQ.  Beside it,
``pipeline._field_free_values`` checks the charts, the radical cover and
the minimal generators once per algebra, chart set and cover, and
``pipeline._veronese_charts`` derives a Veronese map's charts once, and
``pipeline._symmetric_minors`` builds the symmetric minors once per k.  No
report's bytes depend on what the process computed before it."""
from __future__ import annotations

import json
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


def _session_pass(before_each=lambda: None, order=list) -> list[str]:
    """The bodies of the seed-3 ``session`` library reports, rendered in
    this process in input order, or in ``order(inputs)``, ``before_each``
    called before each."""
    specs = perfbench_module("workloads").GENERATORS["session"](3)
    session = perfbench_module("session")
    bodies = []
    for spec in order(specs):
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


#: the functions that ``pipeline`` calls for the checks of a report, and
#: their calls in a fresh seed-3 ``session`` pass
_PASS_CALLS = {"ci_sequence": 9, "ci_check": 9, "_radical_cover": 7,
               "minimal_generators": 7, "fedder_fpure": 16, "fedder_fiber": 12}


def test_a_fresh_session_pass_checks_each_algebra_once(monkeypatch,
                                                       groebner_caches):
    """The 28 certificates and presentation reports of the seed-3
    ``session`` pass derive their Veronese charts (36 derivations when each
    report made its own), check their charts (36), radical covers (28) and
    minimal generators (28) once per algebra, chart set and cover: 7 of
    them, each read again 21 times.  The Fedder checks, which depend on
    the field, run as often as before."""
    tally = Counter()
    for name in _PASS_CALLS:
        function = getattr(pipeline, name)

        def wrapped(*args, _name=name, _function=function):
            tally[_name] += 1
            return _function(*args)

        monkeypatch.setattr(pipeline, name, wrapped)
    assert len(_session_pass()) == 35
    assert tally == _PASS_CALLS
    info = pipeline._field_free_values.cache_info()
    assert (info.misses, info.hits) == (7, 21)
    info = pipeline._veronese_charts.cache_info()
    assert (info.misses, info.hits) == (4, 12)


def test_other_charts_and_covers_get_their_own_verdicts(groebner_caches):
    """Reports on one Veronese map with the default charts and cover, with
    other charts, and with another cover: each is checked on its own, and
    each body is the one a fresh process renders.  The given charts are a
    candidate with coefficients that vanish mod 2, checked in each field,
    and one outside the ideal; the other cover misses t1 and t3."""
    targets = veronese_map(2, 2).targets
    requests = [{}, {"ci_candidates": {0: ["2*t1*t3 - 2*t2^2"],
                                       2: ["t2^2"]}},
                {"radical_subset": (1,)}]

    def render(request):
        return pipeline.render_json(present_monomial_algebra(
            targets, (2, 3), **request).to_report())

    warm = [render(request) for request in requests]
    assert pipeline._field_free_values.cache_info().misses == 3
    verdicts = [{c["name"]: c["verdict"] for c in json.loads(body)["checks"]}
                for body in warm]
    assert all(verdicts[0].values())
    assert not verdicts[1]["localized_ci_char_2_t1"]
    assert verdicts[1]["localized_ci_char_3_t1"]
    assert not verdicts[1]["localized_ci_char_0_t3"]
    assert not verdicts[2]["radical_cover_char_0"]
    for request, body in zip(requests, warm):
        _clear_caches(charp, groebner, invariants, pipeline, polycore, toric)
        assert render(request) == body


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
    details, though one computation serves every characteristic and every
    report on the algebra: no dict or list inside the details of a check
    is inside those of another check of the report or of the next report
    on the same algebra, and changing one report's details leaves the next
    report as it was.  So for two certificates, and for two presentation
    reports on a Veronese map, which have charts and a cover."""
    conic = veronese_map(2, 2).targets
    # each certificate reads the presentation once, and its fiber route
    # once per prime; a presentation report reads it once
    for make, reads in ((lambda: cd_certificate(2, 2, (2, 3)), (1, 5)),
                        (lambda: present_monomial_algebra(conic, (2, 3)),
                         (1, 1))):
        groebner_caches()
        first = make()
        expected = pipeline.render_json(first.to_report())
        second = make()
        info = toric._presentation.cache_info()
        assert (info.misses, info.hits) == reads
        info = pipeline._field_free_values.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        seen = set()
        for check in (*first.checks, *second.checks):
            parts = {id(part) for part in _mutable_parts(check.details)}
            assert not parts & seen, check.name
            seen |= parts
        for check in first.checks:
            for part in list(_mutable_parts(check.details)):
                part.clear()
        assert pipeline.render_json(second.to_report()) == expected
        third = make()
        assert pipeline.render_json(third.to_report()) == expected


def test_session_bodies_do_not_depend_on_earlier_reports(groebner_caches):
    """The seed-3 ``session`` reports, rendered one after the other in one
    warm process and each with every cache of the package cleared first,
    are the same bytes."""
    warm = _session_pass()
    assert toric._presentation.cache_info().hits > 0
    assert _session_pass(lambda: _clear_caches(
        charp, groebner, invariants, pipeline, polycore, toric)) == warm


def test_session_bodies_do_not_depend_on_the_order_of_reports(
        groebner_caches):
    """The seed-3 ``session`` reports rendered in reverse order, each
    algebra's checks then computed for another report than in input order,
    give every input the body it gets in input order."""
    forward = _session_pass()
    groebner_caches()
    backward = _session_pass(order=lambda specs: specs[::-1])
    assert pipeline._field_free_values.cache_info().hits == 21
    assert backward[::-1] == forward


def test_the_symmetric_minors_are_built_once_per_k(monkeypatch,
                                                   groebner_caches):
    """Certificates with n = 2 build the minors of their k once in a
    process, and a repeated certificate renders the same bytes."""
    calls = Counter()
    build = pipeline.symmetric_minors_ideal

    def counted(k):
        calls[k] += 1
        return build(k)

    monkeypatch.setattr(pipeline, "symmetric_minors_ideal", counted)
    bodies = [pipeline.render_json(cd_certificate(k, 2, (2,)).to_report())
              for k in (2, 3, 2, 3)]
    assert calls == {2: 1, 3: 1}
    assert bodies[:2] == bodies[2:]
    assert all('"symmetric_minors_match"' in body for body in bodies)
