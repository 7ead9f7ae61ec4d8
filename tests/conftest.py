"""Fixtures shared by the test modules, the first-in, first-out engine
that cross-checks the engine's pair selection, and the replay of the
golden cases and the perfbench library reports."""
from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from itertools import count
from pathlib import Path

import pytest

import veronese
from veronese import groebner, pipeline, toric
from veronese.cli import main
from veronese.groebner import ideal_equal
from veronese.invariants import krull_dim
from veronese.polycore import QQ
from veronese.toric import (
    ci_check, toric_ideal_elimination, toric_ideal_lattice,
)

#: the presentation cache itself, whatever binding a test double replaces
_PRESENTATION = toric._presentation
#: the process-wide caches beside the ``groebner`` ones, themselves: the
#: presentation, the field-free check values, the Veronese charts and the
#: symmetric minors
_PRESENTATION_CACHES = (_PRESENTATION, pipeline._field_free_values,
                        pipeline._veronese_charts, pipeline._symmetric_minors)

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rebind(patch, function, replacement) -> None:
    """Rebinds, with ``patch``, every name under which a ``veronese``
    module holds ``function``, so that a test double reaches every module
    that calls it, the one that defines it included."""
    for name, module in sorted(sys.modules.items()):
        if name == "veronese" or name.startswith("veronese."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    patch.setattr(module, attr, replacement)


def per_characteristic_checks(mmap, doms, height, charts, cover):
    """``pipeline._characteristic_checks`` as it was before one computation
    served every characteristic, the oracle of the shared one: in each
    field its own toric routes, height, localized-CI checks and radical
    cover.  Each chart's candidates over QQ are rebuilt in the field from
    their term dicts, and every chart is checked in every field."""
    heights, checks = {}, []
    for char, dom in doms:
        label = f"char_{char}"
        ideal = toric_ideal_elimination(mmap, dom)
        lattice = toric_ideal_lattice(mmap, dom)
        dims = krull_dim(ideal)
        ring = ideal.ring
        details = {"generators": len(ideal.generators),
                   "lattice_generators": len(lattice.generators)}
        if char == 0:
            details.update(pipeline._minimal_generator_details(ideal))
        checks.append(pipeline._check(f"toric_routes_agree_{label}",
                                      ideal_equal(ideal, lattice), **details))
        checks.append(height(label, dims))
        for inv, cands, details in charts:
            cands = [ring.from_dict(dict(f.terms)) for f in cands]
            rep = ci_check(ideal, cands, inv, dims.height)
            checks.append(pipeline._ci_result(
                f"localized_ci_{label}_{ring.names[inv]}", rep, ring,
                rep.candidates, **details))
        if cover:
            checks.append(pipeline._cover_result(f"radical_cover_{label}",
                                                 ideal, cover))
        heights[char] = dims.height
    checks.append(pipeline._height_constancy(heights))
    return checks


def install_per_field(patch) -> None:
    """Installs the per-field oracle with ``patch``: each field's checks
    are built on their own (``per_characteristic_checks``), and every
    reader of the presentation in a field, the Fedder colon of ``present``
    and the fiber route of ``charp`` included, gets the ideal that the
    field's own elimination route builds instead of the one read from QQ
    (``toric._specialise``)."""
    maps = {}

    def presentation(mmap):
        unit = _PRESENTATION(mmap)
        maps[unit[0]] = mmap
        return unit

    def specialise(ideal, dom):
        return (ideal if dom == QQ
                else toric_ideal_elimination(maps[ideal], dom))

    rebind(patch, _PRESENTATION, presentation)
    rebind(patch, toric._specialise, specialise)
    patch.setattr(pipeline, "_characteristic_checks",
                  lambda unit, *rest: per_characteristic_checks(
                      maps[unit[0]], *rest))


def replay_reports(per_field: bool = False) -> None:
    """Every golden case through ``main`` and every perfbench library
    report of seeds 3 and 5, output discarded, for tests that record what
    these reports ask of the library.  The caches are cleared first, so
    that no presentation left by an earlier test spares a request.  With
    ``per_field`` the per-field oracle is installed
    (``install_per_field``), so the replay asks for what each field's
    checks take on their own."""
    from test_golden_reports import CASES
    _clear_groebner_caches()
    workloads = perfbench_module("workloads")
    session = perfbench_module("session")
    with pytest.MonkeyPatch.context() as patch:
        if per_field:
            install_per_field(patch)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in CASES.values():
                main(argv)
        for generate in workloads.GENERATORS.values():
            for seed in (3, 5):
                for spec in generate(seed):
                    session.library_report(veronese, spec)


class FifoEngine(groebner._Engine):
    """The engine with S-pairs taken first in, first out: each pair is
    queued with its position in the queue where the engine puts its lcm
    degree, so pairs leave in the order they were queued.  Reduced bases do
    not depend on the selection rule, so this engine's bases must be the
    engine's, while its work differs."""

    def __init__(self, *args):
        super().__init__(*args)
        self.position = count()

    def _push_pair(self, i, t, lcm, deg):
        super()._push_pair(i, t, lcm, next(self.position))


def _clear_caches(*modules) -> None:
    """Empty every cache defined in the given modules."""
    for module in modules:
        for value in vars(module).values():
            if (getattr(value, "__module__", None) == module.__name__
                    and hasattr(value, "cache_clear")):
                value.cache_clear()


def _clear_groebner_caches() -> None:
    """Empty every cache defined in ``veronese.groebner``, the presentation
    cache ``toric._presentation`` and the field-free check values
    ``pipeline._field_free_values``, whose entries were built from them,
    the Veronese charts ``pipeline._veronese_charts`` and the symmetric
    minors ``pipeline._symmetric_minors``, so that the next request does
    its engine work, and the next report its toric routes, height, chart
    derivations, CI checks, radical cover, minimal generators and minors,
    as in a fresh process.  Each cache is reached through its
    own function, which a test double may have rebound in its module."""
    _clear_caches(groebner)
    for cache in _PRESENTATION_CACHES:
        cache.cache_clear()
        assert cache.cache_info().currsize == 0


@pytest.fixture
def groebner_caches():
    """Clears every ``groebner`` cache, the presentation cache and the
    caches beside it (``_clear_groebner_caches``) before and after the
    test, and gives the test the clearing function for clears of its
    own."""
    _clear_groebner_caches()
    yield _clear_groebner_caches
    _clear_groebner_caches()


@pytest.fixture
def fifo(monkeypatch, groebner_caches):
    """Calls a function with ``FifoEngine`` doing every engine run.  The
    ``groebner`` caches are cleared before and after the call, because
    their keys do not tell the two engines apart."""
    def call(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_Engine", FifoEngine)
            groebner_caches()
            try:
                return fn(*args)
            finally:
                groebner_caches()
    return call


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
