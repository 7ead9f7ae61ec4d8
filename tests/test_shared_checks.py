"""One computation per algebra: the toric routes, the height, the
localized-CI verdicts of charts of +-1 binomials and monomials, and the
radical cover of a report are computed once, over QQ, and serve every
characteristic.

The oracle, ``conftest.install_per_field``, builds every check in each
field on its own, and gives every other reader of the presentation in a
field, the Fedder colon and the fiber route included, the ideal built in
that field; the reports it gives must be those of the shared computation,
byte for byte."""
from __future__ import annotations

import json
import random

import pytest

from conftest import (
    _clear_groebner_caches, install_per_field, perfbench_module, rebind,
)
from test_golden_reports import CASES, _replay
import test_cli_fuzz as fuzz

import veronese
from veronese import pipeline, polycore, toric
from veronese.cli import main
from veronese.groebner import Ideal
from veronese.pipeline import (
    QUARTIC_CURVE_TARGETS, cd_certificate, char_compare,
    present_monomial_algebra,
)
from veronese.polycore import (
    GF, ParseError, PolyRing, Polynomial, QQ, parse_polynomial_list,
)
from veronese.toric import ci_sequence, veronese_map

_SEEDS = (3, 5, 7919)


def _both_ways(monkeypatch, run):
    """``run()`` with the shared checks and with the per-field oracle, the
    caches cleared before each."""
    _clear_groebner_caches()
    shared = run()
    with monkeypatch.context() as patch:
        install_per_field(patch)
        _clear_groebner_caches()
        per_field = run()
    _clear_groebner_caches()
    return shared, per_field


def _library_bodies(specs) -> list[str]:
    session = perfbench_module("session")
    return [session.library_report(veronese, spec) for spec in specs]


def _library_specs(seed: int) -> list[dict]:
    workloads = perfbench_module("workloads")
    return [spec for generate in workloads.GENERATORS.values()
            for spec in generate(seed)]


# ---------------------------------------------------------------------------
# the per-characteristic oracle
# ---------------------------------------------------------------------------

def test_golden_cases_equal_the_per_field_checks(monkeypatch):
    shared, per_field = _both_ways(
        monkeypatch, lambda: [_replay(argv) for argv in CASES.values()])
    assert shared == per_field


@pytest.mark.parametrize("seed", _SEEDS)
def test_library_reports_equal_the_per_field_checks(monkeypatch, seed):
    specs = _library_specs(seed)
    shared, per_field = _both_ways(monkeypatch,
                                   lambda: _library_bodies(specs))
    assert len(shared) == len(specs) > 50
    assert shared == per_field


def test_gf2_reports_equal_the_per_field_checks(monkeypatch):
    """Over GF(2), where -1 = 1 and a pure difference is a sum."""
    specs = [dict(spec, primes=[2]) for spec in _library_specs(3)]

    def run():
        reports = [cd_certificate(k, n, (2,))
                   for k, n in ((1, 2), (2, 2), (2, 3), (3, 2))]
        for subset in ((0, 3), (0,), (1, 2), (3, 0, 3)):
            reports.append(present_monomial_algebra(
                QUARTIC_CURVE_TARGETS, primes=(2,), radical_subset=subset))
        reports.append(present_monomial_algebra(
            ((4, 0), (3, 1), (0, 4)), primes=(2,), radical_subset=(1,)))
        reports.append(char_compare(veronese_map(3, 2).targets, primes=(2,)))
        return ([pipeline.render_json(r.to_report()) for r in reports]
                + _library_bodies(specs))

    shared, per_field = _both_ways(monkeypatch, run)
    assert shared == per_field
    assert sum('"verdict": false' in body for body in shared) > 2


def test_given_candidates_are_checked_in_each_field(monkeypatch):
    """A given candidate whose coefficients vanish mod 2 is the zero
    polynomial over GF(2): that field's check fails, as it did when every
    field was checked on its own, and the other fields' do not."""
    argv = ["present", "--targets", "2,0;1,1;0,2", "--primes", "2,3",
            "--ci", "t1:2*t2^2-2*t1*t3"]
    shared, per_field = _both_ways(monkeypatch, lambda: _replay(argv))
    assert shared == per_field
    got, err = shared
    assert err == "" and got["exit_code"] == 1
    checks = {c["name"]: c for c in json.loads(got["stdout"])["checks"]}
    assert checks["localized_ci_char_2_t1"]["details"]["candidates"] == ["0"]
    assert checks["localized_ci_char_2_t1"]["verdict"] is False
    assert checks["localized_ci_char_3_t1"]["details"]["candidates"] == [
        "2*t2^2 + t1*t3"]
    assert checks["localized_ci_char_0_t1"]["verdict"] is True
    assert checks["localized_ci_char_3_t1"]["verdict"] is True


def _ci_fields(monkeypatch) -> list:
    """The field of each ``ci_check`` that ``pipeline`` runs, in order."""
    fields = []
    ci_check = pipeline.ci_check

    def record(ideal, *args):
        fields.append(ideal.ring.domain)
        return ci_check(ideal, *args)

    monkeypatch.setattr(pipeline, "ci_check", record)
    return fields


def test_unit_binomial_charts_are_checked_once(monkeypatch, groebner_caches):
    """A chart whose candidates are all +-m or +-(m1 - m2) is checked over
    QQ only, whatever primes the report names, and its candidates are
    written in each field; the derived charts of a Veronese certificate
    are such charts.  A chart with any other coefficient is checked once
    in each field."""
    fields = _ci_fields(monkeypatch)
    report = cd_certificate(2, 3, (2, 3, 5)).to_report()
    assert fields == [QQ, QQ]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["localized_ci_char_0_t1"]["details"]["candidates"] == [
        "-t2^2 + t1*t3", "-t2^3 + t1^2*t4"]
    assert checks["localized_ci_char_2_t1"]["details"]["candidates"] == [
        "t2^2 + t1*t3", "t2^3 + t1^2*t4"]
    assert checks["localized_ci_char_5_t1"]["details"]["candidates"] == [
        "4*t2^2 + t1*t3", "4*t2^3 + t1^2*t4"]

    fields.clear()
    report = present_monomial_algebra(
        QUARTIC_CURVE_TARGETS, primes=(2, 3, 5), ci_candidates={
            0: ["t2^3-t1^2*t3", "-t2*t3+t1*t4"],
            1: ["-t1", "t2*t3-t1*t4"],
            2: ["t2^3-t1^2*t3", "3*t2*t3-3*t1*t4"],
            3: ["t3^3-t2*t4^2", "2*t4"]})
    assert fields == [QQ] * 4 + [GF(2)] * 2 + [GF(3)] * 2 + [GF(5)] * 2
    checks = {c.name: c for c in report.checks}
    assert checks["localized_ci_char_3_t3"].details["candidates"] == [
        "t2^3 + 2*t1^2*t3", "0"]
    assert checks["localized_ci_char_2_t4"].details["candidates"] == [
        "t3^3 + t2*t4^2", "0"]


@pytest.mark.parametrize("ci", [
    ["t1:t2^3-t1^2*t3,t2*t3-t1*t4", "t4:t3^3-t2*t4^2,-t2*t3+t1*t4"],
    ["t1:-t2^3+t1^2*t3,-t1", "t3:t2*t3-t1*t4,t3^3-t2*t4^2"],
    ["t1:2*t2^3-2*t1^2*t3,t2*t3-t1*t4", "t4:t3^3-t2*t4^2,3*t2*t3-3*t1*t4"],
    ["t2:5*t2*t3-5*t1*t4,t2^3-t1^2*t3", "t4:t3^3-t2*t4^2,t2*t3+t1*t4"],
    ["t1:t2^3-t1^2*t3,t2*t3-t1*t4", "t4:2*t3^3-2*t2*t4^2,t2*t3-t1*t4"],
])
def test_given_charts_equal_the_per_field_checks(monkeypatch, ci):
    """Given charts of both shapes, those whose verdict is shared and those
    checked in each field, give the oracle's bytes at p = 2, 3 and 5."""
    argv = ["present", "--targets", "4,0;3,1;1,3;0,4", "--primes", "2,3,5",
            "--radical-subset", "t1,t4"]
    for chart in ci:
        argv += ["--ci", chart]
    shared, per_field = _both_ways(monkeypatch, lambda: _replay(argv))
    assert shared == per_field
    assert shared[1] == "" and shared[0]["exit_code"] in (0, 1)


def test_a_specialised_ideal_must_be_pure_differences(monkeypatch, capsys):
    """Only a reduced basis of monomials and monic pure differences reads
    over every field; any other element is an engine fault (exit 4)."""
    ring = PolyRing(("t1", "t2", "t3"), QQ)
    for text in ("t2^2 - 2*t1*t3", "t2^2 + t1*t3", "t2^2 - t1*t3 + t1^2"):
        with pytest.raises(RuntimeError, match="pure difference"):
            toric._specialise(Ideal(ring, (ring.parse(text),)), GF(3))
    conic = Ideal(ring, (ring.parse("t2^2 - t1*t3"), ring.parse("t1^3")))
    over_gf2 = toric._specialise(conic, GF(2))
    assert [str(g) for g in over_gf2.generators] == ["t2^2 + t1*t3", "t1^3"]
    assert toric._specialise(conic, QQ) is conic

    presentation = toric._presentation
    doubled = Ideal(ring, (Polynomial(ring, tuple(
        (m, 2 * c) for m, c in ring.parse("t2^2 - t1*t3").terms)),))
    rebind(monkeypatch, presentation,
           lambda mmap: (doubled, *presentation(mmap)[1:]))
    code = main(["cd-certificate", "-k", "2", "-n", "2", "--primes", "2"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("internal error: RuntimeError: ")


def test_the_cover_is_computed_once(monkeypatch, groebner_caches):
    """One radical cover per report, over QQ, whatever primes it names; each
    characteristic's record has its own details, equal to the others'."""
    fields = []
    radical_cover = pipeline._radical_cover

    def record(ideal, subset):
        fields.append(ideal.ring.domain)
        return radical_cover(ideal, subset)

    monkeypatch.setattr(pipeline, "_radical_cover", record)
    report = present_monomial_algebra(((4, 0), (3, 1), (0, 4)),
                                      primes=(2, 3), radical_subset=(1, 1))
    assert fields == [QQ]
    covers = [c for c in report.checks if c.name.startswith("radical_cover")]
    assert [c.name for c in covers] == [
        "radical_cover_char_0", "radical_cover_char_2", "radical_cover_char_3"]
    assert not any(c.verdict for c in covers)
    assert covers[0].details["subset"] == ["t2"]
    for a, b in zip(covers, covers[1:]):
        assert a.details == b.details
        assert a.details["witnesses"] is not b.details["witnesses"]


# ---------------------------------------------------------------------------
# the reader: built over QQ and read into a field, as if built in the field
# ---------------------------------------------------------------------------

_FIELDS = (GF(2), GF(3), GF(5))


def _ci_binomials(mmap, j, ring):
    """The chart of x_j of a Veronese map, built in ``ring`` from the
    closed form: t_i^(c-1)*t_m minus the t_{s(l)} of the non-j letters l
    of t_m, for each target with x_j-exponent n - c, c >= 2."""
    n, k = mmap.veronese_degree(), mmap.k
    index = {a: i for i, a in enumerate(mmap.targets)}
    t = ring.variable
    inv = index[tuple(n * (l == j) for l in range(k))]
    binomials = []
    for m, a in enumerate(mmap.targets):
        if n - a[j] < 2:
            continue
        rhs = ring.one
        for l in range(k):
            if l != j:
                near = tuple((n - 1) * (i == j) + (i == l) for i in range(k))
                rhs = rhs * t(index[near]) ** a[l]
        binomials.append(t(inv) ** (n - a[j] - 1) * t(m) - rhs)
    return inv, tuple(binomials)


@pytest.mark.parametrize("k, n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_derived_charts_read_as_built_in_each_field(k, n):
    mmap = veronese_map(k, n)
    for j in range(k):
        inv, candidates = ci_sequence(mmap, j)
        assert (inv, candidates) == _ci_binomials(mmap, j, mmap.source_ring())
        for dom in _FIELDS:
            ring = mmap.source_ring(dom)
            assert (inv, polycore._read(candidates, ring)) == _ci_binomials(
                mmap, j, ring)


def _polynomial_texts():
    """(ring names, text) of every --ci and --ideal value of the goldens,
    and of 400 that the fuzz generators draw."""
    texts = []
    for argv in CASES.values():
        flags = list(zip(argv, argv[1:]))
        for flag, value in flags:
            if flag == "--ci":
                d = dict(flags)["--targets"].count(";") + 1
                names = tuple(f"t{i + 1}" for i in range(d))
                texts.append((names, value.partition(":")[2]))
            elif flag == "--ideal":
                texts.append((tuple(dict(flags)["--ring"].split(",")), value))
    assert len(texts) == 10
    rng = random.Random(20261020)
    for _ in range(200):
        names = fuzz._ring(rng)
        texts.append((names, fuzz._polys(rng, names, rng.random() < 0.5)))
        names = ("t1", "t2", "t3")
        texts.append((names, fuzz._polys(rng, names).replace(" ", "")))
    return texts


def test_parsed_texts_read_as_parsed_in_each_field():
    """Parsing over QQ and reading into GF(p) is parsing over GF(p)."""
    cases = [(names, text, dom) for names, text in _polynomial_texts()
             for dom in _FIELDS]
    cases += [(("x",), "2*x", GF(3)), (("t1", "t2"), "3*t1 - 3*t2", GF(3))]
    dropped = 0                 # read polynomials that lost a term
    for names, text, dom in cases:
        ring = PolyRing(names, dom)
        over_qq = parse_polynomial_list(text, PolyRing(names))
        read = polycore._read(over_qq, ring)
        assert read == tuple(parse_polynomial_list(text, ring)), (text, dom)
        dropped += sum(len(f.terms) < len(g.terms)
                       for f, g in zip(read, over_qq))
    assert read == (ring.zero,)
    assert dropped > 600


@pytest.mark.parametrize("call, error", [
    (lambda: char_compare(ring_names=("x", "y"), generators=["x*y", " y^ "]),
     ("exponent must be a nonnegative integer", 8)),
    (lambda: char_compare(ring_names=("x", "y"), generators=["x", " z - y"]),
     ("unknown variable 'z'", 3)),
    (lambda: char_compare(ring_names=("x", "y"), generators=["x", ""],
                          primes=(3,)),
     ("empty polynomial in list", 2)),
    (lambda: present_monomial_algebra(QUARTIC_CURVE_TARGETS, ci_candidates={
        0: ["t2*t3-t1*t4", "t2^3 - t1^2*t5"]}),
     ("unknown variable 't5'", 24)),
    (lambda: present_monomial_algebra(QUARTIC_CURVE_TARGETS, ci_candidates={
        3: ["t1", "t2 +* t3"], 0: ["t1"]}),
     ("expected a variable, integer or '('", 7)),
])
def test_parse_errors_name_their_column(call, error):
    """One parse over QQ gives the message and column that a parse in each
    field gave, counted in the comma-joined text."""
    with pytest.raises(ParseError) as caught:
        call()
    assert (caught.value.message, caught.value.position) == error


@pytest.mark.parametrize("kwargs, message", [
    ({"fpurity_witness": ((1, 1), (1, 1), (0, 1))},
     "the purity witness must be a pair of vectors"),
    ({"radical_subset": (-1,)}, r"expected nonnegative ints, got \(-1,\)"),
    ({"primes": (4,)}, "PrimeField needs a prime, got 4"),
])
def test_bad_candidates_are_parsed_after_the_other_inputs(kwargs, message):
    """A bad witness, subset or prime is refused before the candidates are
    parsed, as when each field parsed them in its own checks."""
    with pytest.raises(ValueError, match=message) as caught:
        present_monomial_algebra(QUARTIC_CURVE_TARGETS,
                                 ci_candidates={0: ["t1)"]}, **kwargs)
    assert not isinstance(caught.value, ParseError)


def test_parsed_candidates_are_taken_as_they_are():
    """Candidates given as polynomials of the source ring over QQ give the
    report of their text; polynomials of another ring, and a chart that
    mixes polynomials and strings, are refused with a ``ValueError`` that
    names the chart."""
    texts = {0: ["t2^3 - t1^2*t3", "t2*t3 - t1*t4"]}
    ring = PolyRing(("t1", "t2", "t3", "t4"))
    parsed = {0: [ring.parse(t) for t in texts[0]]}
    reports = [present_monomial_algebra(QUARTIC_CURVE_TARGETS, primes=(2, 3),
                                        ci_candidates=charts).to_report()
               for charts in (texts, parsed)]
    assert reports[0] == reports[1]
    other = PolyRing(("t1", "t2", "t3", "t4"), GF(2))
    with pytest.raises(ValueError, match="chart 0 must be polynomials of"):
        present_monomial_algebra(QUARTIC_CURVE_TARGETS, ci_candidates={
            0: [other.parse(t) for t in texts[0]]})
    for mixed in ([parsed[0][0], texts[0][1]], [texts[0][0], parsed[0][1]]):
        with pytest.raises(ValueError,
                           match="candidates of chart 0 mix polynomials"):
            present_monomial_algebra(QUARTIC_CURVE_TARGETS,
                                     ci_candidates={0: mixed})
