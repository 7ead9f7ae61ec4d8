"""Every check can fail.  One table names each family of checks that the
golden reports emit, with one of three entries: an input that makes a check
of the family false, with exit 1; a doctored stage that makes it false
(for checks that only a program fault can make false), where the report
must still come out with exit 1, not a crash; or, for the families that are
true by construction, the reason.  A check name that the goldens emit and
the table lacks fails here, so a new check comes with its entry."""
from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from conftest import rebind

from veronese import charp, pipeline, toric
from veronese.charp import FiberReport
from veronese.cli import main
from veronese.groebner import Ideal
from veronese.invariants import DimensionResult

_GOLDEN = Path(__file__).resolve().parent / "golden"

_QUARTIC = ["present", "--targets", "4,0;3,1;1,3;0,4", "--primes", "2,3,5"]
_QUARTIC_IDEAL = "t2*t3-t1*t4, t2^3-t1^2*t3, t3^3-t2*t4^2, t1*t3^2-t2^2*t4"
_PRESENT_CONIC = ["present", "--targets", "2,0;1,1;0,2", "--primes", "2,3"]
_CD_2_2 = ["cd-certificate", "-k", "2", "-n", "2", "--primes", "2"]
_VERONESE_2_2 = ["veronese-ideal", "-k", "2", "-n", "2"]


class Family(NamedTuple):
    """Checks whose names fully match ``pattern`` in reports of ``kind``
    (any kind when None), and how one of them is made false: by ``argvs``
    alone, by ``argvs`` after ``doctor(monkeypatch)``, or not at all, for
    the ``allowed`` reason."""
    pattern: str
    kind: Optional[str] = None
    argvs: tuple[list[str], ...] = ()
    doctor: Optional[Callable] = None
    allowed: Optional[str] = None

    def covers(self, kind: str, name: str) -> bool:
        return (self.kind in (None, kind)
                and re.fullmatch(self.pattern, name) is not None)


def _no_lattice_route(monkeypatch):
    """The lattice route returns the zero ideal."""
    rebind(monkeypatch, toric.toric_ideal_lattice,
           lambda mmap, dom: Ideal(mmap.source_ring(dom), ()))


def _height_off_by_one(monkeypatch):
    """``krull_dim`` reports one more than the height."""
    krull_dim = toric.krull_dim

    def doctored(ideal):
        dims = krull_dim(ideal)
        return DimensionResult(dims.dimension - 1, dims.height + 1)

    rebind(monkeypatch, krull_dim, doctored)


def _minors_short_of_one(monkeypatch):
    """The symmetric-minors ideal loses its last generator."""
    minors = toric.symmetric_minors_ideal

    def doctored(n):
        ideal = minors(n)
        return Ideal(ideal.ring, ideal.generators[:-1])

    rebind(monkeypatch, minors, doctored)


def _fiber_never_pure(monkeypatch):
    """The fiber route's system is solved, but its verdict is lost."""
    fiber = pipeline.fedder_fiber

    def doctored(mmap, p):
        rep = fiber(mmap, p)
        return FiberReport(rep.p, rep.fiber_size, rep.constraints, rep.rank,
                           None, False)

    rebind(monkeypatch, fiber, doctored)


def _no_semigroup_member(monkeypatch):
    """``semigroup_member`` finds no element in any semigroup."""
    rebind(monkeypatch, charp.semigroup_member, lambda *args: (False, None))


FAMILIES = {
    # inputs that make the check false
    "localized_ci": Family(
        r"localized_ci_char_\d+_t\d+",
        argvs=([*_QUARTIC, "--ci", "t1:t2*t3-t1*t4"],)),
    "radical_cover_per_char": Family(
        r"radical_cover_char_\d+",
        argvs=([*_QUARTIC, "--radical-subset", "t1"],)),
    "f_purity_consistent": Family(
        r"f_purity_consistent_p\d+",
        argvs=([*_QUARTIC, "--fpurity-witness", "2,2;4,0"],)),
    "localized_complete_intersection": Family(
        "localized_complete_intersection",
        argvs=(["ci-check", "--ring", "x,y,z", "--ideal", "x*z-y^2",
                "--invert", "x", "--candidates", "y"],)),
    "height_constant_across_characteristics": Family(
        "height_constant_across_characteristics", kind="char_compare",
        argvs=(["char-compare", "--ring", "x,y", "--ideal", "2*x",
                "--primes", "2,3"],)),
    "target_in_semigroup": Family(
        "target_in_semigroup",
        argvs=(["semigroup", "--generators", "4,0;3,1;1,3;0,4",
                "--target", "2,2"],)),
    "radical_cover": Family(
        "radical_cover",
        argvs=(["radical-cover", "--ring", "t1,t2,t3,t4",
                "--ideal", _QUARTIC_IDEAL, "--subset", "t1"],)),
    "fedder_f_pure": Family(
        r"f_pure_p\d+", kind="fedder",
        argvs=(["fedder", "--ring", "x,y,z", "--ideal", "x^3+y^3+z^3",
                "--p", "2"],)),
    # checks that only a program fault can make false
    "toric_routes_agree": Family(
        r"toric_routes_agree(_char_\d+)?", doctor=_no_lattice_route,
        argvs=(_VERONESE_2_2, _CD_2_2, _PRESENT_CONIC,
               ["char-compare", "--targets", "2,0;1,1;0,2"])),
    "height_char": Family(
        r"height_char_\d+", doctor=_height_off_by_one, argvs=(_CD_2_2,)),
    "height_matches": Family(
        "height_matches", doctor=_height_off_by_one,
        argvs=(_VERONESE_2_2,)),
    "height_matches_lattice_nullity": Family(
        r"height_matches_lattice_nullity_char_\d+",
        doctor=_height_off_by_one, argvs=(_PRESENT_CONIC,)),
    "symmetric_minors_match": Family(
        "symmetric_minors_match", doctor=_minors_short_of_one,
        argvs=(_CD_2_2,)),
    "cd_certificate_f_pure": Family(
        r"f_pure_p\d+", kind="cd_certificate", doctor=_fiber_never_pure,
        argvs=(_CD_2_2,)),
    "normalization_is_veronese": Family(
        "normalization_is_veronese", doctor=_no_semigroup_member,
        argvs=(_QUARTIC,)),
    # true by construction
    "f_purity_recorded": Family(
        r"f_purity_recorded_p\d+",
        allowed="a record of the colon route's verdict, built with a "
                "literal True; the verdict itself is in its details"),
    "height_computed": Family(
        "height_computed",
        allowed="the height subcommand reports a computed height and has "
                "nothing to compare it with; built with a literal True"),
    "lc_degree_zero_vanishes": Family(
        "lc_degree_zero_vanishes",
        allowed="reads the degree-0 piece of the top local cohomology of "
                "the Veronese subring, which is 0 for every k, n >= 1"),
    "normalization_lc_degree_zero_vanishes": Family(
        "normalization_lc_degree_zero_vanishes",
        allowed="the same degree-0 piece for the normalization's Veronese "
                "ring, 0 for every k, n >= 1"),
    "cd_certificate_height_constant": Family(
        "height_constant_across_characteristics", kind="cd_certificate",
        allowed="built from the one height of the presentation over QQ, "
                "recorded for every field, so its heights are all equal"),
    "presentation_height_constant": Family(
        "height_constant_across_characteristics", kind="presentation",
        allowed="built from the one height of the presentation over QQ, "
                "recorded for every field, so its heights are all equal"),
}


def _golden_checks():
    """(report kind, check name) of every check the golden reports emit."""
    found = set()
    for path in sorted(_GOLDEN.glob("*.json")):
        stdout = json.loads(path.read_text(encoding="utf-8"))["stdout"]
        if stdout:
            report = json.loads(stdout)
            found.update((report["kind"], c["name"])
                         for c in report["checks"])
    return found


def test_every_check_the_goldens_emit_has_one_entry():
    emitted = _golden_checks()
    covering = {}
    for kind, name in sorted(emitted):
        families = [f for f, e in FAMILIES.items() if e.covers(kind, name)]
        assert len(families) == 1, (kind, name, families)
        covering.setdefault(families[0], []).append(name)
    # and the table names no family that the goldens do not emit
    assert sorted(covering) == sorted(FAMILIES)
    assert len(FAMILIES) == 21


def test_every_entry_is_of_one_kind():
    for family in FAMILIES.values():
        assert bool(family.argvs) != bool(family.allowed)
        assert family.doctor is None or family.argvs


def _falsified(capsys, family, argv):
    """Runs ``argv``: the exit code, and whether some check of the family
    is in the report and all of them hold."""
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out)
    verdicts = [c["verdict"] for c in report["checks"]
                if family.covers(report["kind"], c["name"])]
    assert verdicts, f"{argv} emits no check of {family.pattern}"
    return code, all(verdicts)


@pytest.mark.parametrize("name", [n for n, f in FAMILIES.items()
                                  if f.argvs and f.doctor is None])
def test_an_input_makes_the_check_false(capsys, name):
    family = FAMILIES[name]
    for argv in family.argvs:
        assert _falsified(capsys, family, argv) == (1, False)


@pytest.mark.parametrize("name", [n for n, f in FAMILIES.items()
                                  if f.doctor is not None])
def test_a_doctored_stage_makes_the_check_false(
        capsys, monkeypatch, groebner_caches, name):
    """Each input holds the check as it stands, and fails it, with exit 1,
    once the stage is doctored; the caches are cleared in between, so that
    no presentation made before the doctoring is reused."""
    family = FAMILIES[name]
    for argv in family.argvs:
        assert _falsified(capsys, family, argv) == (0, True)
    groebner_caches()
    family.doctor(monkeypatch)
    for argv in family.argvs:
        assert _falsified(capsys, family, argv) == (1, False)
