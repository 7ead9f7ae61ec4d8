"""Golden reports: every case replays one CLI invocation in-process through
``veronese.cli.main`` and compares its exit code and stdout, byte for byte,
with the file ``tests/golden/<case>.json``.

Any change to a report body, however small, fails here.  When a report is
meant to change, regenerate the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff of ``tests/golden/`` like any other code change.  With
``--check`` the script writes nothing: it replays every case, names each
one that differs from its file and exits 1 if any does, 0 otherwise.  Both
modes need only the standard library, so any interpreter can replay the
goldens, with or without pytest installed.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from veronese.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_QUARTIC_IDEAL = "t2*t3-t1*t4, t2^3-t1^2*t3, t3^3-t2*t4^2, t1*t3^2-t2^2*t4"

CASES: dict[str, list[str]] = {
    # the criterion-8 suite
    "c8_present_quartic": [
        "present", "--targets", "4,0;3,1;1,3;0,4", "--primes", "2,3,5",
        "--radical-subset", "t1,t4",
        "--ci", "t1:t2^3-t1^2*t3,t2*t3-t1*t4",
        "--ci", "t4:t3^3-t2*t4^2,t2*t3-t1*t4",
        "--fpurity-witness", "6,2;4,0"],
    "c8_veronese_ideal_k2_n3": ["veronese-ideal", "-k", "2", "-n", "3"],
    "c8_height_2x3_minors": [
        "height", "--ring", "u,v,w,x,y,z",
        "--ideal", "v*z-w*y, w*x-u*z, u*y-v*x"],
    "c8_ci_check_conic": [
        "ci-check", "--ring", "t1,t2,t3", "--ideal", "t2^2-t1*t3",
        "--invert", "t1", "--candidates", "t2^2-t1*t3"],
    "c8_radical_cover_conic": [
        "radical-cover", "--ring", "t1,t2,t3", "--ideal", "t2^2-t1*t3",
        "--subset", "t1,t3"],
    "c8_fedder_xy": ["fedder", "--ring", "x,y", "--ideal", "x*y", "--p", "2"],
    "c8_semigroup_quartic": [
        "semigroup", "--generators", "4,0;3,1;1,3;0,4", "--target", "4,4"],
    "c8_cd_certificate_k2_n2": [
        "cd-certificate", "-k", "2", "-n", "2", "--primes", "2"],
    "c8_char_compare_conic": [
        "char-compare", "--targets", "2,0;1,1;0,2", "--primes", "2,3"],
    # further report shapes
    "veronese_ideal_k2_n2_char2": [
        "veronese-ideal", "-k", "2", "-n", "2", "--char", "2"],
    "radical_cover_quartic_t1_fails": [
        "radical-cover", "--ring", "t1,t2,t3,t4", "--ideal", _QUARTIC_IDEAL,
        "--subset", "t1"],
    "fedder_fermat_cubic_p2_fails": [
        "fedder", "--ring", "x,y,z", "--ideal", "x^3+y^3+z^3", "--p", "2"],
    "cd_certificate_k2_n3": [
        "cd-certificate", "-k", "2", "-n", "3", "--primes", "2,3"],
    "char_compare_2x3_minors": [
        "char-compare", "--ring", "u,v,w,x,y,z",
        "--ideal", "v*z-w*y, w*x-u*z, u*y-v*x"],
    "present_conic_derived_charts": ["present", "--targets", "2,0;1,1;0,2"],
    "present_twisted_cubic_gap": ["present", "--targets", "3,0;2,1;0,3"],
    "present_three_variable": [
        "present", "--targets", "2,0,0;0,2,0;0,0,1;1,1,0"],
    # zero presentation ideals
    "zero_char_compare_targets": ["char-compare", "--targets", "1,0;0,1"],
    "zero_present_independent": ["present", "--targets", "2,1;1,3"],
    "zero_present_identity_p3": [
        "present", "--targets", "1,0;0,1", "--primes", "3"],
    "zero_char_compare_ideal": [
        "char-compare", "--ring", "x,y", "--ideal", "0*x"],
}


def _replay(argv: list[str]) -> tuple[dict, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}, \
        err.getvalue()


def _expected(case: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{case}.json").read_text("utf-8"))


def pytest_generate_tests(metafunc):
    """One ``test_golden_report`` per case, without importing pytest."""
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", sorted(CASES))


def test_golden_report(case):
    got, err = _replay(CASES[case])
    assert err == ""
    assert got == _expected(case)


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        got, err = _replay(argv)
        if err:
            raise SystemExit(f"{case}: unexpected stderr {err!r}")
        path = GOLDEN_DIR / f"{case}.json"
        path.write_text(json.dumps(got, indent=2) + "\n", "utf-8")
        print(f"{case}: exit {got['exit_code']}", file=sys.stderr)


def _check() -> int:
    """Replay every case against its file, writing nothing; 1 when a case
    differs or has no file, or a file has no case."""
    stems = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    bad = sorted(stems - set(CASES))
    for case, argv in sorted(CASES.items()):
        if case not in stems or _replay(argv) != (_expected(case), ""):
            bad.append(case)
    for name in bad:
        print(f"mismatch: {name}", file=sys.stderr)
    print(f"{len(CASES)} cases, {len(bad)} mismatches", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    if sys.argv[1:]:
        sys.exit("usage: test_golden_reports.py [--check]")
    _regenerate()
