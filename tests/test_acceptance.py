"""Acceptance suite.  Each test runs one criterion end to end at its stated
tolerance (everything here is exact arithmetic; the only tolerances are the
wall-clock budgets) and prints a single pass/fail line."""
from __future__ import annotations

import json
import subprocess
import sys
import time
from math import comb

from veronese.groebner import Ideal, ideal_equal
from veronese.invariants import (
    hilbert_piece, krull_dim, lc_top_piece, veronese_lc_piece,
)
from veronese.pipeline import cd_certificate, char_compare
from veronese.polycore import GF, PolyRing, QQ
from veronese.toric import (
    symmetric_minors_ideal, toric_ideal_lattice, veronese_map,
)

QUARTIC_ARGS = [
    "present",
    "--targets", "4,0;3,1;1,3;0,4",
    "--primes", "2,3,5",
    "--radical-subset", "t1,t4",
    "--ci", "t1:t2^3-t1^2*t3,t2*t3-t1*t4",
    "--ci", "t4:t3^3-t2*t4^2,t2*t3-t1*t4",
    "--fpurity-witness", "6,2;4,0",
]


def _cli(args):
    return subprocess.run([sys.executable, "-m", "veronese", *args],
                          capture_output=True, text=True)


def _checks(report):
    return {c["name"]: c for c in report["checks"]}


def _line(number, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    print(f"criterion {number}: PASS")


def test_criterion_1_quartic_curve_single_cli_run():
    def body():
        start = time.perf_counter()
        proc = _cli(QUARTIC_ARGS)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        checks = _checks(rep)

        # the computed presentation ideal equals the known four generators
        reported = checks["toric_routes_agree_char_0"]["details"][
            "minimal_generators"]
        R = PolyRing(("t1", "t2", "t3", "t4"), QQ)
        computed = Ideal(R, tuple(R.parse(g) for g in reported))
        expected = Ideal(R, tuple(R.parse(g) for g in (
            "t2*t3 - t1*t4", "t2^3 - t1^2*t3",
            "t3^3 - t2*t4^2", "t1*t3^2 - t2^2*t4")))
        assert ideal_equal(computed, expected)

        # height 2 in characteristic 0 and p = 2, 3, 5
        assert rep["params"]["height"] == 2
        for c in (0, 2, 3, 5):
            assert checks[f"height_matches_lattice_nullity_char_{c}"][
                "verdict"] is True

        # two-element localized regular sequences at both end variables
        for c in (0, 2, 3, 5):
            for var in ("t1", "t4"):
                ci = checks[f"localized_ci_char_{c}_{var}"]
                assert ci["verdict"] is True
                assert len(ci["details"]["candidates"]) == 2

        # the two end variables cut out the irrelevant ideal up to radical
        for c in (0, 2, 3, 5):
            cover = checks[f"radical_cover_char_{c}"]
            assert cover["verdict"] is True
            assert cover["details"]["subset"] == ["t1", "t4"]

        # never F-pure, certified by the semigroup witness pair:
        # the residual (2,2) is a hole while (2p,2p) is reachable
        for p in (2, 3, 5):
            w = checks[f"f_purity_consistent_p{p}"]
            assert w["verdict"] is True
            assert w["details"]["f_pure"] is False
            assert w["details"]["residual"] == [2, 2]
            assert w["details"]["base_containment"] is False
            assert w["details"]["pfold_containment"] is True
            assert w["details"]["implies_not_f_pure"] is True

        # degree-0 top local cohomology of the normalization vanishes
        lc = checks["normalization_lc_degree_zero_vanishes"]
        assert lc["verdict"] is True
        assert veronese_lc_piece(2, 4, 2, 0).dimension == 0

        assert rep["verdict"] is True
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _line(1, body)


def test_criterion_2_veronese_certificate_suite():
    def body():
        start = time.perf_counter()
        # The splitting test of (3,3) at p = 5 has 5^7 = 78,125 unknowns
        # and dominates: the whole criterion took 9.7-11.5 s under
        # -X dev -W error in two runs on a shared 2-core box
        # (CPython 3.11), inside the 60 s budget.
        primes = (2, 3, 5)
        for k, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
            rep = cd_certificate(k, n, primes=primes)
            d = rep.to_report()
            assert d["verdict"] is True, (k, n)
            h = comb(k + n - 1, n) - k
            assert d["params"]["height"] == h
            checks = _checks(d)
            chars = (0, *primes)
            for c in chars:
                assert checks[f"toric_routes_agree_char_{c}"]["verdict"]
                assert checks[f"height_char_{c}"]["verdict"]
            ci_names = [m for m in checks if m.startswith("localized_ci_")]
            assert len(ci_names) == k * len(chars)
            for name in ci_names:
                assert checks[name]["verdict"] is True
                assert len(checks[name]["details"]["candidates"]) == h
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _line(2, body)


def test_criterion_3_generic_2x3_minors_height():
    def body():
        texts = ("v*z - w*y", "w*x - u*z", "u*y - v*x")
        names = ("u", "v", "w", "x", "y", "z")
        for domain in (QQ, GF(2), GF(3), GF(5), GF(7)):
            R = PolyRing(names, domain)
            I = Ideal(R, tuple(R.parse(t) for t in texts))
            assert krull_dim(I).height == 2
    _line(3, body)


def test_criterion_4_symmetric_minors_correspondence():
    def body():
        for n in (2, 3, 4):
            minors = symmetric_minors_ideal(n)
            ver = toric_ideal_lattice(veronese_map(n, 2))
            assert minors.ring.names == ver.ring.names
            assert ideal_equal(minors, ver)
            expected_height = comb(n + 1, 2) - n
            assert krull_dim(minors).height == expected_height
    _line(4, body)


def test_criterion_5_graded_duality_130_cases():
    def body():
        cases = 0
        for k in range(1, 6):
            for j in range(-20, 6):
                assert lc_top_piece(k, j).dimension == \
                    hilbert_piece(k, -j - k), (k, j)
                cases += 1
        assert cases == 130
    _line(5, body)


def test_criterion_6_randomized_engine_suite():
    def body():
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/test_properties.py",
             "-q", "--no-header"],
            capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "6 passed" in proc.stdout
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _line(6, body)


def test_criterion_7_heights_constant_across_characteristics():
    def body():
        primes = (2, 3, 5, 7, 11)
        for k, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
            rep = char_compare(targets=veronese_map(k, n).targets,
                               primes=primes)
            assert rep.params["constant"] is True, (k, n)
            assert rep.to_report()["verdict"] is True
        for n in (2, 3, 4):
            minors = symmetric_minors_ideal(n)
            rep = char_compare(
                ring_names=minors.ring.names,
                generators=tuple(str(g) for g in minors.generators),
                primes=primes)
            assert rep.params["constant"] is True, n
            assert rep.to_report()["verdict"] is True
    _line(7, body)


def test_criterion_8_cli_suite_is_byte_deterministic():
    def body():
        suite = [
            QUARTIC_ARGS,
            ["veronese-ideal", "-k", "2", "-n", "3"],
            ["height", "--ring", "u,v,w,x,y,z",
             "--ideal", "v*z-w*y, w*x-u*z, u*y-v*x"],
            ["ci-check", "--ring", "t1,t2,t3",
             "--ideal", "t2^2-t1*t3", "--invert", "t1",
             "--candidates", "t2^2-t1*t3"],
            ["radical-cover", "--ring", "t1,t2,t3",
             "--ideal", "t2^2-t1*t3", "--subset", "t1,t3"],
            ["fedder", "--ring", "x,y", "--ideal", "x*y", "--p", "2"],
            ["semigroup", "--generators", "4,0;3,1;1,3;0,4",
             "--target", "4,4"],
            ["cd-certificate", "-k", "2", "-n", "2", "--primes", "2"],
            ["char-compare", "--targets", "2,0;1,1;0,2", "--primes", "2,3"],
        ]
        outputs = []
        for _ in range(2):
            body_bytes = []
            for args in suite:
                proc = _cli(args)
                assert proc.returncode == 0, (args, proc.stderr)
                json.loads(proc.stdout)          # well-formed JSON
                body_bytes.append(proc.stdout)
            outputs.append("".join(body_bytes))
        assert outputs[0] == outputs[1]
    _line(8, body)
