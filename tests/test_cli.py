"""Command-line interface: every subcommand end to end through main(), the
exit-code contract (0 verdict-true, 1 verdict-false, 2 bad input, 3 resource
cap, 4 internal error), file output, and the timing flag."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from veronese import cli
from veronese.cli import main
from veronese.polycore import GF, _decimal

_SRC = Path(__file__).resolve().parent.parent / "src"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# report-producing subcommands
# ---------------------------------------------------------------------------

def test_veronese_ideal_subcommand(capsys):
    code, rep = _report(capsys, "veronese-ideal", "-k", "2", "-n", "3")
    assert code == 0
    assert rep["kind"] == "veronese-ideal"
    assert rep["verdict"] is True
    names = [c["name"] for c in rep["checks"]]
    assert "toric_routes_agree" in names
    assert "height_matches" in names
    gens = rep["checks"][0]["details"]["minimal_generators"]
    assert "t2^2 - t1*t3" in gens


def test_present_subcommand_full_flags(capsys):
    code, rep = _report(
        capsys, "present",
        "--targets", "4,0;3,1;1,3;0,4",
        "--primes", "2,3",
        "--radical-subset", "t1,t4",
        "--ci", "t1:t2^3-t1^2*t3,t2*t3-t1*t4",
        "--ci", "t4:t3^3-t2*t4^2,t2*t3-t1*t4",
        "--fpurity-witness", "6,2;4,0")
    assert code == 0
    assert rep["kind"] == "presentation"
    assert rep["params"]["height"] == 2
    assert rep["params"]["cohomological_dimension"] == 2
    assert rep["verdict"] is True


def test_present_parses_each_ci_value_once(capsys, monkeypatch):
    """The command line parses each ``--ci`` value, and the library takes
    the polynomials as they are: the report is the one the library gives
    for the same candidates as strings."""
    from veronese import pipeline
    texts = []
    for module in (cli, pipeline):
        def counted(text, ring, _parse=module.parse_polynomial_list):
            texts.append(text)
            return _parse(text, ring)
        monkeypatch.setattr(module, "parse_polynomial_list", counted)
    charts = {0: "t2^3-t1^2*t3,t2*t3-t1*t4", 3: "t3^3-t2*t4^2,t2*t3-t1*t4"}
    code, out, err = _run(capsys, "present", "--targets", "4,0;3,1;1,3;0,4",
                          "--primes", "2", "--ci", f"t1:{charts[0]}",
                          "--ci", f"t4:{charts[3]}")
    assert code == 0 and err == ""
    assert texts == [charts[0], charts[3]]
    report = pipeline.present_monomial_algebra(
        ((4, 0), (3, 1), (1, 3), (0, 4)), primes=(2,),
        ci_candidates={i: text.split(",") for i, text in charts.items()})
    assert out == pipeline.render_json(report.to_report())


def test_height_subcommand(capsys):
    code, rep = _report(
        capsys, "height",
        "--ring", "u,v,w,x,y,z",
        "--ideal", "v*z-w*y, w*x-u*z, u*y-v*x")
    assert code == 0
    assert rep["kind"] == "height"
    assert rep["checks"][0]["name"] == "height_computed"
    assert rep["checks"][0]["details"] == {"height": 2, "dimension": 4}


def test_ci_check_subcommand(capsys):
    code, rep = _report(
        capsys, "ci-check",
        "--ring", "t1,t2,t3,t4",
        "--ideal", "t2^2-t1*t3, t3^2-t2*t4, t2*t3-t1*t4",
        "--invert", "t1",
        "--candidates", "t2^2-t1*t3, t2^3-t1^2*t4")
    assert code == 0
    assert rep["verdict"] is True


def test_radical_cover_subcommand(capsys):
    code, rep = _report(
        capsys, "radical-cover",
        "--ring", "t1,t2,t3,t4",
        "--ideal", "t2*t3-t1*t4, t2^3-t1^2*t3, t3^3-t2*t4^2, t1*t3^2-t2^2*t4",
        "--subset", "t1,t4")
    assert code == 0
    assert rep["verdict"] is True
    witnesses = rep["checks"][0]["details"]["witnesses"]
    exps = {w["variable"]: w["exponent"] for w in witnesses}
    assert exps == {"t1": 1, "t2": 3, "t3": 3, "t4": 1}


def test_radical_cover_reports_each_subset_variable_once(capsys):
    code, rep = _report(capsys, "radical-cover", "--ring", "x,y",
                        "--ideal", "x*y", "--subset", "x,y,x")
    assert code == 0
    assert rep["checks"][0]["details"]["subset"] == ["x", "y"]


@pytest.mark.parametrize("ideal", ["x^2, 3", "x*y - 1"])
def test_radical_cover_with_one_in_the_sum(capsys, ideal):
    """Homogeneous and non-homogeneous input whose sum with the subset
    contains 1: every variable is a member with exponent 1."""
    code, rep = _report(capsys, "radical-cover", "--ring", "x,y,z",
                        "--ideal", ideal, "--subset", "x")
    assert code == 0
    assert rep["checks"][0]["details"]["witnesses"] == [
        {"variable": v, "member": True, "exponent": 1} for v in "xyz"]


def test_radical_cover_failing_subset_exits_one(capsys):
    code, rep = _report(
        capsys, "radical-cover",
        "--ring", "t1,t2,t3,t4",
        "--ideal", "t2*t3-t1*t4, t2^3-t1^2*t3, t3^3-t2*t4^2, t1*t3^2-t2^2*t4",
        "--subset", "t1")
    assert code == 1
    assert rep["verdict"] is False


def test_fedder_subcommand_pure_and_impure(capsys):
    code, rep = _report(
        capsys, "fedder",
        "--ring", "x,y", "--ideal", "x*y", "--p", "2")
    assert code == 0
    assert rep["checks"][0]["name"] == "f_pure_p2"
    assert rep["checks"][0]["details"]["certificate"] == "x*y"

    code2, rep2 = _report(
        capsys, "fedder",
        "--ring", "t1,t2,t3,t4",
        "--ideal", "t2*t3-t1*t4, t2^3-t1^2*t3, t3^3-t2*t4^2, t1*t3^2-t2^2*t4",
        "--p", "3")
    assert code2 == 1
    assert rep2["verdict"] is False
    assert rep2["checks"][0]["details"]["certificate"] is None


def test_semigroup_subcommand(capsys):
    code, rep = _report(
        capsys, "semigroup",
        "--generators", "4,0;3,1;1,3;0,4", "--target", "4,4")
    assert code == 0
    assert rep["checks"][0]["details"]["witness"] == [[4, 0], [0, 4]]

    code2, rep2 = _report(
        capsys, "semigroup",
        "--generators", "4,0;3,1;1,3;0,4", "--target", "2,2")
    assert code2 == 1
    assert rep2["verdict"] is False


def test_semigroup_refuses_a_repeated_generator(capsys):
    """The generators are a monomial map's targets, refused as
    ``present --targets`` refuses them."""
    code, out, err = _run(capsys, "semigroup", "--generators", "1,0;1,0",
                          "--target", "2,0")
    assert code == 2 and out == ""
    assert err == "error: repeated target\n"


def test_semigroup_deep_searches_do_not_crash(capsys):
    # a 5,000-step witness and a 1,500-deep failing search: both beyond
    # the interpreter's default recursion limit
    code, out, err = _run(capsys, "semigroup", "--generators", "1",
                          "--target", "5000")
    assert code == 0
    assert "Traceback" not in err
    witness = json.loads(out)["checks"][0]["details"]["witness"]
    assert witness == [[1]] * 5000

    code, out, err = _run(capsys, "semigroup", "--generators", "2",
                          "--target", "3001")
    assert code == 1
    assert "Traceback" not in err
    assert json.loads(out)["verdict"] is False


def test_semigroup_search_past_the_frame_cap_exits_three(capsys):
    code, out, err = _run(capsys, "semigroup", "--generators",
                          "2,0,0;0,2,0;1,1,0", "--target", "900,900,1")
    assert code == 3 and out == ""
    assert err == "error: semigroup search past the cap of 65536 frames\n"


_MERSENNE_61 = str((1 << 61) - 1)


@pytest.mark.parametrize("argv, exit_code", [
    (("height", "--ring", "x,y", "--ideal", "x*y", "--char", _MERSENNE_61),
     0),
    (("char-compare", "--targets", "2,0;1,1;0,2", "--primes", _MERSENNE_61),
     0),
    # the fiber search's halves hold p^2 residues
    (("cd-certificate", "-k", "2", "-n", "2", "--primes", _MERSENNE_61), 3),
])
def test_a_large_prime_ends_in_a_report_or_a_cap_at_once(capsys, argv,
                                                          exit_code):
    """Primality is a few modular powers, not a trial division up to the
    square root of p."""
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == exit_code, err


@pytest.mark.parametrize("argv", [
    ("present", "--targets", "2,0;1,1;0,2", "--primes", "65537"),
    ("fedder", "--ring", "x,y", "--ideal", "x*y", "--p", "65537"),
])
def test_the_fedder_colon_past_its_prime_cap_exits_three(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == ("error: the Fedder colon at p = 65537 exceeds the cap of "
                   "p = 65536\n")


def test_cd_certificate_subcommand(capsys):
    code, rep = _report(
        capsys, "cd-certificate", "-k", "2", "-n", "2", "--primes", "2")
    assert code == 0
    assert rep["kind"] == "cd_certificate"
    assert rep["params"]["cohomological_dimension"] == 1


def test_char_compare_subcommand_both_modes(capsys):
    code, rep = _report(
        capsys, "char-compare", "--targets", "2,0;1,1;0,2", "--primes", "2,3")
    assert code == 0
    assert rep["kind"] == "char_compare"

    code2, rep2 = _report(
        capsys, "char-compare",
        "--ring", "u,v,w,x,y,z",
        "--ideal", "v*z-w*y, w*x-u*z, u*y-v*x",
        "--primes", "2")
    assert code2 == 0
    assert rep2["verdict"] is True


# ---------------------------------------------------------------------------
# the exit-code contract
# ---------------------------------------------------------------------------

def test_exit_two_on_parse_error(capsys):
    code, out, err = _run(capsys, "height", "--ring", "x,y",
                          "--ideal", "x +")
    assert code == 2
    assert out == ""
    assert "error" in err.lower() or "expected" in err.lower()


@pytest.mark.parametrize("text, column", [
    ("x,y^", 5), (" x ,  y*z +", 12), ("x, ,y", 3), ("x*y, w", 6)])
def test_char_compare_reports_the_column_within_the_ideal(capsys, text,
                                                          column):
    """A parse error in ``--ideal`` names the same column under
    ``char-compare`` as under ``height``."""
    ideal = ("--ring", "x,y,z", "--ideal", text)
    _, _, height_err = _run(capsys, "height", *ideal)
    code, out, err = _run(capsys, "char-compare", *ideal, "--primes", "2")
    assert code == 2 and out == ""
    assert err == height_err
    assert err.endswith(f" (column {column})\n")


@pytest.mark.parametrize("ci, column", [
    ("t1:t2^3-t1^2*t3,t2*t3-t1^", 26), ("t1: t2 , t2*", 13),
    ("t4:t2,,t3", 7), (" t1 :t2, t5", 10)])
def test_present_reports_the_column_within_the_ci_value(capsys, ci, column):
    """A parse error in a ``--ci`` candidate names its column within that
    ``--ci`` value, variable prefix included, also when another ``--ci``
    parses."""
    code, out, err = _run(capsys, "present", "--targets", "4,0;3,1;1,3;0,4",
                          "--ci", "t2:t3", "--ci", ci)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert err.endswith(f" (column {column})\n")


@pytest.mark.parametrize("text", ["é", "x²", "x + ٣"])
def test_exit_two_on_non_ascii_polynomial_text(capsys, text):
    code, out, err = _run(capsys, "height", "--ring", "x,y", "--ideal", text)
    assert code == 2 and out == ""
    assert err.startswith("error: unexpected character") and err.count("\n") == 1


def test_exit_two_on_unknown_variable(capsys):
    code, out, err = _run(capsys, "radical-cover", "--ring", "x,y",
                          "--ideal", "x*y", "--subset", "z")
    assert code == 2
    assert "unknown variable" in err


def test_exit_two_on_missing_file(capsys):
    code, out, err = _run(capsys, "height", "--ring", "x,y",
                          "--ideal-file", "/nonexistent/path.txt")
    assert code == 2


def test_exit_two_on_bad_vector(capsys):
    code, out, err = _run(capsys, "semigroup", "--generators", "4,0;3,a",
                          "--target", "1,1")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["semigroup", "--generators", "\u0663,0;1,1", "--target", "1_0,0"],
     "bad integer vector '\u0663,0'"),
    (["semigroup", "--generators", "3,0;1,1", "--target", "1_0,0"],
     "bad integer vector '1_0,0'"),
    (["cd-certificate", "-k", "2", "-n", "2", "--primes", "2, +3"],
     "bad integer vector '2, +3'"),
    (["veronese-ideal", "-k", "2", "-n", "2", "--char", "\u0663"],
     "bad characteristic '\u0663'"),
    (["veronese-ideal", "-k", "2", "-n", "2", "--char", " 3"],
     "bad characteristic ' 3'"),
])
def test_exit_two_on_integers_beyond_ascii_digits(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, line", [
    (["veronese-ideal", "-k", "\u0662", "-n", "\u0662"],
     "argument -k: invalid int value: '\u0662'"),
    (["cd-certificate", "-k", "2", "-n", "2_0"],
     "argument -n: invalid int value: '2_0'"),
    (["fedder", "--ring", "x", "--ideal", "x", "--p", "\u0663"],
     "argument --p: invalid int value: '\u0663'"),
    (["fedder", "--ring", "x", "--ideal", "x", "--p", "two"],
     "argument --p: invalid int value: 'two'"),
])
def test_integer_flags_take_ascii_digits_only(capsys, argv, line):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"veronese {argv[0]}: error: {line}\n")


# full-width and superscript digits, a non-ASCII letter, uppercase, an
# underscore and a leading plus
_NOT_ASCII_INTEGERS = ["\uff12", "2\u00b2", "\u00e9", "1E3", "1_0", "+2"]


@pytest.mark.parametrize("text", _NOT_ASCII_INTEGERS + ["2\n"])
def test_integer_flags_refuse_what_ascii_digits_do_not_spell(capsys, text):
    with pytest.raises(SystemExit) as info:
        main(["veronese-ideal", "-k", text, "-n", "2"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument -k: invalid int value: {text!r}\n")


@pytest.mark.parametrize("text", _NOT_ASCII_INTEGERS)
def test_vectors_refuse_what_ascii_digits_do_not_spell(capsys, text):
    # a vector's entries are stripped of whitespace, a newline included
    code, out, err = _run(capsys, "cd-certificate", "-k", "2", "-n", "2",
                          "--primes", f"2,{text}")
    assert (code, out, err) == (
        2, "", f"error: bad integer vector {'2,' + text!r}\n")


def test_int_flags_take_640_digits_and_refuse_641(capsys):
    """640 digits, which ``int`` converts under any ``-X
    int_max_str_digits``, parse on the plain path and, with a sign that
    makes the text longer, on the full parser; 641 are refused in one
    short line that does not echo them."""
    fedder = ["fedder", "--ring", "x", "--ideal", "x", "--p"]
    assert cli._parse_args([*fedder, "9" * 640]).p == int("9" * 640)
    assert cli._parse_args([*fedder, "-" + "9" * 640]).p == -int("9" * 640)
    with pytest.raises(SystemExit) as info:
        cli._parse_args([*fedder, "9" * 641])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "veronese fedder: error: argument --p: invalid int value: more than "
        "640 digits\n")


def test_a_signed_int_of_640_digits_is_a_plain_line():
    """The plain path counts digits as the full parser does, a minus sign
    not counted, so ``--p=-`` and 640 digits is a plain line; 641 digits
    are the full parser's."""
    fedder = ["fedder", "--ring", "x", "--ideal", "x"]
    for value in ("-" + "9" * 640, "9" * 640):
        assert cli._plain_args([*fedder, f"--p={value}"]).p == int(value)
    assert cli._plain_args([*fedder, "--p", "9" * 640]).p == int("9" * 640)
    assert cli._plain_args([*fedder, "--p=-" + "9" * 641]) is None


#: the flags whose text holds integers, "{}" where one goes, and the line
#: a long one is refused with: vectors, ``--char`` and polynomials
_VECTOR = "error: integer of more than 640 digits in a vector\n"
_LONG_INTEGER_LINES = [
    (["cd-certificate", "-k", "2", "-n", "2", "--primes", "2,{}"], _VECTOR),
    (["char-compare", "--targets", "{},0;0,1", "--primes", "2"], _VECTOR),
    (["char-compare", "--targets", "2,0;0,1", "--primes", "-{}"], _VECTOR),
    (["semigroup", "--generators", "1,0;0,1", "--target", "{},1"], _VECTOR),
    (["semigroup", "--generators", "1,0;0,{}", "--target", "1,1"], _VECTOR),
    (["present", "--targets", "2,0;1,1;0,2", "--fpurity-witness",
      "{},0;1,1"], _VECTOR),
    (["height", "--ring", "x", "--ideal", "x", "--char", "{}"],
     "error: characteristic of more than 640 digits\n"),
    (["veronese-ideal", "-k", "2", "-n", "2", "--char", "{}"],
     "error: characteristic of more than 640 digits\n"),
    (["height", "--ring", "x,y", "--ideal", "x, {}*y"],
     "error: integer of more than 640 digits (column 4)\n"),
    (["height", "--ring", "x,y", "--ideal", "x^{}"],
     "error: integer of more than 640 digits (column 3)\n"),
    (["present", "--targets", "2,0;1,1;0,2", "--ci", "t1:t2^{}"],
     "error: integer of more than 640 digits (column 7)\n"),
]


@pytest.mark.parametrize("argv, line", _LONG_INTEGER_LINES)
def test_every_integer_read_from_text_takes_at_most_640_digits(capsys, argv,
                                                               line):
    """Past 640 digits, the most ``int`` converts under any ``-X
    int_max_str_digits``, an integer in a vector, ``--char`` or a
    polynomial is refused with exit 2 before ``int`` sees it, in a line
    that echoes none of its digits."""
    assert _run(capsys, *[a.format("7" * 641) for a in argv]) == (2, "", line)


def test_vectors_and_the_characteristic_read_640_digits():
    assert cli._parse_vector("1," + "7" * 640) == (1, int("7" * 640))
    assert cli._parse_char("0" * 639 + "5") == (5, GF(5))


def test_a_long_coefficient_renders_under_any_digit_limit(capsys):
    """A report that writes an 800-digit coefficient, (7...7 * x + y)^2
    with a 400-digit literal, exits 0 with the same bytes under ``-X
    int_max_str_digits=640``, the least setting CPython accepts, as under
    the default, in fresh processes and in this one, whatever its own
    setting is."""
    s = "7" * 400
    argv = ["ci-check", "--ring", "x,y", "--ideal", f"({s}*x + y)^2",
            "--invert", "x", "--candidates", f"({s}*x+y)^2"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    outs = []
    for setting in ([], ["-X", "int_max_str_digits=640"]):
        done = subprocess.run(
            [sys.executable, *setting, "-m", "veronese", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        outs.append(done.stdout)
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert outs == [out, out]
    assert f"{_decimal(int(s) ** 2)}*x^2" in out


def test_integers_are_ascii_digits_after_an_optional_minus():
    assert [cli._is_integer(t) for t in ("0", "007", "-12", "-", "", "--1")] \
        == [True, True, True, False, False, False]


def test_exit_three_on_the_fedder_fiber_cap(capsys):
    code, out, err = _run(capsys, "cd-certificate", "-k", "3", "-n", "3",
                          "--primes", "7")
    assert (code, out) == (3, "")
    assert err == ("error: 823543 candidate Fedder unknowns at p = 7 exceed "
                   "the cap of 100000\n")


def test_exit_two_on_deeply_nested_parentheses(tmp_path, capsys):
    src = tmp_path / "deep.txt"
    src.write_text("(" * 300 + "x" + ")" * 300)
    code, out, err = _run(capsys, "height", "--ring", "x,y",
                          "--ideal-file", str(src))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err and "internal error" not in err


@pytest.mark.parametrize("argv", [
    ["--ring", "x,y"],                          # an ideal is missing
    ["--ideal", "x"],                           # the ring is missing
    ["--targets", "1,0", "--ring", "x"],
    ["--targets", "1,0", "--ideal", "x"],
])
def test_char_compare_refuses_mixed_or_partial_modes(capsys, argv):
    code, out, err = _run(capsys, "char-compare", *argv, "--primes", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: give either targets")


def test_library_rules_reach_the_cli_as_exit_codes(capsys):
    code, _, err = _run(capsys, "veronese-ideal", "-k", "0", "-n", "2")
    assert code == 2 and "at least 1" in err
    code, _, err = _run(capsys, "veronese-ideal", "-k", "2", "-n", "12")
    assert code == 3 and "cap" in err
    code, _, err = _run(capsys, "present", "--targets", "2,0;1,1;0,2",
                        "--fpurity-witness", "2,0;1,1;0,2")
    assert code == 2 and "pair" in err


def test_exit_three_on_resource_cap(capsys):
    code, out, err = _run(capsys, "cd-certificate", "-k", "2", "-n", "12")
    assert code == 3
    assert "cap" in err


def test_exit_three_on_radical_witness_past_two_to_the_twenty(capsys):
    # the least power of y in (x^e, y) is 1 for either e, so only the
    # witness for x meets the 2^20 bound of the power search
    code, out, _ = _run(capsys, "radical-cover", "--ring", "x,y",
                        "--ideal", "x^1048576", "--subset", "y")
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out, err = _run(capsys, "radical-cover", "--ring", "x,y",
                          "--ideal", "x^1048577", "--subset", "y")
    assert code == 3 and out == ""
    assert err == "error: radical witness exponent out of range\n"


def test_exit_three_on_a_parsed_product_past_the_cap(capsys):
    code, out, err = _run(capsys, "height", "--ring", "x,y",
                          "--ideal", "(x+y)^2400")
    assert code == 3 and out == ""
    assert err == ("error: a product of 66049 term pairs exceeds the "
                   "parser's cap of 65536\n")


def test_exit_three_on_height_past_the_arity_cap(capsys):
    ring = ",".join(f"x{i}" for i in range(1, 22))
    code, out, err = _run(capsys, "height", "--ring", ring, "--ideal", "x1")
    assert code == 3 and out == ""
    assert err == "error: arity 21 exceeds the cap 20\n"


def test_exit_four_on_a_localized_ci_bookkeeping_fault(capsys, monkeypatch):
    # the (2,3) Veronese targets out of lex order, passed off as the
    # Veronese map: the derived charts trip the bookkeeping check, which is
    # a fault of the program and not a false verdict
    monkeypatch.setattr("veronese.toric.MonomialMap.veronese_degree",
                        lambda self: 3)
    code, out, err = _run(capsys, "present", "--targets", "0,3;1,2;2,1;3,0",
                          "--primes", "2")
    assert code == 4 and out == ""
    assert err.startswith("internal error: RuntimeError: derived sequence")
    assert err.count("\n") == 1


def test_exit_four_on_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("engine bug")

    summary, add_flags, _ = cli._SUBCOMMANDS["height"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "height",
                        (summary, add_flags, broken))
    code, out, err = _run(capsys, "height", "--ring", "x",
                          "--ideal", "x")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: engine bug\n"


@pytest.mark.parametrize("argv, flag, value", [
    (["height", "--ring", "x,y"], "--ideal", "-x*y"),
    (["ci-check", "--ring", "t1,t2,t3", "--ideal", "t2^2-t1*t3",
      "--invert", "t1"], "--candidates", "-t2^2+t1*t3"),
])
def test_polynomial_value_may_start_with_minus(capsys, argv, flag, value):
    code, out, err = _run(capsys, *argv, flag, value)
    assert code == 0 and err == ""
    code2, out2, _ = _run(capsys, *argv, f"{flag}={value}")
    assert code2 == 0
    assert out == out2


def test_dangling_polynomial_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["height", "--ring", "x,y", "--ideal"])
    assert info.value.code == 2


def test_argparse_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["present"])                 # --targets is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info2:
        main(["no-such-command"])
    assert info2.value.code == 2


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, err = _run(capsys, "height", "--ring", "x,y",
                          "--ideal", "x*y", "--out", str(path))
    assert code == 0
    assert out == "" and err == ""
    rep = json.loads(path.read_text())
    assert rep["checks"][0]["details"]["height"] == 1


def test_exit_two_on_unwritable_out_file(tmp_path, capsys):
    code, out, err = _run(capsys, "height", "--ring", "x", "--ideal", "x",
                          "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_ideal_file_input(tmp_path, capsys):
    src = tmp_path / "gens.txt"
    src.write_text("x*y, x^2\n")
    code, rep = _report(capsys, "height", "--ring", "x,y",
                        "--ideal-file", str(src))
    assert code == 0
    assert rep["checks"][0]["details"]["height"] == 1


def test_timing_flag_appends_elapsed(capsys):
    code, rep = _report(capsys, "height", "--ring", "x", "--ideal", "x",
                        "--timing")
    assert code == 0
    assert isinstance(rep["elapsed_seconds"], float)
    assert list(rep)[-1] == "elapsed_seconds"


def test_reports_are_byte_stable(capsys):
    args = ["present", "--targets", "2,0;1,1;0,2", "--primes", "2"]
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2
    assert out1.endswith("\n")
