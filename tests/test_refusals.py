"""Refusals and fault paths that no other test names: one table of bad
library calls, each with the exception it raises and its message; the
command line's refusals of bad ``--ci``, vector, target and list text,
each exit 2; and three internal checks, each doctored until it fires,
which must end in exit 4 ("internal error"), never in a verdict."""
from __future__ import annotations

import pytest

from veronese import charp, groebner, toric
from veronese.cli import main
from veronese.groebner import (
    Ideal, colon, colon_ideal, eliminate, ideal_equal, ideal_sum, intersect,
    saturate,
)
from veronese.invariants import dim_monomial, lc_top_piece
from veronese.polycore import GF, Lex, PolyRing
from veronese.toric import (
    MonomialMap, ci_check, ci_sequence, integer_kernel,
)

_R = PolyRing(("x", "y"))
_S = PolyRing(("x", "y"), GF(2))
_I = Ideal(_R, (_R.parse("x*y"),))
_J = Ideal(_S, (_S.parse("x*y"),))


def _normalize_one_third():
    from fractions import Fraction
    return GF(3).normalize(Fraction(1, 3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: eliminate(_I, ()), ValueError, "nothing to eliminate"),
    (lambda: ideal_sum(_I, _J), ValueError, "ideals in different rings"),
    (lambda: intersect(_I, _J), ValueError, "ideals in different rings"),
    (lambda: colon_ideal(_I, _J), ValueError, "ideals in different rings"),
    (lambda: ideal_equal(_I, _J), ValueError, "ideals in different rings"),
    (lambda: colon(_I, _S.parse("x")), ValueError,
     "polynomial from a different ring"),
    (lambda: saturate(_I, _S.parse("x")), ValueError,
     "polynomial from a different ring"),
    (lambda: ci_sequence(MonomialMap([(2, 0), (0, 2)]), 0), ValueError,
     "ci_sequence needs a Veronese map"),
    (lambda: ci_check(_I, [_S.parse("x")], 0, 1), ValueError,
     "candidate from a different ring"),
    (lambda: MonomialMap([()]), ValueError,
     "targets must have at least one coordinate"),
    (lambda: _R.zero.lead_monomial(Lex()), ValueError,
     "zero polynomial has no lead monomial"),
    (_normalize_one_third, ZeroDivisionError, "denominator 3 vanishes mod 3"),
    (lambda: dim_monomial(Ideal(_R, (_R.one,))), ValueError,
     "constant generator: the ideal is the unit ideal"),
    (lambda: lc_top_piece(0, -1), ValueError, "k must be at least 1"),
], ids=["eliminate_nothing", "ideal_sum", "intersect", "colon_ideal",
        "ideal_equal", "colon", "saturate", "ci_sequence", "ci_check",
        "no_coordinate", "zero_lead", "vanishing_denominator",
        "dim_monomial_unit", "lc_top_piece_k0"])
def test_a_bad_library_call_is_refused(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_the_kernel_of_no_rows_is_empty():
    assert integer_kernel([]) == []


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_PRESENT = ("present", "--targets", "2,0;1,1;0,2")


@pytest.mark.parametrize("argv, line", [
    ((*_PRESENT, "--ci", "t1"),
     "bad --ci 't1'; expected variable:poly,poly"),
    ((*_PRESENT, "--ci", "t1: "),
     "bad --ci 't1: '; expected variable:poly,poly"),
    ((*_PRESENT, "--ci", "t1:t2^2-t1*t3", "--ci", " t1 :t2"),
     "repeated --ci variable 't1'"),
    ((*_PRESENT, "--primes=-2"), "negative entry in '-2'"),
    (("present", "--targets", " ; "), "bad target list ' ; '"),
    (("height", "--ring", "x,,y", "--ideal", "x"),
     "empty entry in list 'x,,y'"),
], ids=["ci_without_colon", "ci_without_polynomials", "repeated_ci",
        "negative_prime", "no_target", "empty_ring_name"])
def test_bad_command_line_text_exits_2(capsys, argv, line):
    assert _run(capsys, *argv) == (2, "", f"error: {line}\n")


def _remainder_left(monkeypatch):
    """``colon`` divides with a remainder left over."""
    divide = groebner.divide

    def doctored(f, divisors, order):
        qs, r = divide(f, divisors, order)
        return qs, r + f.ring.one
    monkeypatch.setattr(groebner, "divide", doctored)


def _rows_swapped(monkeypatch):
    """The row reduction swaps its first two rows of H and of U: U * rows
    is still H, and the kernel rows past the rank are untouched, but H is
    no echelon form."""
    reduce = toric._integer_row_reduce

    def doctored(rows):
        H, U, r = reduce(rows)
        H, U = [list(h) for h in H], [list(u) for u in U]
        H[0], H[1], U[0], U[1] = H[1], H[0], U[1], U[0]
        return H, U, r
    monkeypatch.setattr(toric, "_integer_row_reduce", doctored)


def _first_step_misnamed(monkeypatch):
    """A successful search records the generator after the one it took as
    its first step, so the witness sums to something else."""
    first_sums = charp._first_sums

    def doctored(gens, target, memo, guard):
        found = first_sums(gens, target, memo, guard)
        if found and memo[target]:
            idx, rest = memo[target]
            memo[target] = ((idx + 1) % len(gens), rest)
        return found
    monkeypatch.setattr(charp, "_first_sums", doctored)


@pytest.mark.parametrize("doctor, argv, line", [
    (_remainder_left, ("fedder", "--ring", "x,y", "--ideal", "x*y", "--p",
                       "2"),
     "RuntimeError: colon witness not divisible; engine bug"),
    (_rows_swapped, _PRESENT,
     "RuntimeError: row reduction left no echelon form; engine bug"),
    (_first_step_misnamed, ("semigroup", "--generators", "2,0;1,1;0,2",
                            "--target", "2,2"),
     "RuntimeError: witness failed re-verification; search bug"),
], ids=["colon_witness", "echelon_form", "semigroup_witness"])
def test_a_doctored_fault_check_exits_4(capsys, monkeypatch, groebner_caches,
                                        doctor, argv, line):
    """Each input reports as it stands; once the stage is doctored, the
    fault check fires and the report is an internal error, exit 4."""
    assert _run(capsys, *argv)[0] in (0, 1)
    groebner_caches()
    doctor(monkeypatch)
    assert _run(capsys, *argv) == (4, "", f"internal error: {line}\n")
