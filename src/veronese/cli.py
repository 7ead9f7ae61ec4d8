"""Command-line interface: every subcommand prints one JSON report in the
shared envelope and exits 0 when all verdicts are true, 1 when some verdict
is false, 2 on bad input, 3 when the resource cap refuses the request, and
4 on an internal error (any other exception), reported as one stderr line
without a traceback so that a crash never reads as a verdict."""
from __future__ import annotations

import argparse
import gc
import sys
import time
from typing import NoReturn, Optional, Sequence

from .polycore import (
    CoeffDomain, GF, ParseError, PolyRing, Polynomial, QQ,
    parse_polynomial_list,
)
from .groebner import Ideal
from .invariants import krull_dim
from .toric import MonomialMap, _presentation, _specialise, ci_check
from .charp import fedder_fpure, semigroup_member
from .pipeline import (
    Report, ResourceCapError, _capped_veronese_map, _check, _ci_result,
    _cover_result, _fedder_details, _height_check, _minimal_generator_details,
    cd_certificate, char_compare, present_monomial_algebra, render_json,
)

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# small input grammars
# ---------------------------------------------------------------------------

def _is_integer(text: str) -> bool:
    """An integer as the command line takes it: ASCII digits after an
    optional minus sign (``int`` alone also takes other scripts' digits,
    underscores and surrounding whitespace)."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _int_flag(text: str) -> int:
    """The ``type`` of the integer flags, refused in argparse's own words."""
    if not _is_integer(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_vector(text: str) -> tuple[int, ...]:
    """Comma-separated nonnegative integers: "4,0" -> (4, 0)."""
    parts = [p.strip() for p in text.split(",")]
    if not all(map(_is_integer, parts)):
        raise ValueError(f"bad integer vector {text!r}")
    vec = tuple(map(int, parts))
    if any(e < 0 for e in vec):
        raise ValueError(f"negative entry in {text!r}")
    return vec


def _parse_targets(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated vectors: "4,0;3,1" -> ((4, 0), (3, 1))."""
    chunks = [c for c in (p.strip() for p in text.split(";")) if c]
    if not chunks:
        raise ValueError(f"bad target list {text!r}")
    return tuple(_parse_vector(c) for c in chunks)


def _parse_char(text: str) -> tuple[int, CoeffDomain]:
    """``--char``, 0 or a prime, and its field."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"bad characteristic {text!r}")
    char = int(text)
    return char, QQ if char == 0 else GF(char)


def _variable_index(names: Sequence[str], name: str) -> int:
    try:
        return names.index(name)
    except ValueError:
        raise ValueError(f"unknown variable {name!r}; "
                         f"ring has {', '.join(names)}") from None


def _split_list(text: str) -> tuple[str, ...]:
    """Split a comma-separated list of names or polynomials into items;
    commas never occur inside a polynomial, so a flat split is exact."""
    items = tuple(p.strip() for p in text.split(","))
    if any(not p for p in items):
        raise ValueError(f"empty entry in list {text!r}")
    return items


def _ideal_text(args: argparse.Namespace) -> str:
    if getattr(args, "ideal", None) is not None:
        return args.ideal
    with open(args.ideal_file, "r", encoding="utf-8") as fh:
        return fh.read()


def _parsed_ideal(args: argparse.Namespace, domain: CoeffDomain
                  ) -> tuple[PolyRing, Ideal]:
    ring = PolyRing(_split_list(args.ring), domain)
    gens = parse_polynomial_list(_ideal_text(args), ring)
    return ring, Ideal(ring, tuple(gens))


def _char_ideal(args: argparse.Namespace) -> tuple[PolyRing, Ideal, dict]:
    """``--ring`` and ``--ideal``/``--ideal-file`` over ``--char``, and the
    params they give."""
    char, dom = _parse_char(args.char)
    ring, ideal = _parsed_ideal(args, dom)
    return ring, ideal, {"ring": list(ring.names), "characteristic": char}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a Report
# ---------------------------------------------------------------------------

def _cmd_veronese_ideal(args: argparse.Namespace) -> Report:
    k, n = args.k, args.n
    mmap = _capped_veronese_map(k, n)
    char, dom = _parse_char(args.char)
    ideal, _, agree, dims = _presentation(mmap)
    checks = [
        _check("toric_routes_agree", agree,
               **_minimal_generator_details(_specialise(ideal, dom))),
        _height_check("height_matches", dims, mmap.d - k),
    ]
    params = {"k": k, "n": n, "d": mmap.d, "characteristic": char}
    return Report("veronese-ideal", params, checks)


def _cmd_present(args: argparse.Namespace) -> Report:
    targets = _parse_targets(args.targets)
    primes = _parse_vector(args.primes)
    names = tuple(f"t{i + 1}" for i in range(len(targets)))
    subset: Optional[tuple[int, ...]] = None
    if args.radical_subset is not None:
        subset = tuple(_variable_index(names, nm)
                       for nm in _split_list(args.radical_subset))
    candidates: Optional[dict[int, list[Polynomial]]] = None
    if args.ci:
        ring = PolyRing(names)
        candidates = {}
        for entry in args.ci:
            head, sep, tail = entry.partition(":")
            if not sep or not tail.strip():
                raise ValueError(
                    f"bad --ci {entry!r}; expected variable:poly,poly")
            idx = _variable_index(names, head.strip())
            if idx in candidates:
                raise ValueError(f"repeated --ci variable {head.strip()!r}")
            # parsed here, so that a parse error names its column within
            # this --ci value; the library takes the polynomials as they are
            try:
                candidates[idx] = parse_polynomial_list(tail, ring)
            except ParseError as exc:
                raise ParseError(exc.message,
                                 len(head) + len(sep) + exc.position) from None
    witness = (None if args.fpurity_witness is None
               else _parse_targets(args.fpurity_witness))
    return present_monomial_algebra(
        targets, primes=primes, radical_subset=subset,
        ci_candidates=candidates, fpurity_witness=witness)


def _cmd_height(args: argparse.Namespace) -> Report:
    _, ideal, params = _char_ideal(args)
    dims = krull_dim(ideal)
    checks = [_check("height_computed", True,
                     height=dims.height, dimension=dims.dimension)]
    return Report("height", params, checks)


def _cmd_ci_check(args: argparse.Namespace) -> Report:
    ring, ideal, params = _char_ideal(args)
    idx = _variable_index(ring.names, args.invert)
    cands = tuple(parse_polynomial_list(args.candidates, ring))
    rep = ci_check(ideal, cands, idx, krull_dim(ideal).height)
    checks = [_ci_result("localized_complete_intersection", rep, ring,
                         rep.candidates)]
    params["invert"] = ring.names[idx]
    return Report("ci-check", params, checks)


def _cmd_radical_cover(args: argparse.Namespace) -> Report:
    ring, ideal, params = _char_ideal(args)
    subset = tuple(_variable_index(ring.names, nm)
                   for nm in _split_list(args.subset))
    checks = [_cover_result("radical_cover", ideal, subset)]
    return Report("radical-cover", params, checks)


def _cmd_fedder(args: argparse.Namespace) -> Report:
    p = args.p
    ring, ideal = _parsed_ideal(args, GF(p))
    rep = fedder_fpure(ideal)
    checks = [_check(f"f_pure_p{p}", rep.f_pure, **_fedder_details(rep))]
    params = {"ring": list(ring.names), "p": p}
    return Report("fedder", params, checks)


def _cmd_semigroup(args: argparse.Namespace) -> Report:
    mmap = MonomialMap(_parse_targets(args.generators))
    target = _parse_vector(args.target)
    member, witness = semigroup_member(mmap, target)
    checks = [_check(
        "target_in_semigroup", member,
        target=list(target),
        witness=None if witness is None else [list(g) for g in witness])]
    params = {"generators": [list(g) for g in mmap.targets]}
    return Report("semigroup", params, checks)


def _cmd_cd_certificate(args: argparse.Namespace) -> Report:
    return cd_certificate(args.k, args.n, _parse_vector(args.primes))


def _cmd_char_compare(args: argparse.Namespace) -> Report:
    has_ideal = args.ideal is not None or args.ideal_file is not None
    return char_compare(
        None if args.targets is None else _parse_targets(args.targets),
        ring_names=None if args.ring is None else _split_list(args.ring),
        # unstripped pieces, which the library parses rejoined, so that a
        # parse error reports its column within --ideal
        generators=_ideal_text(args).split(",") if has_ideal else None,
        primes=_parse_vector(args.primes))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_out_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="FILE",
                     help="write the JSON report here instead of stdout")
    sub.add_argument("--timing", action="store_true",
                     help="append elapsed_seconds to the report")


def _add_ideal_flags(sub: argparse.ArgumentParser, required: bool = True) -> None:
    """``--ring`` and one of ``--ideal`` and ``--ideal-file``."""
    sub.add_argument("--ring", required=required,
                     help='variables, e.g. "u,v,w"')
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--ideal", metavar="POLYS",
                       help="comma-separated generators")
    group.add_argument("--ideal-file", metavar="FILE",
                       help="file containing comma-separated generators")


def _char_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--char", default="0", help="0 or a prime (default 0)")


def _primes_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--primes", default="2,3,5",
                     help="comma-separated primes (default 2,3,5)")


def _veronese_flags(sub: argparse.ArgumentParser) -> None:
    """``-k`` and ``-n`` of the Veronese map."""
    sub.add_argument("-k", type=_int_flag, required=True,
                     help="ambient variables")
    sub.add_argument("-n", type=_int_flag, required=True,
                     help="Veronese degree")


def _present_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--targets", required=True,
                     help='exponent vectors, e.g. "4,0;3,1;1,3;0,4"')
    _primes_flag(sub)
    sub.add_argument("--radical-subset", metavar="VARS",
                     help='cover variables, e.g. "t1,t4"')
    sub.add_argument("--ci", action="append", metavar="VAR:POLYS",
                     help='candidates per inverted variable, e.g. '
                          '"t1:t2^3-t1^2*t3,t2*t3-t1*t4"; repeatable')
    sub.add_argument("--fpurity-witness", metavar="VEC;VEC",
                     help='numerator;generator pair, e.g. "6,2;4,0"')


def _ci_check_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--invert", required=True, metavar="VAR",
                     help="the variable to invert")
    sub.add_argument("--candidates", required=True, metavar="POLYS",
                     help="comma-separated candidate generators")


def _radical_cover_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--subset", required=True, metavar="VARS",
                     help='cover variables, e.g. "u,w"')


def _fedder_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=_int_flag, required=True, help="the prime")


def _semigroup_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--generators", required=True,
                     help='generator vectors, e.g. "4,0;3,1;1,3;0,4"')
    sub.add_argument("--target", required=True, help='vector, e.g. "2,2"')


def _char_compare_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--targets", help="toric fixture: exponent vectors")
    _add_ideal_flags(sub, required=False)


#: subcommand name -> (its line in the top-level help, the functions that
#: add its flags, in order, its handler)
_SUBCOMMANDS = {
    "veronese-ideal": ("both toric routes for a Veronese map",
                       (_veronese_flags, _char_flag), _cmd_veronese_ideal),
    "present": ("presentation report for a monomial algebra",
                (_present_flags,), _cmd_present),
    "height": ("Krull dimension and height", (_add_ideal_flags, _char_flag),
               _cmd_height),
    "ci-check": ("verify a localized complete intersection",
                 (_add_ideal_flags, _ci_check_flags, _char_flag),
                 _cmd_ci_check),
    "radical-cover": ("is every variable in rad(I + subset)?",
                      (_add_ideal_flags, _radical_cover_flags, _char_flag),
                      _cmd_radical_cover),
    "fedder": ("Fedder F-purity test", (_add_ideal_flags, _fedder_flags),
               _cmd_fedder),
    "semigroup": ("affine semigroup membership", (_semigroup_flags,),
                  _cmd_semigroup),
    "cd-certificate": ("cohomological-dimension certificate",
                       (_veronese_flags, _primes_flag), _cmd_cd_certificate),
    "char-compare": ("heights across characteristics",
                     (_char_compare_flags, _primes_flag), _cmd_char_compare),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veronese",
        description="exact toric presentations and cohomological-dimension "
                    "certificates for monomial algebras")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_flags, _) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        for add in (*add_flags, _add_out_flags):
            add(sub)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The full parser's result, building only the invoked subcommand's
    parser when ``argv`` starts with its name (what ``add_parser`` would
    build, under the same prog).  Help, no or an unknown subcommand and
    arguments that subcommand leaves over go to the full parser, so every
    usage and error line is the full parser's own."""
    if argv and argv[0] in _SUBCOMMANDS:
        name = argv[0]
        _, add_flags, _ = _SUBCOMMANDS[name]
        sub = argparse.ArgumentParser(prog=f"veronese {name}")
        for add in (*add_flags, _add_out_flags):
            add(sub)
        args, extras = sub.parse_known_args(
            argv[1:], argparse.Namespace(command=name))
        if not extras:
            return args
    return _build_parser().parse_args(argv)


#: flags whose polynomial value may start with "-"
_POLYNOMIAL_FLAGS = ("--ideal", "--candidates", "--ci")


def _attach_values(argv: Sequence[str]) -> list[str]:
    """``--ideal X`` -> ``--ideal=X``, as argparse takes an "-x" value for a
    flag; a dangling flag is left for argparse to refuse."""
    out: list[str] = []
    rest = iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in _POLYNOMIAL_FLAGS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    start = time.perf_counter()
    try:
        report = _SUBCOMMANDS[args.command][2](args)
        envelope = report.to_report()
        if args.timing:
            envelope["elapsed_seconds"] = round(time.perf_counter() - start, 3)
        text = render_json(envelope)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0 if report.verdict else 1


def run() -> NoReturn:
    """Process entry of ``python -m veronese``, ``python -m veronese.cli``
    and the ``veronese`` script: `main`, then exit with its code.  `main`
    itself never freezes, as tests and library callers run it many times
    in one process."""
    code = main()
    # The process ends here and nothing is freed after this point, so the
    # interpreter's exit-time collections over every tracked object are
    # pure cost; frozen objects are never collected again.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
