"""Command-line interface: every subcommand prints one JSON report in the
shared envelope and exits 0 when all verdicts are true, 1 when some verdict
is false, 2 on bad input, 3 when the resource cap refuses the request, and
4 on an internal error (any other exception), reported as one stderr line
without a traceback so that a crash never reads as a verdict."""
from __future__ import annotations

import gc
import sys
import time
from types import SimpleNamespace
from typing import NoReturn, Optional, Sequence

from .polycore import (
    CoeffDomain, GF, ParseError, PolyRing, Polynomial, QQ, _Record,
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


def _ideal_text(args: SimpleNamespace) -> str:
    if getattr(args, "ideal", None) is not None:
        return args.ideal
    with open(args.ideal_file, "r", encoding="utf-8") as fh:
        return fh.read()


def _parsed_ideal(args: SimpleNamespace, domain: CoeffDomain
                  ) -> tuple[PolyRing, Ideal]:
    ring = PolyRing(_split_list(args.ring), domain)
    gens = parse_polynomial_list(_ideal_text(args), ring)
    return ring, Ideal(ring, tuple(gens))


def _char_ideal(args: SimpleNamespace) -> tuple[PolyRing, Ideal, dict]:
    """``--ring`` and ``--ideal``/``--ideal-file`` over ``--char``, and the
    params they give."""
    char, dom = _parse_char(args.char)
    ring, ideal = _parsed_ideal(args, dom)
    return ring, ideal, {"ring": list(ring.names), "characteristic": char}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a Report
# ---------------------------------------------------------------------------

def _cmd_veronese_ideal(args: SimpleNamespace) -> Report:
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


def _cmd_present(args: SimpleNamespace) -> Report:
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


def _cmd_height(args: SimpleNamespace) -> Report:
    _, ideal, params = _char_ideal(args)
    dims = krull_dim(ideal)
    checks = [_check("height_computed", True,
                     height=dims.height, dimension=dims.dimension)]
    return Report("height", params, checks)


def _cmd_ci_check(args: SimpleNamespace) -> Report:
    ring, ideal, params = _char_ideal(args)
    idx = _variable_index(ring.names, args.invert)
    cands = tuple(parse_polynomial_list(args.candidates, ring))
    rep = ci_check(ideal, cands, idx, krull_dim(ideal).height)
    checks = [_ci_result("localized_complete_intersection", rep, ring,
                         rep.candidates)]
    params["invert"] = ring.names[idx]
    return Report("ci-check", params, checks)


def _cmd_radical_cover(args: SimpleNamespace) -> Report:
    ring, ideal, params = _char_ideal(args)
    subset = tuple(_variable_index(ring.names, nm)
                   for nm in _split_list(args.subset))
    checks = [_cover_result("radical_cover", ideal, subset)]
    return Report("radical-cover", params, checks)


def _cmd_fedder(args: SimpleNamespace) -> Report:
    p = args.p
    ring, ideal = _parsed_ideal(args, GF(p))
    rep = fedder_fpure(ideal)
    checks = [_check(f"f_pure_p{p}", rep.f_pure, **_fedder_details(rep))]
    params = {"ring": list(ring.names), "p": p}
    return Report("fedder", params, checks)


def _cmd_semigroup(args: SimpleNamespace) -> Report:
    mmap = MonomialMap(_parse_targets(args.generators))
    target = _parse_vector(args.target)
    member, witness = semigroup_member(mmap, target)
    checks = [_check(
        "target_in_semigroup", member,
        target=list(target),
        witness=None if witness is None else [list(g) for g in witness])]
    params = {"generators": [list(g) for g in mmap.targets]}
    return Report("semigroup", params, checks)


def _cmd_cd_certificate(args: SimpleNamespace) -> Report:
    return cd_certificate(args.k, args.n, _parse_vector(args.primes))


def _cmd_char_compare(args: SimpleNamespace) -> Report:
    has_ideal = args.ideal is not None or args.ideal_file is not None
    return char_compare(
        None if args.targets is None else _parse_targets(args.targets),
        ring_names=None if args.ring is None else _split_list(args.ring),
        # unstripped pieces, which the library parses rejoined, so that a
        # parse error reports its column within --ideal
        generators=_ideal_text(args).split(",") if has_ideal else None,
        primes=_parse_vector(args.primes))


# ---------------------------------------------------------------------------
# flags and parsing
# ---------------------------------------------------------------------------

class _Flag(_Record):
    """One flag of the command line, defined here only: its option string,
    help line, kind of value (``text``; ``int``, in the grammar of
    `_is_integer`; ``append``, a text per use, collected; ``switch``, no
    value), default, whether it is required (in an exclusive ``group``:
    whether one of the group is) and the metavar of the help."""

    __match_args__ = ("option", "help", "kind", "default", "required",
                      "group", "metavar")
    __slots__ = __match_args__
    _defaults = ("text", None, False, None, None)

    @property
    def dest(self) -> str:
        """The namespace attribute, named as argparse names it."""
        return self.option.lstrip("-").replace("-", "_")


def _ideal_flags(required: bool) -> tuple[_Flag, ...]:
    """``--ring`` and one of ``--ideal`` and ``--ideal-file``."""
    return (_Flag("--ring", 'variables, e.g. "u,v,w"', required=required),
            _Flag("--ideal", "comma-separated generators", required=required,
                  group="ideal", metavar="POLYS"),
            _Flag("--ideal-file", "file containing comma-separated generators",
                  required=required, group="ideal", metavar="FILE"))


_CHAR = _Flag("--char", "0 or a prime (default 0)", default="0")
_PRIMES = _Flag("--primes", "comma-separated primes (default 2,3,5)",
                default="2,3,5")
#: ``-k`` and ``-n`` of the Veronese map
_VERONESE = (_Flag("-k", "ambient variables", "int", required=True),
             _Flag("-n", "Veronese degree", "int", required=True))
#: the flags of every subcommand, after its own
_OUT = (_Flag("--out", "write the JSON report here instead of stdout",
              metavar="FILE"),
        _Flag("--timing", "append elapsed_seconds to the report", "switch",
              default=False))

#: subcommand name -> (its line in the top-level help, its own flags, in
#: order, its handler)
_SUBCOMMANDS = {
    "veronese-ideal": ("both toric routes for a Veronese map",
                       (*_VERONESE, _CHAR), _cmd_veronese_ideal),
    "present": ("presentation report for a monomial algebra", (
        _Flag("--targets", 'exponent vectors, e.g. "4,0;3,1;1,3;0,4"',
              required=True),
        _PRIMES,
        _Flag("--radical-subset", 'cover variables, e.g. "t1,t4"',
              metavar="VARS"),
        _Flag("--ci", 'candidates per inverted variable, e.g. '
                      '"t1:t2^3-t1^2*t3,t2*t3-t1*t4"; repeatable', "append",
              metavar="VAR:POLYS"),
        _Flag("--fpurity-witness", 'numerator;generator pair, e.g. "6,2;4,0"',
              metavar="VEC;VEC")), _cmd_present),
    "height": ("Krull dimension and height", (*_ideal_flags(True), _CHAR),
               _cmd_height),
    "ci-check": ("verify a localized complete intersection", (
        *_ideal_flags(True),
        _Flag("--invert", "the variable to invert", required=True,
              metavar="VAR"),
        _Flag("--candidates", "comma-separated candidate generators",
              required=True, metavar="POLYS"),
        _CHAR), _cmd_ci_check),
    "radical-cover": ("is every variable in rad(I + subset)?", (
        *_ideal_flags(True),
        _Flag("--subset", 'cover variables, e.g. "u,w"', required=True,
              metavar="VARS"),
        _CHAR), _cmd_radical_cover),
    "fedder": ("Fedder F-purity test", (
        *_ideal_flags(True),
        _Flag("--p", "the prime", "int", required=True)), _cmd_fedder),
    "semigroup": ("affine semigroup membership", (
        _Flag("--generators", 'generator vectors, e.g. "4,0;3,1;1,3;0,4"',
              required=True),
        _Flag("--target", 'vector, e.g. "2,2"', required=True)),
        _cmd_semigroup),
    "cd-certificate": ("cohomological-dimension certificate",
                       (*_VERONESE, _PRIMES), _cmd_cd_certificate),
    "char-compare": ("heights across characteristics", (
        _Flag("--targets", "toric fixture: exponent vectors"),
        *_ideal_flags(False), _PRIMES), _cmd_char_compare),
}


def _build_parser():
    """The full argparse parser, built from the flag table; it writes every
    usage, help and error line."""
    import argparse

    def _int_flag(text: str) -> int:
        """The ``type`` of the ``int`` flags, refused in argparse's words;
        argparse names it in the message when ``int`` itself fails, so
        the name is kept."""
        if not _is_integer(text):
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        return int(text)

    # flag kind -> what ``add_argument`` is given for it
    kinds = {"text": {}, "int": {"type": _int_flag},
             "append": {"action": "append"},
             "switch": {"action": "store_true"}}
    parser = argparse.ArgumentParser(
        prog="veronese",
        description="exact toric presentations and cohomological-dimension "
                    "certificates for monomial algebras")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        # each exclusive group made before its flags, required as they say
        groups = {g: sub.add_mutually_exclusive_group(required=required)
                  for g, required in {f.group: f.required
                                      for f in flags if f.group}.items()}
        for flag in (*flags, *_OUT):
            kwargs = dict(kinds[flag.kind], default=flag.default,
                          help=flag.help)
            if flag.metavar:
                kwargs["metavar"] = flag.metavar
            if flag.group is None:
                kwargs["required"] = flag.required
            groups.get(flag.group, sub).add_argument(flag.option, **kwargs)
    return parser


def _plain_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The full parser's namespace for a plain command line, built without
    it, else ``None``.  Plain: a subcommand, then only its exact option
    strings, each once (``--ci`` any number of times), with a value as
    ``--opt value``, ``--opt=value`` or ``-k value``, a separate value not
    starting with "-" and no value "--", ``--timing`` without one; every
    required flag given, at most one of an exclusive group, and every int
    in `_is_integer`'s grammar.  Anything else (abbreviations, help, "--",
    stray words, a missing value, ``-k2``) is the full parser's."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    flags = {f.option: f for f in (*_SUBCOMMANDS[argv[0]][1], *_OUT)}
    values = {f.dest: f.default for f in flags.values()}
    given: set[str] = set()
    rest = iter(argv[1:])
    for token in rest:
        option, eq, value = (token.partition("=") if token.startswith("--")
                             else (token, "", ""))
        flag = flags.get(option)
        # argparse before 3.13 drops a value "--" (``--ring=--``)
        if (flag is None or (option in given and flag.kind != "append")
                or (eq and flag.kind == "switch") or value == "--"):
            return None
        given.add(option)
        if flag.kind == "switch":
            value = True
        elif not eq:
            value = next(rest, "-")           # a missing value reads as "-"
            if value.startswith("-"):
                return None
        if flag.kind == "int":
            # int() converts 640 digits under any -X int_max_str_digits
            if not (_is_integer(value) and len(value) <= 640):
                return None
            value = int(value)
        elif flag.kind == "append":
            value = [*(values[flag.dest] or ()), value]
        values[flag.dest] = value
    for flag in flags.values():           # a flag outside a group is its own
        count = sum(f.option in given for f in flags.values()
                    if (f.group or f.option) == (flag.group or flag.option))
        if count > 1 or (flag.required and not count):
            return None
    return SimpleNamespace(command=argv[0], **values)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The full parser's namespace: built directly for a plain command line
    (`_plain_args`), else by the full parser, which alone writes usage,
    help and error lines and then exits."""
    return _plain_args(argv) or SimpleNamespace(
        **vars(_build_parser().parse_args(argv)))


#: flags whose polynomial value may start with "-"
_POLYNOMIAL_FLAGS = ("--ideal", "--candidates", "--ci")


def _attach_values(argv: Sequence[str]) -> list[str]:
    """``--ideal X`` -> ``--ideal=X``, so that both paths take a value that
    starts with "-" (argparse takes a separate one for a flag, the plain
    path declines it); a dangling flag is left for the full parser to
    refuse."""
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
