"""End-to-end certificates: cohomological-dimension reports for Veronese
presentation ideals, presentation reports for general monomial algebras, and
height comparison across characteristics.

Every check inside a report is verified mechanically here, in exact
arithmetic.  Facts consumed from the literature (and the glue between the
checks) are listed explicitly in ``cited_facts`` so the boundary between
computed and quoted mathematics stays visible.  Every report, from the
library and from each CLI subcommand, is one ``Report``, and
``Report.to_report`` writes the one JSON envelope they all share:

    {"kind": ..., "params": {...},
     "checks": [{"name": ..., "verdict": ..., "details": {...}}, ...],
     "cited_facts": [...], "verdict": ...}

and the overall verdict is the conjunction of the check verdicts.  Reports
are deterministic: identical inputs give byte-identical JSON.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, isfinite
from typing import Callable, Mapping, Optional, Sequence

from .polycore import (
    CoeffDomain, GF, GrevLex, PolyRing, Polynomial, QQ, ResourceCapError,
    _Record, _decimal, _is_int, _naturals, _read, _require_ints,
    is_homogeneous, parse_polynomial_list,
)
from .groebner import (
    Ideal, _least_power_member, _pure_difference, buchberger, ideal_equal,
    ideal_sum, radical_member,
)
from .toric import (
    CIReport, MonomialMap, _lattice_index, _presentation, _specialise,
    _veronese_targets, ci_check, ci_sequence, integer_kernel,
    minimal_generators, symmetric_minors_ideal, veronese_map,
)
from .invariants import DimensionResult, krull_dim, veronese_lc_piece
from .charp import (
    SEMIGROUP_CAP, FpurityReport, _least_multiples, fedder_fiber,
    fedder_fpure, monomial_ideal_member, semigroup_member,
)

__all__ = [
    "Check", "Report", "ResourceCapError", "cd_certificate",
    "present_monomial_algebra", "radical_cover_check", "char_compare",
    "render_json", "ensure_within_cap", "VARIABLE_CAP",
    "QUARTIC_CURVE_TARGETS", "GENERIC_2X3_NAMES", "GENERIC_2X3_GENERATORS",
]

_GREVLEX = GrevLex()

#: hard cap on source variables; larger requests are refused, not truncated
VARIABLE_CAP = 12

# fixtures ------------------------------------------------------------------

#: degree-4 monomial curve with a single gap in its semigroup
QUARTIC_CURVE_TARGETS: tuple[tuple[int, ...], ...] = ((4, 0), (3, 1), (1, 3), (0, 4))

#: 2x2 minors of a generic 2x3 matrix [[u, v, w], [x, y, z]]
GENERIC_2X3_NAMES: tuple[str, ...] = ("u", "v", "w", "x", "y", "z")
GENERIC_2X3_GENERATORS: tuple[str, ...] = ("v*z - w*y", "w*x - u*z", "u*y - v*x")


class Check(_Record):
    """One named, mechanically verified sub-verdict of a report."""

    __match_args__ = ("name", "verdict", "details")
    __slots__ = __match_args__

    def as_dict(self) -> dict:
        return {"name": self.name, "verdict": self.verdict,
                "details": dict(self.details)}


def _check(name: str, verdict: bool, **details: object) -> Check:
    return Check(name=name, verdict=bool(verdict), details=details)


class Report(_Record):
    """One report: its kind, its parameters, the computed checks and the
    quoted facts.  The verdict is the conjunction of the check verdicts."""

    __match_args__ = ("kind", "params", "checks", "cited_facts")
    __slots__ = __match_args__
    _defaults = ((),)

    @property
    def verdict(self) -> bool:
        return all(c.verdict for c in self.checks)

    def to_report(self) -> dict:
        """The JSON envelope, keys in their fixed order."""
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "checks": [c.as_dict() for c in self.checks],
            "cited_facts": list(self.cited_facts),
            "verdict": self.verdict,
        }


def render_json(report: Mapping[str, object]) -> str:
    """Canonical JSON rendering: fixed insertion order, two-space indent,
    trailing newline, no timestamps.

    The text is byte for byte ``json.dumps(report, indent=2) + "\n"``, for
    the values a report holds: dicts with str keys, lists, tuples, str,
    int, bool, None and finite floats.  An int is written by
    ``polycore._decimal``, so one that ``json`` would refuse under the
    process's ``int_max_str_digits`` renders all the same.  Any other
    value, a non-str key included, raises ``TypeError``, and a NaN or
    infinite float raises ``ValueError``, rather than rendering
    differently.  Each CLI report runs in a fresh interpreter and renders
    once, so this small writer spares every report the import of the
    ``json`` package, which with an indent would run its pure-Python
    encoder anyway."""
    return _render(report, "") + "\n"


#: the escapes of ``json`` that are not \uXXXX; every other character
#: outside printable ASCII is written \uXXXX
_SHORT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f",
                  "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(c: str) -> str:
    """One character of a string as ``json`` writes it, ASCII only: lower
    hex, and a surrogate pair above U+FFFF."""
    if c in _SHORT_ESCAPES:
        return _SHORT_ESCAPES[c]
    if " " <= c <= "~":
        return c
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _string(s: str) -> str:
    # printable ASCII (no control character, no DEL) needs no escape but
    # for the quote and the backslash
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_escape, s)) + '"'


def _render(value: object, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it when it starts
    at indent ``pad``."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return _decimal(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = pad + "  "
    if kind is dict:
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_string(key)}: {_render(item, inner)}")
        opening, closing = "{", "}"
    elif kind is list or kind is tuple:
        items = [_render(item, inner) for item in value]
        opening, closing = "[", "]"
    elif kind is float:
        if not isfinite(value):
            raise ValueError(f"float {value!r} is not JSON compliant")
        return float.__repr__(value)
    else:
        raise TypeError(
            f"Object of type {kind.__name__} is not JSON serializable")
    if not items:
        return opening + closing
    sep = ",\n" + inner
    return f"{opening}\n{inner}{sep.join(items)}\n{pad}{closing}"


def ensure_within_cap(d: int) -> None:
    """Refuse, never truncate, any request over the source-variable cap."""
    if d > VARIABLE_CAP:
        raise ResourceCapError(
            f"{d} source variables exceeds the cap of {VARIABLE_CAP}")


def _characteristics(primes: Sequence[int]) -> list[tuple[int, CoeffDomain]]:
    """Characteristic zero first, then the primes ascending, deduplicated.
    Primality is validated by the field constructor."""
    if not primes:
        raise ValueError("at least one prime is required")
    ps = sorted(set(_naturals(primes)))
    return [(0, QQ)] + [(p, GF(p)) for p in ps]


def _pure_power_indices(mmap: MonomialMap) -> tuple[int, ...]:
    """Indices of source variables whose image is a power of one variable."""
    return tuple(i for i, t in enumerate(mmap.targets)
                 if sum(1 for e in t if e) == 1)


def _veronese_normalization(mmap: MonomialMap) -> Optional[int]:
    """n when the normalization of the algebra is the n-th Veronese ring,
    else None.  For the semigroup S of the targets it is the algebra of
    the lattice points of cone(S) in ZS (Hochster, "Rings of invariants of
    tori...", 1972; Bruns-Herzog ch. 6).  For targets of common degree n, cone(S) is the orthant exactly when
    every pure power n*e_i is a target (distinct targets, so one per
    variable), and ZS is the lattice {e : sum(e) = 0 mod n} of the
    degree-n monomials, of index n and holding every target, exactly when
    the targets span a lattice of index n."""
    n = mmap.common_degree()
    if (n is not None and len(_pure_power_indices(mmap)) == mmap.k
            and _lattice_index(mmap.targets) == n):
        return n
    return None


# ---------------------------------------------------------------------------
# radical cover
# ---------------------------------------------------------------------------

def _radical_cover(ideal: Ideal, subset: tuple[int, ...]
                   ) -> tuple[bool, list[dict]]:
    """Does every ring variable lie in rad(I + (subset variables))?

    For homogeneous input the verdict is read from the grevlex basis of
    J = I + (subset): the radical contains every variable exactly when R/J
    is zero-dimensional, that is when every variable has a pure-power lead
    in that basis.  Witness exponents are then found by power reduction
    against the same basis.  Non-homogeneous input, and the failing case,
    fall back to one radical-membership run per variable that has a
    pure-power lead; under any order t_i^e in J forces such a lead, so a
    variable without one is outside rad(J) and needs no run.
    """
    ring = ideal.ring
    if not subset:
        raise ValueError("the cover subset must be nonempty")
    # ``variable`` refuses an index out of range
    J = ideal_sum(ideal, Ideal(ring, tuple(ring.variable(i) for i in subset)))
    gb = buchberger(J, _GREVLEX)
    leads = [g.lead_monomial(_GREVLEX) for g in gb.elements]
    powered = [any(m[i] == sum(m) for m in leads) for i in range(ring.arity)]
    read = all(powered) and all(is_homogeneous(g) for g in ideal.generators)
    details = []
    for i, nm in enumerate(ring.names):
        t = ring.variable(i)
        if read:
            member, e = True, _least_power_member(t, gb)
        elif powered[i]:
            member, e = radical_member(t, J)
        else:
            member, e = False, None
        details.append({"variable": nm, "member": member, "exponent": e})
    return all(d["member"] for d in details), details


def radical_cover_check(ideal: Ideal, subset: Sequence[int]) -> bool:
    """True iff every ring variable lies in the radical of
    I + (the subset variables); the reverse containment is automatic."""
    return _cover_result("radical_cover", ideal, subset).verdict


# ---------------------------------------------------------------------------
# per-characteristic checks
# ---------------------------------------------------------------------------

def _minimal_generator_details(ideal: Ideal) -> dict:
    mingens = minimal_generators(ideal)
    return {"minimal_generators": [str(g) for g in mingens],
            "minimal_generator_count": len(mingens)}


def _ci_result(name: str, rep: CIReport, ring: PolyRing,
               candidates: Sequence[Polynomial], **extra: object) -> Check:
    """A localized-CI report as a check, with the candidates written over
    the field of ``ring``."""
    return _check(
        name, rep.verified,
        inverted=ring.names[rep.inverted],
        **extra,
        candidates=[str(f) for f in candidates],
        candidates_in_ideal=rep.candidates_in_ideal,
        generates_after_saturation=rep.generates_after_saturation,
        count_matches_height=rep.count_matches_height)


def _cover_subset(subset: Sequence[int]) -> tuple[int, ...]:
    """The cover subset, each variable taken once; checked before the
    duplicates go, among which True would pass as 1."""
    return tuple(dict.fromkeys(_naturals(subset)))


def _cover_check(name: str, names: Sequence[str], subset: tuple[int, ...],
                 ok: bool, witnesses: list[dict]) -> Check:
    """The radical cover of ``subset`` in a ring of ``names``, with
    ``_radical_cover``'s verdict and witnesses, as a check; the witnesses
    may be cached, so they are copied."""
    return _check(name, ok, subset=[names[i] for i in subset],
                  witnesses=[dict(w) for w in witnesses])


def _cover_result(name: str, ideal: Ideal, subset: Sequence[int]) -> Check:
    """The radical cover of the subset, each variable taken once."""
    subset = _cover_subset(subset)
    return _cover_check(name, ideal.ring.names, subset,
                        *_radical_cover(ideal, subset))


def _fedder_details(rep: FpurityReport) -> dict:
    return {"certificate": None if rep.certificate is None
            else str(rep.certificate),
            "colon_generators": len(rep.colon_generators)}


def _height_check(name: str, dims: DimensionResult, expected: int) -> Check:
    """The computed height against ``expected``, with the Krull dimension."""
    return _check(name, dims.height == expected, height=dims.height,
                  expected=expected, dimension=dims.dimension)


def _height_constancy(heights: Mapping[int, int]) -> Check:
    return _check("height_constant_across_characteristics",
                  len(set(heights.values())) == 1,
                  heights={str(c): h for c, h in heights.items()})


@lru_cache(maxsize=256)
def _field_free_values(
        ideal: Ideal, height: int,
        charts: tuple[tuple[int, tuple[Polynomial, ...]], ...],
        cover: tuple[int, ...],
) -> tuple[tuple[tuple[CIReport, bool], ...], tuple, dict]:
    """What no field enters, of the presentation ``ideal`` over QQ of
    ``height``: each chart's ``ci_check`` over QQ with whether it serves
    every field, the radical cover of ``cover`` (``()`` when it is empty)
    and the minimal generator details.  Cached for the process beside
    ``toric._presentation``, with the ``groebner`` caches' bound, so a
    report on an algebra, chart set and cover already checked checks none
    of them again.  The key holds validated ints and polynomials only,
    never a caller's details; the values are not copies, so each reader
    copies what it puts into a report."""
    # each chart's report over QQ, and whether it serves every field
    reports = tuple((ci_check(ideal, cands, inv, height),
                     all(_pure_difference(f) is not None
                         and f.terms[0][1] in (1, -1) for f in cands))
                    for inv, cands in charts)
    covered = cover and _radical_cover(ideal, cover)
    return reports, covered, _minimal_generator_details(ideal)


def _characteristic_checks(
        presentation: tuple, doms: Sequence[tuple[int, CoeffDomain]],
        height: Callable,
        charts: Sequence[tuple[int, tuple[Polynomial, ...], dict]],
        cover: tuple[int, ...],
) -> list[Check]:
    """The checks of a map's ``presentation`` (``toric._presentation``):
    per characteristic the toric routes (with minimal generators in
    characteristic zero), the caller's ``height(label, dims)``, a
    localized-CI check for each chart (inverted t-index, candidates over
    QQ, details), its candidates read into the field (``_read``), and the
    radical cover of ``cover`` when it is nonempty; then the height
    constancy across them.

    The routes and the height are computed once per process per algebra
    (``toric._presentation``), over QQ, and serve every characteristic.
    So does the cover: t_j^e lies in I + (t_i : i in cover) exactly when
    e*a_j - a_i lies in the semigroup of the targets a for some i in the
    cover (Eisenbud-Sturmfels, "Binomial ideals", 1996), which no field
    enters, so its verdict and least exponents are those of every field.
    So does the CI verdict of a chart whose candidates are all +-m or
    +-(m1 - m2): on those and the toric ideal every run makes the same
    monomial steps in every field (``groebner._binomial_basis``).  A chart
    with any other coefficient is checked in each field, against the ideal
    read there (``_specialise``), since its coefficients may vanish mod p,
    in every report.  These field-free values, with the minimal
    generators, are computed once per process per algebra, chart set and
    cover (``_field_free_values``).  Each record gets its own details,
    copied from them."""
    ideal, lattice, agree, dims = presentation
    cover = _cover_subset(cover)
    reports, covered, mingens = _field_free_values(
        ideal, dims.height, tuple((inv, cands) for inv, cands, _ in charts),
        cover)
    checks: list[Check] = []
    for char, dom in doms:
        label = f"char_{char}"
        ring = PolyRing(ideal.ring.names, dom)
        route_details: dict[str, object] = {
            "generators": len(ideal.generators),
            "lattice_generators": len(lattice.generators),
        }
        if char == 0:
            route_details.update(mingens, minimal_generators=list(
                mingens["minimal_generators"]))
        checks.append(_check(f"toric_routes_agree_{label}", agree,
                             **route_details))

        checks.append(height(label, dims))

        # the ideal is read into this field once, if some chart needs it
        if char and not all(shared for _, shared in reports):
            field_ideal = _specialise(ideal, dom)
        for (inv, cands, details), (rep, shared) in zip(charts, reports):
            cands = _read(cands, ring)
            if char and not shared:
                rep = ci_check(field_ideal, cands, inv, dims.height)
            checks.append(_ci_result(
                f"localized_ci_{label}_{ring.names[inv]}", rep, ring, cands,
                **details))

        if cover:
            checks.append(_cover_check(f"radical_cover_{label}", ring.names,
                                       cover, *covered))
    checks.append(_height_constancy({char: dims.height for char, _ in doms}))
    return checks


def _capped_veronese_map(k: int, n: int) -> MonomialMap:
    """The Veronese map (k, n), refused for k or n not an int (a bool is
    not one) or < 1 and over the cap."""
    _require_ints(k=k, n=n)
    if k < 1 or n < 1:
        raise ValueError("k and n must both be at least 1")
    ensure_within_cap(comb(k + n - 1, n))
    return veronese_map(k, n)


@lru_cache(maxsize=256)
def _veronese_charts(mmap: MonomialMap
                     ) -> tuple[tuple[int, tuple[Polynomial, ...]], ...]:
    """The pure-power charts of a Veronese map, ``ci_sequence`` for each
    x-variable in turn, derived once per map in a process; the map is a
    validated value, so the key never holds a caller's bool."""
    return tuple(ci_sequence(mmap, j) for j in range(mmap.k))


@lru_cache(maxsize=256)
def _symmetric_minors(k: int) -> Ideal:
    """``symmetric_minors_ideal(k)``, built once per k in a process; k has
    been validated, so the key never holds a caller's bool."""
    return symmetric_minors_ideal(k)


def _lc_degree_zero(name: str, k: int, n: int) -> Check:
    """Every degree-zero graded piece of local cohomology of the degree-n
    Veronese subring in k variables vanishes."""
    pieces = [veronese_lc_piece(k, n, i, 0).dimension for i in range(k + 1)]
    return _check(name, all(v == 0 for v in pieces),
                  cohomological_indices=list(range(k + 1)), dimensions=pieces)


# ---------------------------------------------------------------------------
# cited facts
# ---------------------------------------------------------------------------

_CITED_LOWER_BOUND = (
    "lower bound: local cohomology supported in an ideal of a polynomial "
    "ring is nonzero at the height, so the cohomological dimension is at "
    "least the height (Grothendieck; consumed, not computed).")

_CITED_HOCHSTER_CM = (
    "Cohen-Macaulayness: normal affine semigroup rings, Veronese rings "
    "included, are Cohen-Macaulay (Hochster; consumed, not computed).")

_CITED_PESKINE_SZPIRO = (
    "positive characteristic: over a regular ring of characteristic p, "
    "local cohomology supported in an ideal with Cohen-Macaulay quotient "
    "vanishes strictly above the height (Peskine-Szpiro Frobenius argument; "
    "consumed, not computed).")

_CITED_CHAR_ZERO = (
    "characteristic zero: vanishing above the height reduces to the "
    "vanishing of the degree-zero graded piece of top local cohomology of "
    "the quotient (Ogus-style criterion; consumed).  That degree-zero piece "
    "is computed exactly in this report by a closed form.")

_CITED_COVER_GLUE = (
    "localization cover: on each chart where a certified pure-power "
    "variable is inverted, the certified candidates generate the ideal, so "
    "it is there a set-theoretic complete intersection of length equal to "
    "the height; with the radical cover this confines local cohomology "
    "above the height to the irrelevant maximal ideal (charts and "
    "candidates certified computationally here; the gluing argument is "
    "standard and consumed).")

_CITED_DUALITY = (
    "graded duality: the closed form for graded pieces of top local "
    "cohomology of a polynomial ring mirrors Hilbert function pieces under "
    "a sign flip; both sides are computed and compared in the library's "
    "test suite (duality statement consumed).")

_CITED_VERTEX_KILL = (
    "vertex kill: graded local cohomology confined to the vertex and "
    "vanishing in degree zero for the certified normalization vanishes "
    "outright; the degree-zero piece is computed here, the graded argument "
    "is consumed.")

_CITED_FROBENIUS_PURITY = (
    "Frobenius purity: over an F-pure ring, a monomial containment after "
    "scaling all exponents by p forces the base containment; the recorded "
    "witness pair applies the contrapositive (consumed).")

_CITED_CONCLUSION = (
    "conclusion: with every check above true, the cohomological dimension "
    "of the presentation ideal equals its height; the certified value is "
    "recorded in params as cohomological_dimension.")

_CITED_CD_JUMP = (
    "cohomological dimension can depend on the characteristic even when "
    "the height does not: for the 2x2 minors of a generic 2x3 matrix it "
    "exceeds the height exactly in characteristic zero (Hochster's "
    "comparison; consumed as context, only heights are computed here).")

_CD_CITED_FACTS = (
    _CITED_LOWER_BOUND, _CITED_HOCHSTER_CM, _CITED_PESKINE_SZPIRO,
    _CITED_CHAR_ZERO, _CITED_COVER_GLUE, _CITED_DUALITY, _CITED_CONCLUSION,
)

_PRESENT_CITED_FACTS = (
    _CITED_LOWER_BOUND, _CITED_COVER_GLUE, _CITED_VERTEX_KILL,
    _CITED_FROBENIUS_PURITY, _CITED_CONCLUSION,
)

_CHAR_COMPARE_CITED_FACTS = (_CITED_CD_JUMP,)


# ---------------------------------------------------------------------------
# cohomological-dimension certificate for Veronese ideals
# ---------------------------------------------------------------------------

def cd_certificate(k: int, n: int, primes: Sequence[int] = (2, 3, 5)
                   ) -> Report:
    """Certificate that cohomological dimension equals height for the
    degree-n Veronese presentation ideal in k ambient variables: every
    desk-checkable ingredient, plus the two closed-form graded
    computations.  The toric routes, the height, the localized-CI
    verdicts and the radical cover are computed over the rationals once
    per process per algebra, chart set and cover, and recorded for each
    requested prime field as well, since they read the same there
    (``_specialise``, ``_characteristic_checks``); the F-purity of each
    prime field is checked in that field."""
    mmap = _capped_veronese_map(k, n)
    doms = _characteristics(primes)
    expected = mmap.d - k

    presentation = _presentation(mmap)
    checks = _characteristic_checks(
        presentation, doms,
        lambda label, dims: _height_check(f"height_{label}", dims, expected),
        [(inv, cands, {"pure_power_of": f"x{j + 1}"})
         for j, (inv, cands) in enumerate(_veronese_charts(mmap))],
        _pure_power_indices(mmap))

    if n == 2:
        minors = _symmetric_minors(k)
        checks.append(_check(
            "symmetric_minors_match", ideal_equal(presentation[0], minors),
            minor_count=len(minors.generators)))

    checks.append(_lc_degree_zero("lc_degree_zero_vanishes", k, n))

    for char, _ in doms[1:]:
        rep = fedder_fiber(mmap, char)
        checks.append(_check(f"f_pure_p{char}", rep.f_pure,
                             fiber_size=rep.fiber_size,
                             constraints=rep.constraints, rank=rep.rank))

    verdict = all(c.verdict for c in checks)
    params = {"k": k, "n": n, "d": mmap.d, "height": expected,
              "cohomological_dimension": expected if verdict else None,
              "characteristics": [c for c, _ in doms]}
    return Report("cd_certificate", params, checks, _CD_CITED_FACTS)


# ---------------------------------------------------------------------------
# presentation report for a general monomial algebra
# ---------------------------------------------------------------------------

def present_monomial_algebra(
        targets: Sequence[Sequence[int]],
        primes: Sequence[int] = (2, 3, 5),
        radical_subset: Optional[Sequence[int]] = None,
        ci_candidates: Optional[Mapping[int, Sequence[Polynomial]]] = None,
        fpurity_witness: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> Report:
    """Present the algebra generated by the target monomials and certify
    everything that can be checked at desk scale: per-characteristic checks,
    localization certificates, radical cover, F-purity data, and, when
    certifiable, the normalization's degree-zero computation.

    ``radical_subset`` and the keys of ``ci_candidates`` are 0-based source
    variable indices.  Both default to the pure-power charts when the map
    is a Veronese map, and are skipped otherwise.  The candidates of a
    chart are polynomials of ``PolyRing(("t1", ..., "td"))`` over QQ, read
    into each field; the command line parses its ``--ci`` text into them.
    Anything else, a string or a list of strings included, is refused
    with ``ValueError`` before any Groebner run.  ``fpurity_witness`` is a
    pair (numerator vector, generator vector) of semigroup elements whose
    failed base containment plus successful p-fold containment certifies
    non-F-purity.  The normalization is certified, with its degree-zero
    computation, when ``_veronese_normalization`` decides that it is a
    Veronese ring; otherwise no check of it is emitted.  More degree-n
    monomials than ``SEMIGROUP_CAP`` are refused before any is listed, and
    the least-multiple searches share one budget
    (``charp._least_multiples``), both with ``ResourceCapError``.  A toric
    ideal that is not standard-graded, as for the cusp (2), (3), is refused
    with ``ValueError`` before any Groebner run.
    """
    ensure_within_cap(len(targets))
    mmap = MonomialMap(targets)
    kernel = integer_kernel(mmap.targets)
    for v in kernel:
        if sum(v):
            raise ValueError("present needs a standard-graded toric ideal: "
                             f"kernel vector {v} sums to {sum(v)}, not 0")
    doms = _characteristics(primes)
    is_veronese = mmap.veronese_degree() is not None

    ring = mmap.source_ring()
    for i in ci_candidates or ():
        if not _is_int(i) or i not in range(mmap.d):
            raise ValueError(f"chart variable index {i!r} out of range")
        if not all(isinstance(f, Polynomial) and f.ring == ring
                   for f in ci_candidates[i]):
            raise ValueError(f"the candidates of chart {i} must be "
                             f"polynomials of {ring}")

    if fpurity_witness is not None:
        pair = tuple(fpurity_witness)
        if len(pair) != 2:
            raise ValueError("the purity witness must be a pair of vectors")
        witness_base, witness_gen = (_naturals(v, mmap.k) for v in pair)

    subset = (_naturals(radical_subset) if radical_subset is not None
              else _pure_power_indices(mmap) if is_veronese else ())

    if ci_candidates is None and is_veronese:
        charts = [(inv, cands, {}) for inv, cands in _veronese_charts(mmap)]
    else:
        charts = [(i, tuple(ci_candidates[i]), {})
                  for i in sorted(ci_candidates or ())]

    # the normalization, when it is the Veronese ring: each missing
    # degree-n monomial v has m*v in S for m = n / gcd(n, v), since
    # m*v = sum (m*v_i/n)*(n*e_i); the least such m is recorded, or None,
    # and a false check, should the searches miss it.  Decided before any
    # Groebner run, so that a refusal costs none
    degree = _veronese_normalization(mmap)
    normalization = []
    if degree is not None:
        if comb(mmap.k + degree - 1, degree) > SEMIGROUP_CAP:
            raise ResourceCapError("more degree-n monomials than the cap "
                                   f"of {SEMIGROUP_CAP}")
        missing = [v for v in _veronese_targets(mmap.k, degree)
                   if v not in mmap.targets]
        multiples = _least_multiples(mmap, degree, missing)
        normalization = [
            _check("normalization_is_veronese", None not in multiples,
                   degree=degree,
                   missing_degree_n_targets=[list(v) for v in missing],
                   member_multiples=multiples),
            _lc_degree_zero("normalization_lc_degree_zero_vanishes", mmap.k,
                            degree)]

    nullity = len(kernel)
    presentation = _presentation(mmap)
    ideal, _, _, dims = presentation
    checks = _characteristic_checks(
        presentation, doms,
        lambda label, dims: _check(
            f"height_matches_lattice_nullity_{label}", dims.height == nullity,
            height=dims.height, lattice_nullity=nullity),
        charts, subset) + normalization

    if fpurity_witness is not None:
        valid = (semigroup_member(mmap, witness_base)[0]
                 and semigroup_member(mmap, witness_gen)[0])
        residual = tuple(a - b for a, b in zip(witness_base, witness_gen))
        base_in = monomial_ideal_member(mmap, witness_base, witness_gen)

    for char, dom in doms[1:]:
        rep = fedder_fpure(_specialise(ideal, dom))
        details = {"f_pure": rep.f_pure, **_fedder_details(rep)}
        if fpurity_witness is None:
            checks.append(_check(f"f_purity_recorded_p{char}", True, **details))
            continue
        pfold_in = monomial_ideal_member(
            mmap, tuple(char * e for e in witness_base),
            tuple(char * e for e in witness_gen))
        implies_not_f_pure = valid and (not base_in) and pfold_in
        consistent = (not implies_not_f_pure) or (not rep.f_pure)
        checks.append(_check(
            f"f_purity_consistent_p{char}", valid and consistent,
            **details,
            witness_numerator=list(witness_base),
            witness_generator=list(witness_gen),
            witness_in_semigroup=valid,
            residual=list(residual),
            base_containment=base_in,
            pfold_containment=pfold_in,
            implies_not_f_pure=implies_not_f_pure))

    verdict = all(c.verdict for c in checks)
    concluded = (verdict and degree is not None and bool(charts)
                 and bool(subset))
    params = {"targets": [list(t) for t in mmap.targets],
              "characteristics": [c for c, _ in doms], "height": dims.height,
              "cohomological_dimension": dims.height if concluded else None}
    return Report("presentation", params, checks, _PRESENT_CITED_FACTS)


# ---------------------------------------------------------------------------
# characteristic comparison
# ---------------------------------------------------------------------------

def char_compare(targets: Optional[Sequence[Sequence[int]]] = None,
                 *,
                 ring_names: Optional[Sequence[str]] = None,
                 generators: Optional[Sequence[str]] = None,
                 primes: Sequence[int] = (2, 3, 5)) -> Report:
    """Compare heights across characteristics, either of the toric ideal of
    target monomials (both routes cross-checked once, over QQ, and that
    agreement and height recorded for every characteristic, since the
    ideal over GF(p) is the rational one read mod p, ``_specialise``) or
    of an ideal given by generator strings parsed once over QQ, read into
    each field (``_read``); the params hold the heights and their
    constancy flag.  The generators are parsed as one comma-separated
    list, so the column of a ``ParseError`` counts in their comma-joined
    text."""
    doms = _characteristics(primes)
    checks: list[Check] = []
    heights: dict[int, int] = {}

    given = [x is not None for x in (targets, ring_names, generators)]
    if given not in ([True, False, False], [False, True, True]):
        raise ValueError("give either targets (--targets) or ring names with "
                         "generators (--ring with an ideal)")
    if targets is not None:
        ensure_within_cap(len(targets))
        mmap = MonomialMap(targets)
        description = "toric ideal of " + "; ".join(
            ",".join(map(_decimal, t)) for t in mmap.targets)
        _, _, agree, dims = _presentation(mmap)
        for char, _ in doms:
            checks.append(_check(f"toric_routes_agree_char_{char}", agree))
            heights[char] = dims.height
    else:
        names = tuple(ring_names)
        ensure_within_cap(len(names))
        description = (f"ideal ({', '.join(g.strip() for g in generators)})"
                       f" in {', '.join(names)}")
        gens = (parse_polynomial_list(",".join(generators), PolyRing(names))
                if generators else ())
        for char, dom in doms:
            ring = PolyRing(names, dom)
            heights[char] = krull_dim(Ideal(ring, _read(gens, ring))).height

    checks.append(_height_constancy(heights))
    params = {"description": description,
              "characteristics": [c for c, _ in doms],
              "heights": list(heights.values()),
              "constant": checks[-1].verdict}
    return Report("char_compare", params, checks, _CHAR_COMPARE_CITED_FACTS)
