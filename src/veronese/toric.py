"""Toric ideals of monomial maps, two ways, the presentation that every
report reads, plus complete-intersection certificates for localizations at
pure-power variables.

A monomial map sends t_i to the monomial x^{a_i}.  Its toric ideal (the
kernel of that map) is computed both by eliminating the x-variables from the
graph ideal and through the integer kernel of the exponent matrix; the two
routes are independent.  ``_presentation`` runs both once per map, over QQ,
cross-checks them and computes the height; every field reads that one
ideal (``_specialise``).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, prod
from typing import Optional, Sequence

from .polycore import (
    CoeffDomain, GrevLex, PolyRing, Polynomial, Exponents, QQ,
    is_homogeneous, homogeneous_degree, _Record, _from_dict, _naturals,
    _require_ints,
)
from .groebner import (
    Ideal, buchberger, eliminate, ideal_equal, ideal_member, saturate,
)
from .invariants import DimensionResult, krull_dim

__all__ = [
    "MonomialMap", "veronese_map", "toric_ideal_elimination",
    "toric_ideal_lattice", "minimal_generators", "CIReport", "ci_sequence",
    "ci_check", "symmetric_minors_ideal", "integer_kernel",
]

_GREVLEX = GrevLex()


class MonomialMap(_Record):
    """t_i -> x^{targets[i]}; all targets nonzero, equal arity."""

    __match_args__ = ("targets",)
    __slots__ = __match_args__

    def __init__(self, targets: Sequence[Sequence[int]]) -> None:
        targets = tuple(tuple(t) for t in targets)
        if not targets:
            raise ValueError("a monomial map needs at least one target")
        k = len(targets[0])
        if k == 0:
            raise ValueError("targets must have at least one coordinate")
        for t in targets:
            if not any(_naturals(t, k)):
                raise ValueError("constant target (zero exponent vector)")
        if len(set(targets)) != len(targets):
            raise ValueError("repeated target")
        super().__init__(targets)

    @property
    def d(self) -> int:
        """Number of source variables t_1..t_d."""
        return len(self.targets)

    @property
    def k(self) -> int:
        """Number of target variables x_1..x_k."""
        return len(self.targets[0])

    def source_ring(self, domain: CoeffDomain = QQ) -> PolyRing:
        return PolyRing(tuple(f"t{i + 1}" for i in range(self.d)), domain)

    def target_ring(self, domain: CoeffDomain = QQ) -> PolyRing:
        return PolyRing(tuple(f"x{i + 1}" for i in range(self.k)), domain)

    def common_degree(self) -> Optional[int]:
        degs = {sum(t) for t in self.targets}
        if len(degs) == 1:
            return degs.pop()
        return None

    def veronese_degree(self) -> Optional[int]:
        """n if the targets are exactly all degree-n monomials, else None."""
        n = self.common_degree()
        if n is None:
            return None
        if self.targets == _veronese_targets(self.k, n):
            return n
        return None

    def substitute(self, f: Polynomial) -> Polynomial:
        """Image of an element of the source ring under the map, over the
        field of f; f must have d variables."""
        if f.ring.arity != self.d:
            raise ValueError(f"{f.ring.arity} variables for {self.d} targets")
        xring = self.target_ring(f.ring.domain)
        d: dict[Exponents, object] = {}
        for m, c in f.terms:
            img = [0] * self.k
            for i, e in enumerate(m):
                if e:
                    for j, a in enumerate(self.targets[i]):
                        img[j] += e * a
            key = tuple(img)
            d[key] = d.get(key, 0) + c
        return _from_dict(xring, d)


def _veronese_targets(k: int, n: int) -> tuple[Exponents, ...]:
    out = []
    for combo in combinations_with_replacement(range(k), n):
        e = [0] * k
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort(reverse=True)                # lex-descending exponent vectors
    return tuple(out)


def veronese_map(k: int, n: int) -> MonomialMap:
    """All degree-n monomials in k variables, lex-descending."""
    _require_ints(k=k, n=n)
    if k < 1 or n < 1:
        raise ValueError("veronese_map needs k >= 1 and n >= 1")
    return MonomialMap(_veronese_targets(k, n))


# ---------------------------------------------------------------------------
# toric ideal, route one: eliminate x from the graph ideal
# ---------------------------------------------------------------------------

def toric_ideal_elimination(mmap: MonomialMap, domain: CoeffDomain = QQ) -> Ideal:
    """Kernel of the map as (t_i - x^{a_i} : i) intersect F[t]."""
    k, d = mmap.k, mmap.d
    names = tuple(f"x{i + 1}" for i in range(k)) + tuple(f"t{i + 1}" for i in range(d))
    big = PolyRing(names, domain)
    gens = []
    for i, a in enumerate(mmap.targets):
        gens.append(big.variable(k + i) - big.monomial(a + (0,) * d))
    elim = eliminate(Ideal(big, tuple(gens)), set(range(k)))
    return Ideal(mmap.source_ring(domain), elim.generators)


# ---------------------------------------------------------------------------
# toric ideal, route two: integer kernel of the exponent matrix
# ---------------------------------------------------------------------------

def _integer_row_reduce(rows: Sequence[Exponents]
                        ) -> tuple[list[list[int]], list[list[int]], int]:
    """Exact integer row echelon form with unimodular tracking: returns
    (H, U, r) with U * rows = H, U unimodular, and the first r rows of H a
    row echelon basis of the row lattice (rows r.. of H are zero)."""
    d = len(rows)
    k = len(rows[0])
    A = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    r = 0
    for col in range(k):
        while True:
            nz = [i for i in range(r, d) if A[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(A[i][col]), i))
            A[r], A[piv] = A[piv], A[r]
            U[r], U[piv] = U[piv], U[r]
            done = True
            for i in range(r + 1, d):
                if A[i][col]:
                    q = A[i][col] // A[r][col]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if A[i][col]:
                        done = False
            if done:
                r += 1
                break
    return A, U, r


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[Exponents]:
    """Basis of the lattice {u : sum u_i rows[i] = 0}, by exact integer row
    reduction with unimodular tracking.  Basis vectors come out primitive
    (coprime entries) and sign-normalized, sorted for determinism.
    """
    rows = [tuple(r) for r in rows]
    d = len(rows)
    if d == 0:
        return []
    _, U, r = _integer_row_reduce(rows)
    basis = []
    for i in range(r, d):
        v = U[i]
        g = gcd(*v)
        if g > 1:
            v = [e // g for e in v]
        lead = next((e for e in v if e != 0), 0)
        if lead < 0:
            v = [-e for e in v]
        basis.append(tuple(v))
    basis.sort()
    return basis


def _lattice_index(rows: Sequence[Exponents]) -> Optional[int]:
    """The index in Z^k of the lattice that the rows span, None when their
    rank is below k.  It is read from the pivots of one echelon form H,
    after checking U * rows = H and the echelon shape of H: then H's rows
    lie in the row lattice and span a sublattice of that index, so an
    index equal to that of a lattice holding every row certifies that the
    rows span it.  A failed check raises ``RuntimeError``."""
    H, U, r = _integer_row_reduce(rows)
    k = len(rows[0])
    if any([sum(u * row[j] for u, row in zip(w, rows)) for j in range(k)] != h
           for w, h in zip(U, H)):
        raise RuntimeError("row reduction failed re-verification; engine bug")
    if r < k:
        return None
    if (any(H[i][j] for i in range(len(H)) for j in range(min(i, k)))
            or not all(H[i][i] for i in range(k))):
        raise RuntimeError("row reduction left no echelon form; engine bug")
    return abs(prod(H[i][i] for i in range(k)))


def toric_ideal_lattice(mmap: MonomialMap, domain: CoeffDomain = QQ) -> Ideal:
    """Kernel via lattice binomials t^{u+} - t^{u-}, saturated by the
    product of all t-variables."""
    ring = mmap.source_ring(domain)
    kernel = integer_kernel(mmap.targets)
    if not kernel:
        return Ideal(ring, ())
    gens = []
    for u in kernel:
        plus = tuple(max(e, 0) for e in u)
        minus = tuple(max(-e, 0) for e in u)
        gens.append(ring.monomial(plus) - ring.monomial(minus))
    raw = Ideal(ring, tuple(gens))
    return saturate(raw, ring.monomial((1,) * mmap.d))


# ---------------------------------------------------------------------------
# the presentation: one per map, over QQ, read into every field
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _presentation(mmap: MonomialMap
                  ) -> tuple[Ideal, Ideal, bool, DimensionResult]:
    """The presentation ideal over QQ by elimination, the lattice-route
    ideal, whether the two routes agree, and the dimension and height of
    the ideal.  One unit per map, cached for the process beside the
    ``groebner`` caches and with their bound, so a report on an algebra
    already presented derives none of it again; every field is an
    immutable value, and each report builds its own checks.  Its readers:
    ``pipeline._characteristic_checks`` (routes, height, localized CI,
    radical cover), the minors check of ``cd_certificate``, the Fedder
    colon and the height of ``present_monomial_algebra``, ``char_compare``,
    the ideal of ``charp.fedder_fiber`` and the ``veronese-ideal`` command.

    The unit serves every characteristic.  Both routes are runs on
    monomials and pure differences, which ``groebner._binomial_basis``
    makes once for all fields (Eisenbud-Sturmfels, "Binomial ideals",
    1996), so over GF(p) the ideal is ``_specialise(ideal, GF(p))``, the
    lattice route has as many generators, the routes agree as they do over
    QQ, and the initial ideal, hence the height, is the same."""
    ideal = toric_ideal_elimination(mmap, QQ)
    lattice = toric_ideal_lattice(mmap, QQ)
    return ideal, lattice, ideal_equal(ideal, lattice), krull_dim(ideal)


def _read(polys: Sequence[Polynomial], ring: PolyRing
          ) -> tuple[Polynomial, ...]:
    """Polynomials over QQ with integer coefficients, read into ``ring``:
    each coefficient normalized in its field, the vanishing terms dropped
    and the grevlex order kept.  That is what a parse, or a derivation, in
    that field gives, since reduction mod p commutes with both."""
    normalize = ring.domain.normalize
    return tuple(Polynomial(ring, tuple([(m, r) for m, c in f.terms
                                         if (r := normalize(c))]))
                 for f in polys)


def _specialise(ideal: Ideal, dom: CoeffDomain) -> Ideal:
    """A reduced basis over QQ of monomials and monic pure differences,
    read over ``dom``: its reduced basis there.  Any other element is a
    fault of the shared runs and raises ``RuntimeError``."""
    if dom == QQ:
        return ideal
    for g in ideal.generators:
        if [c for _, c in g.terms] not in ([1], [1, -1]):
            raise RuntimeError(f"{g} is not a monomial or a monic pure "
                               f"difference; engine bug")
    ring = PolyRing(ideal.ring.names, dom)
    return Ideal(ring, _read(ideal.generators, ring))


# ---------------------------------------------------------------------------
# minimal generators of a homogeneous ideal
# ---------------------------------------------------------------------------

def minimal_generators(ideal: Ideal) -> list[Polynomial]:
    """Greedy minimalization by ascending degree; graded Nakayama makes the
    result a minimal generating set.  Requires homogeneous generators.
    """
    for g in ideal.generators:
        if not is_homogeneous(g):
            raise ValueError(f"non-homogeneous generator: {g}")
    gens = sorted(ideal.generators,
                  key=lambda g: (homogeneous_degree(g), _GREVLEX.key(g.terms[0][0])))
    kept: list[Polynomial] = []
    for g in gens:
        if not kept:
            kept.append(g)
            continue
        gb = buchberger(Ideal(ideal.ring, tuple(kept)), _GREVLEX)
        if not ideal_member(g, gb):
            kept.append(g)
    return kept


# ---------------------------------------------------------------------------
# complete-intersection certificate after inverting a pure-power variable
# ---------------------------------------------------------------------------

class CIReport(_Record):
    """The localized complete-intersection check of ``candidates`` after
    inverting the variable t_{inverted} (a 0-based index):
      * alpha_denominators: the highest power of t_inverted in each
        candidate, the denominator its fraction clears;
      * candidates_in_ideal: every candidate lies in the ideal;
      * generates_after_saturation: the ideal lies in the saturation of the
        candidate ideal by the inverted variable;
      * count_matches_height: number of candidates equals the height;
      * verified: the conjunction of the three.
    """

    __match_args__ = (
        "inverted", "candidates", "alpha_denominators", "candidates_in_ideal",
        "generates_after_saturation", "count_matches_height", "verified")
    __slots__ = __match_args__


def ci_sequence(mmap: MonomialMap, pure_power_index: int
                ) -> tuple[int, tuple[Polynomial, ...]]:
    """For a Veronese map and the x-variable j = pure_power_index, the index
    of the t-variable mapping to x_j^n and one cleared binomial per target
    with x_j-exponent n-c, c >= 2:

        t_i^(c-1) * t_m  -  product of t_{s(l)} over the non-j letters l,

    where t_i maps to x_j^n and t_{s(l)} maps to x_j^(n-1) x_l.  These clear
    the denominators of the fractions expressing each t_m after inverting
    t_i, so they generate the localized ideal; there are exactly d - k.
    The binomials are over QQ; being monic pure differences, they read into
    a prime field coefficient by coefficient (``_read``), which
    gives what the same derivation there would.
    A derivation that breaks that count, or the closed form of its first
    and last entries, is a fault of this code and raises RuntimeError.
    """
    n = mmap.veronese_degree()
    if n is None:
        raise ValueError("ci_sequence needs a Veronese map")
    k, d = mmap.k, mmap.d
    j = pure_power_index
    _require_ints(pure_power_index=j)
    if not 0 <= j < k:
        raise ValueError(f"x-variable index {j} out of range")
    ring = mmap.source_ring()
    index_of = {t: i for i, t in enumerate(mmap.targets)}

    pure = tuple(n if i == j else 0 for i in range(k))
    inv = index_of[pure]

    def near_pure(l: int) -> int:
        # index of the variable mapping to x_j^(n-1) x_l
        t = tuple((n - 1) * (i == j) + (i == l) for i in range(k))
        return index_of[t]

    candidates = []
    for m, a in enumerate(mmap.targets):
        c = n - a[j]
        if c < 2:
            continue
        letters = []
        for l in range(k):
            if l != j:
                letters.extend([l] * a[l])
        lhs = [0] * d
        lhs[inv] = c - 1
        lhs[m] += 1
        rhs = [0] * d
        for l in letters:
            rhs[near_pure(l)] += 1
        candidates.append(ring.monomial(tuple(lhs)) - ring.monomial(tuple(rhs)))

    if len(candidates) != d - k:
        raise RuntimeError(f"derived {len(candidates)} candidates, "
                           f"expected d - k = {d - k}")
    if j == 0 and n >= 2 and k >= 2:
        # bookkeeping tripwire: the first and last entries must match the
        # closed-form pattern t1*t_{k+1} - t2^2 and t1^(n-1)*t_d - t_k^n
        t = ring.variable
        if (candidates[0] != t(0) * t(k) - t(1) ** 2 or candidates[-1]
                != t(0) ** (n - 1) * t(d - 1) - t(k - 1) ** n):
            raise RuntimeError(
                "derived sequence disagrees with block-index bookkeeping")
    return inv, tuple(candidates)


def ci_check(ideal: Ideal, candidates: Sequence[Polynomial],
             invert_index: int, height: int) -> CIReport:
    """The localized complete-intersection check of ``candidates`` after
    inverting the variable ``invert_index``, reported as ``CIReport``;
    ``height`` is the height of the ideal (``krull_dim(ideal).height``),
    computed once by the caller for all of its charts."""
    ring = ideal.ring
    candidates = tuple(candidates)
    for f in candidates:
        if f.ring != ring:
            raise ValueError("candidate from a different ring")
    v = ring.variable(invert_index)     # refuses an index out of range

    gb = buchberger(ideal, _GREVLEX)
    in_ideal = all(ideal_member(f, gb) for f in candidates)

    sat = saturate(Ideal(ring, candidates), v)
    gb_sat = buchberger(sat, _GREVLEX)
    generates = all(ideal_member(g, gb_sat) for g in ideal.generators)

    count_ok = len(candidates) == height
    return CIReport(
        inverted=invert_index,
        candidates=candidates,
        alpha_denominators=tuple(
            max((m[invert_index] for m, _ in f.terms), default=0)
            for f in candidates),
        candidates_in_ideal=in_ideal,
        generates_after_saturation=generates,
        count_matches_height=count_ok,
        verified=in_ideal and generates and count_ok,
    )


# ---------------------------------------------------------------------------
# symmetric 2x2 minors (quadratic Veronese as a determinantal ideal)
# ---------------------------------------------------------------------------

def symmetric_matrix_entries(n: int) -> list[list[int]]:
    """Index of the t-variable at each entry of the symmetric n x n matrix,
    under the lex correspondence t_m <-> x_i x_j (i <= j)."""
    targets = _veronese_targets(n, 2)
    index_of = {t: i for i, t in enumerate(targets)}
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a, b = min(i, j), max(i, j)
            t = tuple((1 if l == a else 0) + (1 if l == b else 0) for l in range(n))
            M[i][j] = index_of[t]
    return M

def symmetric_minors_ideal(n: int) -> Ideal:
    """Ideal of 2x2 minors of the generic symmetric n x n matrix, written in
    the C(n+1,2) variables t_m of the quadratic Veronese source ring, over
    QQ."""
    _require_ints(n=n)
    if n < 1:
        raise ValueError("n must be at least 1")
    mmap = veronese_map(n, 2)
    ring = mmap.source_ring()
    M = symmetric_matrix_entries(n)
    seen = set()
    gens = []
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                for c2 in range(c1 + 1, n):
                    f = (ring.variable(M[r1][c1]) * ring.variable(M[r2][c2])
                         - ring.variable(M[r1][c2]) * ring.variable(M[r2][c1]))
                    if f.is_zero() or f.terms in seen:
                        continue
                    seen.add(f.terms)
                    seen.add((-f).terms)
                    gens.append(f)
    return Ideal(ring, tuple(gens))
