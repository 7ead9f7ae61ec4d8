"""Toric ideals of monomial maps, two ways, plus complete-intersection
certificates for localizations at pure-power variables.

A monomial map sends t_i to the monomial x^{a_i}.  Its toric ideal (the
kernel of that map) is computed both by eliminating the x-variables from the
graph ideal and through the integer kernel of the exponent matrix; the two
routes are independent and are cross-checked by callers.
"""
from __future__ import annotations

from itertools import combinations_with_replacement
from math import gcd
from typing import Optional, Sequence, Union

from .polycore import (
    CoeffDomain, GrevLex, PolyRing, Polynomial, Exponents, QQ,
    is_homogeneous, homogeneous_degree, _Record, _from_dict,
)
from .groebner import (
    Ideal, buchberger, eliminate, ideal_member, ideal_sum, normal_form,
    saturate,
)
from .invariants import krull_dim

__all__ = [
    "MonomialMap", "veronese_map", "monomial_algebra_map",
    "toric_ideal_elimination", "toric_ideal_lattice", "minimal_generators",
    "CIReport", "ci_sequence", "ci_check", "symmetric_minors_ideal",
    "integer_kernel", "integer_solve",
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
            if len(t) != k:
                raise ValueError("targets of unequal arity")
            if any((not isinstance(e, int)) or e < 0 for e in t):
                raise ValueError(f"bad exponent vector {t!r}")
            if all(e == 0 for e in t):
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

    def substitute(self, f: Polynomial, domain: CoeffDomain = QQ) -> Polynomial:
        """Image of an element of the source ring under the map."""
        xring = self.target_ring(domain)
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
    if k < 1 or n < 1:
        raise ValueError("veronese_map needs k >= 1 and n >= 1")
    return MonomialMap(_veronese_targets(k, n))


def monomial_algebra_map(targets: Sequence[Sequence[int]]) -> MonomialMap:
    return MonomialMap(tuple(tuple(t) for t in targets))


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


def integer_solve(rows: Sequence[Sequence[int]], target: Sequence[int]
                  ) -> Optional[Exponents]:
    """Integer vector z with sum z_i rows[i] = target, or None if the target
    is outside the row lattice.  Forward substitution on the echelon form is
    complete: each pivot column forces its coefficient, so a divisibility
    failure or a nonzero residual certifies non-membership."""
    rows = [tuple(r) for r in rows]
    target = tuple(target)
    if not rows:
        return () if not any(target) else None
    k = len(rows[0])
    if len(target) != k:
        raise ValueError("target arity does not match the rows")
    H, U, r = _integer_row_reduce(rows)
    resid = list(target)
    y = [0] * r
    for i in range(r):
        c = next(j for j in range(k) if H[i][j] != 0)
        if resid[c] % H[i][c] != 0:
            return None
        y[i] = resid[c] // H[i][c]
        if y[i]:
            resid = [a - y[i] * b for a, b in zip(resid, H[i])]
    if any(resid):
        return None
    d = len(rows)
    z = [0] * d
    for i in range(r):
        if y[i]:
            for j in range(d):
                z[j] += y[i] * U[i][j]
    check = [0] * k
    for i in range(d):
        if z[i]:
            for j in range(k):
                check[j] += z[i] * rows[i][j]
    if tuple(check) != target:
        raise RuntimeError("integer solve failed re-verification; engine bug")
    return tuple(z)


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
    """Candidate regular sequence generating the ideal once the variable
    t_{inverted} (mapping to a pure power x_j^n) is inverted; ``inverted``
    is a 0-based t-variable index, and ``alpha_denominators`` holds the
    power of t_inverted cleared from each candidate.

    Verification fields are None until ci_check fills them:
      * candidates_in_ideal: every candidate lies in the ideal;
      * generates_after_saturation: the ideal lies in the saturation of the
        candidate ideal by the inverted variable;
      * count_matches_height: number of candidates equals the height.
    """

    __match_args__ = (
        "inverted", "candidates", "alpha_denominators", "claimed_height",
        "candidates_in_ideal", "generates_after_saturation",
        "count_matches_height", "verified", "note")
    __slots__ = __match_args__
    _defaults = (None,) * 5


def ci_sequence(mmap: MonomialMap, pure_power_index: int,
                domain: CoeffDomain = QQ) -> CIReport:
    """For a Veronese map and the x-variable j = pure_power_index, emit one
    cleared binomial per target with x_j-exponent n-c, c >= 2:

        t_i^(c-1) * t_m  -  product of t_{s(l)} over the non-j letters l,

    where t_i maps to x_j^n and t_{s(l)} maps to x_j^(n-1) x_l.  These clear
    the denominators of the fractions expressing each t_m after inverting
    t_i, so they generate the localized ideal; there are exactly d - k.
    """
    n = mmap.veronese_degree()
    if n is None:
        raise ValueError("ci_sequence needs a Veronese map")
    k, d = mmap.k, mmap.d
    j = pure_power_index
    if not 0 <= j < k:
        raise ValueError(f"x-variable index {j} out of range")
    ring = mmap.source_ring(domain)
    index_of = {t: i for i, t in enumerate(mmap.targets)}

    pure = tuple(n if i == j else 0 for i in range(k))
    inv = index_of[pure]

    def near_pure(l: int) -> int:
        # index of the variable mapping to x_j^(n-1) x_l
        t = tuple((n - 1) * (i == j) + (i == l) for i in range(k))
        return index_of[t]

    candidates = []
    denominators = []
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
        denominators.append(c - 1)

    note = None
    if j == 0 and n >= 2 and k >= 2 and candidates:
        # bookkeeping tripwire: the first and last entries must match the
        # closed-form pattern t1*t_{k+1} - t2^2 and t1^(n-1)*t_d - t_k^n
        first = [0] * d
        first[0], first[k] = 1, 1
        expected_first = ring.monomial(tuple(first)) - ring.monomial(
            tuple(2 if i == 1 else 0 for i in range(d)))
        last = [0] * d
        last[0], last[d - 1] = n - 1, 1
        expected_last = ring.monomial(tuple(last)) - ring.monomial(
            tuple(n if i == k - 1 else 0 for i in range(d)))
        if candidates[0] != expected_first or candidates[-1] != expected_last:
            note = "derived sequence disagrees with block-index bookkeeping"

    return CIReport(
        inverted=inv,
        candidates=tuple(candidates),
        alpha_denominators=tuple(denominators),
        claimed_height=d - k,
        note=note,
    )


def ci_check(ideal: Ideal, candidates: Sequence[Polynomial],
             invert_index: int, base: Optional[CIReport] = None) -> CIReport:
    """Fill the three sub-verdicts: candidates inside the ideal, ideal inside
    the saturation of the candidates by the inverted variable, and candidate
    count equal to the height.  verified is their conjunction.
    """
    ring = ideal.ring
    candidates = tuple(candidates)
    for f in candidates:
        if f.ring != ring:
            raise ValueError("candidate from a different ring")
    if not 0 <= invert_index < ring.arity:
        raise ValueError(f"variable index {invert_index} out of range")
    v = ring.variable(invert_index)

    gb = buchberger(ideal, _GREVLEX)
    in_ideal = all(ideal_member(f, gb) for f in candidates)

    sat = saturate(Ideal(ring, candidates), v)
    gb_sat = buchberger(sat, _GREVLEX)
    generates = all(ideal_member(g, gb_sat) for g in ideal.generators)

    height = krull_dim(ideal).height
    count_ok = len(candidates) == height

    if base is None:
        denominators = tuple(
            max((m[invert_index] for m, _ in f.terms), default=0)
            for f in candidates)
        base = CIReport(
            inverted=invert_index,
            candidates=candidates,
            alpha_denominators=denominators,
            claimed_height=len(candidates),
        )
    return CIReport(
        inverted=base.inverted,
        candidates=base.candidates,
        alpha_denominators=base.alpha_denominators,
        claimed_height=base.claimed_height,
        candidates_in_ideal=in_ideal,
        generates_after_saturation=generates,
        count_matches_height=count_ok,
        verified=in_ideal and generates and count_ok,
        note=base.note,
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

def symmetric_minors_ideal(n: int, domain: CoeffDomain = QQ) -> Ideal:
    """Ideal of 2x2 minors of the generic symmetric n x n matrix, written in
    the C(n+1,2) variables t_m of the quadratic Veronese source ring."""
    if n < 1:
        raise ValueError("n must be at least 1")
    mmap = veronese_map(n, 2)
    ring = mmap.source_ring(domain)
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
