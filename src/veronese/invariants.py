"""Dimension, height, and closed-form graded pieces of top local cohomology.

Krull dimension of R/I is read off the grevlex initial ideal: for a
monomial ideal the dimension is the largest coordinate subspace avoiding
every generator's support, and passing to lead terms preserves dimension.
The local cohomology pieces of a polynomial ring (and of Veronese subrings
in their own grading) have binomial-coefficient dimensions; both closed
forms live here, tied together by graded local duality.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb

from .polycore import ResourceCapError, _Record, _require_ints
from .groebner import Ideal, initial_ideal

__all__ = [
    "DimensionResult", "GradedPiece", "dim_monomial", "krull_dim",
    "hilbert_piece", "lc_top_piece", "veronese_lc_piece",
]

_ARITY_CAP = 20


class DimensionResult(_Record):
    """Krull dimension of R/I and its height (arity - dimension)."""

    __match_args__ = ("dimension", "height")
    __slots__ = __match_args__


class GradedPiece(_Record):
    """Cohomological index i, internal degree j, and the vector-space
    dimension of the piece."""

    __match_args__ = ("index", "degree", "dimension")
    __slots__ = __match_args__


def _min_cover(supports: tuple[frozenset, ...]) -> int:
    """Smallest variable set meeting every support (exact branch and bound)."""

    @lru_cache(maxsize=None)
    def solve(remaining: frozenset) -> int:
        if not remaining:
            return 0
        pick = min(remaining, key=lambda s: (len(s), sorted(s)))
        best = None
        for v in sorted(pick):
            rest = frozenset(s for s in remaining if v not in s)
            sub = 1 + solve(rest)
            if best is None or sub < best:
                best = sub
        return best

    # drop supports that contain another support: hitting the smaller one
    # hits them for free
    kept = []
    for s in sorted(supports, key=lambda s: (len(s), sorted(s))):
        if not any(t <= s for t in kept):
            kept.append(s)
    return solve(frozenset(kept))


def _refuse_over_cap(ring) -> None:
    if ring.arity > _ARITY_CAP:
        raise ResourceCapError(
            f"arity {ring.arity} exceeds the cap {_ARITY_CAP}")


def dim_monomial(ideal: Ideal) -> DimensionResult:
    """Dimension of R/I for a monomial ideal I (each generator one term).

    dim = max size of a variable subset containing no generator's support,
    which equals arity minus the least hitting set of the supports.
    """
    ring = ideal.ring
    _refuse_over_cap(ring)
    if ideal.is_zero():
        raise ValueError("dimension of the zero monomial ideal is undefined here")
    supports = []
    for g in ideal.generators:
        if len(g.terms) != 1:
            raise ValueError(f"not a monomial generator: {g}")
        m = g.terms[0][0]
        s = frozenset(i for i, e in enumerate(m) if e)
        if not s:
            raise ValueError("constant generator: the ideal is the unit ideal")
        supports.append(s)
    cover = _min_cover(tuple(supports))
    dim = ring.arity - cover
    return DimensionResult(dim, ring.arity - dim)


def krull_dim(ideal: Ideal) -> DimensionResult:
    """Krull dimension and height of R/I via the grevlex initial ideal; any
    monomial order gives the same dimension.

    The zero ideal has dimension = arity.  The unit ideal is rejected, and
    so is an arity over the cap, before any Groebner work.
    """
    ring = ideal.ring
    if ideal.is_zero():
        return DimensionResult(ring.arity, 0)
    _refuse_over_cap(ring)
    init = initial_ideal(ideal)
    if any(g.total_degree() == 0 for g in init.generators):
        raise ValueError("unit ideal has no Krull dimension")
    return dim_monomial(init)


def hilbert_piece(k: int, m: int) -> int:
    """Dimension of the degree-m piece of a polynomial ring in k variables."""
    _require_ints(k=k, m=m)
    if k < 1:
        raise ValueError("k must be at least 1")
    if m < 0:
        return 0
    return comb(m + k - 1, k - 1)


def lc_top_piece(k: int, j: int) -> GradedPiece:
    """Degree-j piece of the top (index k) local cohomology of a polynomial
    ring in k variables at the irrelevant maximal ideal: nonzero only for
    j <= -k, with dimension C(-j-1, k-1) (Laurent monomials with all
    exponents negative).
    """
    _require_ints(k=k, j=j)
    if k < 1:
        raise ValueError("k must be at least 1")
    dim = comb(-j - 1, k - 1) if j <= -k else 0
    return GradedPiece(index=k, degree=j, dimension=dim)


def veronese_lc_piece(k: int, n: int, i: int, j: int) -> GradedPiece:
    """Degree-j piece of H^i for the degree-n Veronese subring in k
    variables: the Veronese functor keeps only internal degrees divisible
    by n, so the piece is the degree-(j*n) piece of the ambient H^i, and
    only i = k survives.
    """
    _require_ints(k=k, n=n, i=i, j=j)
    if k < 1 or n < 1:
        raise ValueError("k and n must be at least 1")
    if i < 0:
        raise ValueError("cohomological index must be nonnegative")
    if i != k:
        return GradedPiece(index=i, degree=j, dimension=0)
    return GradedPiece(index=i, degree=j, dimension=lc_top_piece(k, j * n).dimension)
