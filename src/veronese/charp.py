"""Characteristic-p tools: Frobenius powers, Fedder's F-purity criterion,
and affine semigroup membership with verified witnesses."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .polycore import GrevLex, PrimeField, Polynomial, Exponents, is_homogeneous
from .groebner import Ideal, buchberger, colon_ideal

__all__ = [
    "frobenius_power", "FpurityReport", "fedder_fpure",
    "AffineSemigroup", "semigroup_member", "monomial_ideal_member",
]

_GREVLEX = GrevLex()


def frobenius_power(ideal: Ideal, p: int) -> Ideal:
    """Bracket power I^[p] = (g^p : g in generators) over F_p.

    Over F_p the freshman's dream and Fermat give g^p termwise: every
    exponent scales by p and coefficients are fixed.
    """
    dom = ideal.ring.domain
    if not isinstance(dom, PrimeField) or dom.p != p:
        raise ValueError(f"ideal must live over GF({p}), not {dom}")
    gens = tuple(
        Polynomial(ideal.ring, tuple((tuple(e * p for e in m), c) for m, c in g.terms))
        for g in ideal.generators)
    return Ideal(ideal.ring, gens)


@dataclass(frozen=True)
class FpurityReport:
    """Fedder's criterion: R/I is F-pure iff (I^[p] : I) is not contained in
    the bracket power of the irrelevant maximal ideal.  The certificate is
    the first colon generator with a term all of whose exponents are < p."""

    p: int
    colon_generators: tuple[Polynomial, ...]
    certificate: Optional[Polynomial]
    f_pure: bool


def fedder_fpure(ideal: Ideal, p: int) -> FpurityReport:
    """Decide F-purity of R/I at the irrelevant maximal ideal via Fedder.

    Requires a homogeneous proper ideal over GF(p); ``frobenius_power``,
    called first, rejects an ideal over another domain rather than coerce it.
    """
    bracket = frobenius_power(ideal, p)
    for g in ideal.generators:
        if not is_homogeneous(g):
            raise ValueError(f"non-homogeneous generator: {g}")
    if not ideal.is_zero():
        gb = buchberger(ideal, _GREVLEX)
        if any(g.total_degree() == 0 for g in gb.elements):
            raise ValueError("Fedder needs a proper ideal")
    col = colon_ideal(bracket, ideal)
    certificate = None
    for g in col.generators:
        if any(all(e < p for e in m) for m, _ in g.terms):
            certificate = g
            break
    return FpurityReport(
        p=p,
        colon_generators=col.generators,
        certificate=certificate,
        f_pure=certificate is not None,
    )


# ---------------------------------------------------------------------------
# affine semigroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineSemigroup:
    """Submonoid of N^k generated by nonzero nonnegative integer vectors."""

    generators: tuple[Exponents, ...]

    def __post_init__(self) -> None:
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("a semigroup needs at least one generator")
        k = len(gens[0])
        for g in gens:
            if len(g) != k:
                raise ValueError("generators of unequal arity")
            if any((not isinstance(e, int)) or e < 0 for e in g):
                raise ValueError(f"bad generator {g!r}")
            if all(e == 0 for e in g):
                raise ValueError("zero generator")

    @property
    def arity(self) -> int:
        return len(self.generators[0])


def semigroup_member(sg: AffineSemigroup, target: Sequence[int]
                     ) -> tuple[bool, Optional[tuple[Exponents, ...]]]:
    """Decide membership of the target vector by depth-first search over
    generator subtractions, memoizing failed residuals.  Terminates because
    every generator has positive total degree.  The search keeps its own
    stack, one frame per residual on the current path, so deep searches
    cannot overflow the interpreter's recursion limit.  On success the
    witness multiset is returned after re-verification by summation.
    """
    target = tuple(target)
    if len(target) != sg.arity:
        raise ValueError(f"target arity {len(target)} != {sg.arity}")
    if any((not isinstance(e, int)) or e < 0 for e in target):
        raise ValueError(f"bad target {target!r}")
    gens = sg.generators
    failed: set[Exponents] = set()
    path: list[Exponents] = []           # generators subtracted so far
    # [residual, index of the next generator to try]; the residual of
    # frame i + 1 is that of frame i minus path[i]
    stack: list[list] = [[target, 0]] if any(target) else []
    found = not stack
    while stack and not found:
        frame = stack[-1]
        res, start = frame
        for idx in range(start, len(gens)):
            g = gens[idx]
            if all(a <= b for a, b in zip(g, res)):
                child = tuple(b - a for a, b in zip(g, res))
                if child in failed:
                    continue
                frame[1] = idx + 1
                path.append(g)
                if any(child):
                    stack.append([child, 0])
                else:
                    found = True
                break
        else:
            failed.add(res)
            stack.pop()
            if stack:
                path.pop()
    if not found:
        return (False, None)
    witness = tuple(path)
    sums = [0] * sg.arity
    for g in witness:
        for i, e in enumerate(g):
            sums[i] += e
    if tuple(sums) != target:
        raise RuntimeError("witness failed re-verification; search bug")
    return (True, witness)


def monomial_ideal_member(sg: AffineSemigroup, numerator: Sequence[int],
                          generator: Sequence[int]) -> bool:
    """Does x^numerator lie in the ideal generated by x^generator inside the
    semigroup ring F[sg]?  True iff numerator - generator stays in sg."""
    numerator = tuple(numerator)
    generator = tuple(generator)
    if len(numerator) != sg.arity or len(generator) != sg.arity:
        raise ValueError("arity mismatch")
    residual = tuple(a - b for a, b in zip(numerator, generator))
    if any(e < 0 for e in residual):
        return False
    return semigroup_member(sg, residual)[0]
