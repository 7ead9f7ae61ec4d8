"""Presentation ideals of monomial algebras: the Veronese family and a
projective monomial curve, computed by two independent routes.

Run:  python3 demos/03_monomial_algebra_presentations.py
"""
from __future__ import annotations

from veronese import (
    MonomialMap, ideal_equal, integer_kernel, minimal_generators,
    toric_ideal_elimination, toric_ideal_lattice, veronese_map,
)

# The full degree-3 Veronese of two variables: t1..t4 map to the degree-3
# monomials, and the presentation ideal is the twisted cubic's.
m = veronese_map(2, 3)
print("targets:              ", m.targets)
I_elim = toric_ideal_elimination(m)
I_latt = toric_ideal_lattice(m)
print("elimination route:    ", sorted(str(g) for g in I_elim.generators))
print("lattice route agrees: ", ideal_equal(I_elim, I_latt))
print("minimal generators:   ",
      sorted(str(g) for g in minimal_generators(I_elim)))

# A monomial curve that is NOT a full Veronese: x^4, x^3 y, x y^3, y^4.
# Its presentation needs four generators even though the height is two.
targets = ((4, 0), (3, 1), (1, 3), (0, 4))
q = MonomialMap(targets)
J = toric_ideal_elimination(q)
print("curve generators:     ", sorted(str(g) for g in J.generators))

# The lattice route works from the integer kernel of the exponent matrix:
# one saturation replaces the whole elimination order.
print("exponent kernel:      ", integer_kernel(targets))

# Substitution sends the presentation ideal to zero, by construction.
S = q.source_ring()
print("relations vanish:     ",
      all(q.substitute(g).is_zero() for g in J.generators))
