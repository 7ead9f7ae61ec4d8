"""Characteristic p: bracket powers, the splitting test for Frobenius purity
(through the colon ideal, and for toric ideals by linear algebra in one
multidegree), and semigroup membership witnesses that explain failures.

Run:  python3 demos/06_characteristic_p.py
"""
from __future__ import annotations

from veronese import (
    GF, Ideal, MonomialMap, PolyRing, fedder_fiber, fedder_fpure,
    frobenius_power, monomial_ideal_member, semigroup_member,
    toric_ideal_lattice, veronese_map,
)

# Bracket powers raise each generator's exponents p-fold; p is read from
# the ring of the ideal, here GF(3).
R = PolyRing(("x", "y"), GF(3))
I = Ideal(R, (R.parse("x^2 + 2*y^2"),))
print("I^[3]:                ",
      [str(g) for g in frobenius_power(I).generators])

# The splitting test: R/I is F-pure iff (I^[p] : I) has a generator with a
# term whose exponents all stay below p.
rep = fedder_fpure(Ideal(R, (R.parse("x*y"),)))
print("x*y at p=3 is F-pure: ", rep.f_pure, "certificate:", rep.certificate)

ver = toric_ideal_lattice(veronese_map(2, 3), GF(2))
print("Veronese (2,3), p=2:  ", fedder_fpure(ver).f_pure)

# For a toric ideal the same verdict comes from one linear system over GF(p)
# in the multidegree (p-1) * (sum of the targets), with no colon computed;
# the fiber route takes the map and p and builds the toric ideal itself.
fiber = fedder_fiber(veronese_map(2, 3), 2)
print("  by the fiber route: ", fiber.f_pure, f"({fiber.fiber_size} unknowns,",
      f"{fiber.constraints} rows, rank {fiber.rank})")

curve_map = MonomialMap(((4, 0), (3, 1), (1, 3), (0, 4)))
for p in (2, 3, 5):
    curve = toric_ideal_lattice(curve_map, GF(p))
    print(f"curve algebra, p={p}:   F-pure = {fedder_fpure(curve).f_pure}")

# The failure has a combinatorial explanation inside the exponent
# semigroup: x^(6,2) lies in the ring, x^(4,0) generates a monomial ideal,
# and membership of the quotient requires the residual (2,2) -- a hole.
print("\n(2,2) reachable:      ", semigroup_member(curve_map, (2, 2))[0])
print("(4,4) reachable via:  ", semigroup_member(curve_map, (4, 4))[1])
print("x^(6,2) in (x^(4,0)): ",
      monomial_ideal_member(curve_map, (6, 2), (4, 0)))
for p in (2, 3, 5):
    print(f"p-fold version, p={p}:  ",
          monomial_ideal_member(curve_map, (6 * p, 2 * p), (4 * p, 0)))
