"""Exact polynomials: coefficient domains, the input grammar, monomial
orders, and division with remainder.

Run:  python3 demos/01_polynomials_and_orders.py
"""
from __future__ import annotations

from veronese import Block, GF, GrevLex, Lex, PolyRing, QQ
from veronese.polycore import divide

# A ring is a tuple of variable names plus a coefficient domain.  Rational
# coefficients are exact: an int when integral, a Fraction otherwise, with
# `fractions` loaded on first need; prime fields store least residues.
R = PolyRing(("x", "y", "z"), QQ)
F = PolyRing(("x", "y"), GF(5))

f = R.parse("(x + y)^2 - z")
g = R.parse("x^2 + 2*x*y + y^2 - z")
print("parse and arithmetic agree:", f == g)

h = F.parse("3*x + 4*x + y")          # 7x collapses to 2x mod 5
print("mod-5 normal form:        ", h)

# Terms are stored in descending graded-reverse-lex order; str() shows them
# that way, and equal polynomials are structurally identical.
print("canonical term order:     ", R.parse("y + x^2 + x*y"))

# Three orders on the same monomials.
grevlex, lex = GrevLex(), Lex()
elim = Block(frozenset({0}))          # eliminate x: any monomial containing
                                      # x beats every monomial without it
a = R.parse("x*z^2")
b = R.parse("y^3")
print("grevlex lead of a+b:      ", (a + b).lead_monomial(grevlex))
print("lex lead of a+b:          ", (a + b).lead_monomial(lex))
print("elimination lead of a+b:  ", (a + b).lead_monomial(elim))

# Multivariate division: f = q1*d1 + q2*d2 + r with no remainder term
# divisible by a divisor lead.
f = R.parse("x^2*y + x*y^2 + y^2")
d1, d2 = R.parse("x*y - 1"), R.parse("y^2 - 1")
(q1, q2), r = divide(f, (d1, d2), grevlex)
print("quotients:                ", q1, "|", q2)
print("remainder:                ", r)
print("reconstruction holds:     ", f == q1 * d1 + q2 * d2 + r)

# Fractions render exactly, but the grammar itself has no '/': fractional
# output is for reading; integer-coefficient text round-trips through parse.
from fractions import Fraction

w = R.from_dict({(2, 0, 0): Fraction(1, 2), (0, 1, 0): -1})
print("exact fraction rendering: ", w)
print("doubling clears it:       ", 2 * w)
