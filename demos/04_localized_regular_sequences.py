"""After inverting a pure-power variable the presentation ideal becomes a
complete intersection: height-many elements generate up to saturation.

Run:  python3 demos/04_localized_regular_sequences.py
"""
from __future__ import annotations

from veronese import (
    ci_check, ci_sequence, krull_dim, toric_ideal_lattice, veronese_map,
)

m = veronese_map(2, 3)
I = toric_ideal_lattice(m)

# At the vertex variable t1 (the pure power x1^3) the classical candidates
# are binomials t1^a t_j - t2^b; ci_sequence derives them with the index of
# the variable to invert.
inv, candidates = ci_sequence(m, 0)

# ci_check performs the three mechanical steps:
#   1. every candidate lies in the ideal,
#   2. the candidates generate the ideal after saturating at t1,
#   3. the count equals the height, which the caller computes once,
# and records the power of t1 each candidate clears (its denominator).
height = krull_dim(I).height
rep = ci_check(I, candidates, inv, height)
print("inverted variable:     index", rep.inverted, "=",
      I.ring.names[rep.inverted])
print("candidates:            ", [str(c) for c in rep.candidates])
print("power denominators:    ", rep.alpha_denominators)
print("claimed height:        ", len(rep.candidates))
print("candidates in ideal:   ", rep.candidates_in_ideal)
print("generate after sat.:   ", rep.generates_after_saturation)
print("count matches height:  ", rep.count_matches_height)
print("verified:              ", rep.verified)

# A wrong candidate list fails loudly but structurally.
bad = ci_check(I, (I.ring.parse("t1"),), 0, height)
print("bad list verified:     ", bad.verified,
      "(in ideal:", str(bad.candidates_in_ideal) + ",",
      "count ok:", str(bad.count_matches_height) + ")")
