"""Seeded inputs for the three benchmark workloads.

Every input is a plain dict (JSON-serialisable, so it can be sent to a
session worker) with a ``kind`` of ``cd``, ``present`` or ``compare`` and
the expected presentation height, computed here independently of the
program: ``C(k+n-1, n) - k`` for a Veronese map, otherwise the number of
targets minus the rank of the exponent matrix.

Excluded sizes (one report each, on a 2-core shared box): ``cd-certificate``
for (3, 3) takes 38-50 s at p = 2, and 3-variable ``present`` at p >= 5
takes 20-300 s, so neither is generated.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

WORKLOADS = ("certify", "char-sweep", "session")

#: the program refuses presentations with more source variables than this
VARIABLE_CAP = 12

CD_CASES = ((2, 2), (2, 3), (2, 4), (3, 2))
CD_PRIMES = (2, 3, 5)
COMPARE_PRIMES = (2, 3, 5, 7, 11, 13)
QUARTIC_CURVE = ((4, 0), (3, 1), (1, 3), (0, 4))
COMPARE_VERONESE = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2))

#: (k, n) pairs whose certificate takes tens of seconds; never generated
EXCLUDED_CD = ((3, 3),)


def veronese_targets(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All degree-n exponent vectors in k variables, lex-descending."""
    out = []
    for combo in combinations_with_replacement(range(k), n):
        e = [0] * k
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(sorted(out, reverse=True))


def veronese_height(k: int, n: int) -> int:
    return comb(k + n - 1, n) - k


def matrix_rank(rows) -> int:
    m = [[Fraction(e) for e in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def toric_height(targets) -> int:
    return len(targets) - matrix_rank(targets)


def veronese_quadrics(k: int, n: int) -> tuple[str, ...]:
    """Quadratic binomials t_a*t_b - t_c*t_d over equal exponent sums; they
    generate the Veronese toric ideal."""
    targets = veronese_targets(k, n)
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for a in range(len(targets)):
        for b in range(a, len(targets)):
            s = tuple(x + y for x, y in zip(targets[a], targets[b]))
            groups.setdefault(s, []).append((a, b))
    gens = []
    for pairs in groups.values():
        a, b = pairs[0]
        for c, d in pairs[1:]:
            gens.append(f"t{a + 1}*t{b + 1} - t{c + 1}*t{d + 1}")
    return tuple(gens)


def _cd(k: int, n: int, primes) -> dict:
    return {"kind": "cd", "k": k, "n": n, "primes": list(primes),
            "veronese": [k, n], "height": veronese_height(k, n)}


def _height(targets, veronese) -> int:
    return veronese_height(*veronese) if veronese else toric_height(targets)


def _present(targets, primes, veronese=None) -> dict:
    """Equal-degree algebra containing every pure power, with its radical
    cover taken over the pure-power variables."""
    pure = [i for i, t in enumerate(targets) if sum(1 for e in t if e) == 1]
    return {"kind": "present", "targets": [list(t) for t in targets],
            "primes": list(primes), "radical": pure, "veronese": veronese,
            "height": _height(targets, veronese)}


def _compare_targets(targets, primes, veronese=None) -> dict:
    return {"kind": "compare", "targets": [list(t) for t in targets],
            "primes": list(primes), "veronese": veronese,
            "height": _height(targets, veronese)}


def _compare_ideal(k: int, n: int, primes) -> dict:
    d = comb(k + n - 1, n)
    return {"kind": "compare", "names": [f"t{i + 1}" for i in range(d)],
            "generators": list(veronese_quadrics(k, n)),
            "primes": list(primes), "veronese": [k, n],
            "height": veronese_height(k, n)}


def _curve(rng: random.Random, degree: int, count: int
           ) -> tuple[tuple[int, ...], ...]:
    """Both pure powers of the degree plus ``count`` seeded mixed
    monomials, lex-descending."""
    mixed = [(degree - i, i) for i in range(1, degree)]
    chosen = rng.sample(mixed, count)
    return tuple(sorted([(degree, 0), (0, degree)] + chosen, reverse=True))


def _small_algebra(rng: random.Random, arity: int, count: int
                   ) -> tuple[tuple[int, ...], ...]:
    """Every pure power (so the algebra has full rank) plus ``count``
    seeded nonzero targets with entries at most 3 (2 variables) or 2
    (3 variables)."""
    top = 3 if arity == 2 else 2
    pure = [tuple(top if j == i else 0 for j in range(arity))
            for i in range(arity)]
    pool = [v for v in _box(arity, top) if any(v) and v not in pure]
    return tuple(sorted(pure + rng.sample(pool, count), reverse=True))


def _box(arity: int, top: int):
    if arity == 0:
        return [()]
    return [(e,) + rest for e in range(top + 1) for rest in _box(arity - 1, top)]


def _compare_primes(rng: random.Random, count: int) -> list[int]:
    return sorted(rng.sample(COMPARE_PRIMES, count))


# The seed picks members within fixed strata (curve degree and number of
# mixed monomials, algebra size, number of primes), so every seed asks for
# about the same work and the run-to-run spread measures the program and
# the box, not the draw.  Richer degree-5 curves are excluded: with two
# mixed monomials a report takes up to 0.94 s at p = 5, with three or four
# 0.6-24 s.

#: (degree, mixed monomials, prime or None for a seeded one) per present
CERTIFY_CURVES = ((3, 1, None), (3, 1, None), (4, 1, None), (4, 1, None),
                  (4, 2, 3), (5, 1, None), (5, 1, None))
#: per char-compare: ("V", k, n) a Veronese case by its targets, ("Q", k, n)
#: the same by its quadrics as polynomial text, ("A", arity, extra) a
#: seeded algebra; then how many primes.  The heaviest slots are fixed
#: Veronese cases, so the tail does not hang on what the seed draws (a
#: 2-variable algebra with three extra targets drew up to 0.4 s).
CHAR_SWEEP = ((("V", 2, 2), 1), (("V", 2, 3), 2), (("V", 2, 4), 3),
              (("V", 2, 5), 5), (("V", 3, 2), 4),
              (("Q", 2, 2), 5), (("Q", 2, 3), 4), (("Q", 2, 4), 3),
              (("Q", 2, 5), 2), (("Q", 3, 2), 1),
              (("A", 2, 1), 5), (("A", 2, 1), 4), (("A", 2, 2), 3),
              (("A", 2, 2), 2), (("A", 2, 2), 1),
              (("A", 3, 1), 5), (("A", 3, 1), 4), (("A", 3, 1), 3),
              (("A", 3, 2), 2), (("A", 3, 2), 1))
#: the session's two seeded curves, and per algebra (Veronese cases, the
#: quartic, the two curves) the char_compare prime count and the prime of
#: its first present; 3-variable presentations stay below p = 5
SESSION_CURVES = ((3, 1), (5, 1))
SESSION_COMPARE_PRIMES = (5, 4, 3, 2, 1, 3, 4)
SESSION_PRESENT_PRIME = (5, 3, 2, 3, 2, 5, 3)


def certify(seed: int) -> list[dict]:
    """Every (k, n) certificate at every single prime, plus eight 2-variable
    equal-degree presentations: the quartic curve at p = 5 and seven
    seeded curves."""
    rng = random.Random(f"certify:{seed}")
    inputs = [_cd(k, n, (p,)) for k, n in CD_CASES for p in CD_PRIMES]
    inputs.append(_present(QUARTIC_CURVE, (5,)))
    for degree, count, prime in CERTIFY_CURVES:
        inputs.append(_present(_curve(rng, degree, count),
                               (prime or rng.choice(CD_PRIMES),)))
    rng.shuffle(inputs)
    return inputs


def char_sweep(seed: int) -> list[dict]:
    """Heights across 1-5 seeded primes: the Veronese family by its
    targets and by its quadrics (parsed), and seeded 2- and 3-variable
    algebras."""
    rng = random.Random(f"char-sweep:{seed}")
    inputs = []
    for (form, a, b), count in CHAR_SWEEP:
        primes = _compare_primes(rng, count)
        if form == "Q":
            inputs.append(_compare_ideal(a, b, primes))
        elif form == "V":
            inputs.append(_compare_targets(veronese_targets(a, b), primes, [a, b]))
        else:
            inputs.append(_compare_targets(_small_algebra(rng, a, b), primes))
    rng.shuffle(inputs)
    return inputs


def session(seed: int) -> list[dict]:
    """One process's interleaving of the three library reports over seven
    algebras (the four Veronese cases, the quartic curve and two seeded
    curves), in rounds: a ``char_compare`` of each, a ``present``, then a
    certificate (Veronese) or ``present`` (curves) at each of 2, 3, 5.  The
    seed orders the algebras within each round, so every report after the
    first round finds some of its bases cached."""
    rng = random.Random(f"session:{seed}")
    algebras = [(veronese_targets(k, n), [k, n]) for k, n in CD_CASES]
    curves = [QUARTIC_CURVE] + [_curve(rng, d, c) for d, c in SESSION_CURVES]
    algebras += [(c, None) for c in curves]
    rounds = [
        [_compare_targets(t, _compare_primes(rng, count), v)
         for (t, v), count in zip(algebras, SESSION_COMPARE_PRIMES)],
        [_present(t, (p,), v)
         for (t, v), p in zip(algebras, SESSION_PRESENT_PRIME)],
    ]
    for p in CD_PRIMES:
        rounds.append([_cd(*v, (p,)) if v else _present(t, (p,))
                       for t, v in algebras])
    inputs = []
    for calls in rounds:
        rng.shuffle(calls)
        inputs += calls
    return inputs


GENERATORS = {"certify": certify, "char-sweep": char_sweep, "session": session}


def cli_args(spec: dict) -> list[str]:
    """The ``python -m veronese`` arguments that produce the spec's report."""
    primes = ",".join(str(p) for p in spec["primes"])
    if spec["kind"] == "cd":
        return ["cd-certificate", "-k", str(spec["k"]), "-n", str(spec["n"]),
                "--primes", primes]
    if spec["kind"] == "present":
        names = ",".join(f"t{i + 1}" for i in spec["radical"])
        return ["present", "--targets", _vectors(spec["targets"]),
                "--primes", primes, "--radical-subset", names]
    if "targets" in spec:
        return ["char-compare", "--targets", _vectors(spec["targets"]),
                "--primes", primes]
    return ["char-compare", "--ring", ",".join(spec["names"]),
            "--ideal", ", ".join(spec["generators"]), "--primes", primes]


def _vectors(targets) -> str:
    return ";".join(",".join(str(e) for e in t) for t in targets)


def source_variables(spec: dict) -> int:
    if spec["kind"] == "cd":
        return comb(spec["k"] + spec["n"] - 1, spec["n"])
    return len(spec.get("targets") or spec["names"])
