"""Seeded randomized properties of the Groebner engine: generators reduce to
zero, reduced bases are invariant under generator permutation and under the
first-in, first-out pair selection of ``FifoEngine``, saturation is
idempotent under further colons, and radical-membership witnesses check out
by explicit power membership.  The final test asserts the total randomized
case count for the run."""
from __future__ import annotations

import random

from veronese.groebner import (
    Ideal, buchberger, colon, ideal_member, normal_form, radical_member,
    saturate,
)
from veronese.polycore import GF, GrevLex, Lex, PolyRing, QQ

_GREVLEX = GrevLex()
_CASES = {"count": 0}


def _count(n):
    _CASES["count"] += n


def _random_poly(rng, ring, max_terms=3, max_deg=3, span=3):
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ring.arity))
        if sum(m) > max_deg:
            m = tuple(e if i == rng.randrange(ring.arity) else 0
                      for i, e in enumerate(m))
        d[m] = rng.randint(-span, span)
    return ring.from_dict(d)


def _random_ideal(rng, ring, max_gens=3):
    gens = tuple(f for f in (_random_poly(rng, ring)
                             for _ in range(rng.randint(1, max_gens)))
                 if not f.is_zero())
    return Ideal(ring, gens) if gens else None


def _ring(rng, trial):
    dom = (QQ, GF(2), GF(5))[trial % 3]
    names = (("x", "y"), ("x", "y", "z"))[trial % 2]
    return PolyRing(names, dom)


def test_generators_reduce_to_zero_in_their_basis():
    rng = random.Random(101)
    done = 0
    while done < 180:
        I = _random_ideal(rng, _ring(rng, done))
        if I is None:
            continue
        gb = buchberger(I)
        for g in I.generators:
            assert normal_form(g, gb).is_zero()
        # random combinations are members too
        combo = sum((_random_poly(rng, I.ring, max_terms=2, max_deg=2) * g
                     for g in I.generators), I.ring.zero)
        assert ideal_member(combo, gb)
        done += 1
    _count(done)


def test_reduced_basis_invariant_under_permutation_and_strategy(
        fifo, engine_counts):
    """Every basis also from the first-in, first-out engine, which forms
    another number of S-polynomials on some of the ideals; each ``fifo``
    call leaves the caches empty, so ``base`` is always a fresh run."""
    rng = random.Random(202)
    done = other_work = 0
    while done < 150:
        I = _random_ideal(rng, _ring(rng, done))
        if I is None or len(I.generators) < 2:
            continue
        before = engine_counts["_spoly"]
        base = buchberger(I)
        normal = engine_counts["_spoly"] - before
        shuffled = list(I.generators)
        rng.shuffle(shuffled)
        assert buchberger(Ideal(I.ring, tuple(shuffled))).elements == \
            base.elements
        before = engine_counts["_spoly"]
        assert fifo(buchberger, I).elements == base.elements
        other_work += engine_counts["_spoly"] - before != normal
        done += 1
    assert other_work > 0
    _count(done)


def test_saturation_is_colon_stable():
    rng = random.Random(303)
    done = 0
    while done < 100:
        R = _ring(rng, done)
        I = _random_ideal(rng, R)
        f = _random_poly(rng, R, max_terms=2, max_deg=2)
        if I is None or f.is_zero():
            continue
        S = saturate(I, f)
        T = colon(S, f)
        gb_s, gb_t = buchberger(S), buchberger(T)
        assert gb_s.elements == gb_t.elements
        done += 1
    _count(done)


def test_radical_witness_exponents_are_least_and_real():
    rng = random.Random(404)
    done = 0
    while done < 70:
        R = _ring(rng, done)
        # monomial ideals keep the power checks cheap and the answer known
        gens = tuple(R.from_dict({tuple(rng.randint(0, 2) for _ in
                                        range(R.arity)): 1})
                     for _ in range(rng.randint(1, 3)))
        gens = tuple(g for g in gens if not g.is_zero()
                     and g.terms[0][0] != (0,) * R.arity)
        if not gens:
            continue
        I = Ideal(R, gens)
        f = _random_poly(rng, R, max_terms=2, max_deg=2)
        if f.is_zero():
            continue
        member, e = radical_member(f, I)
        gb = buchberger(I)
        if member:
            assert ideal_member(f ** e, gb)
            if e > 1:
                assert not ideal_member(f ** (e - 1), gb)
        else:
            assert e is None
            for power in (1, 2, 3):
                assert not ideal_member(f ** power, gb)
        done += 1
    _count(done)


def test_members_have_exponent_one():
    rng = random.Random(505)
    done = 0
    while done < 50:
        R = _ring(rng, done)
        I = _random_ideal(rng, R)
        if I is None:
            continue
        h = sum((_random_poly(rng, R, max_terms=2, max_deg=1) * g
                 for g in I.generators), R.zero)
        if h.is_zero():
            continue
        assert radical_member(h, I) == (True, 1)
        done += 1
    _count(done)


def test_total_case_count():
    assert _CASES["count"] >= 500, _CASES["count"]
