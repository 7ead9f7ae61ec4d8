"""Shared binomial runs against runs in each domain.

An ideal whose generators are monomials or pure differences c*(m1 - m2) is
served from one engine run per generator shape, over QQ with the ints 1
and -1, so over ZZ (``groebner._binomial_basis``), read into each field.
The oracle here is the engine run in the ideal's own domain, with the
shared runs turned off: for every binomial request that the golden reports
and the perfbench library reports of seeds 3 and 5 make, the served basis
must equal it over QQ, GF(2), GF(3), GF(5) and GF(7), and so must the
S-polynomials, queued pairs and insertions of the two runs, with the
engine's pair selection and with the first-in, first-out one of
``FifoEngine``; under an elimination order the elimination ideal, which a
shared run reduces and builds on its own, must equal it too.  A shared run
whose output leaves the pure differences must raise ``RuntimeError``
(exit 4 on the command line)."""
from __future__ import annotations

import contextlib
import io

import pytest

from conftest import FifoEngine, replay_reports

from veronese import groebner
from veronese.cli import main
from veronese.groebner import Ideal, buchberger, eliminate, intersect
from veronese.polycore import GF, Block, GrevLex, PolyRing, Polynomial, QQ

_DOMAINS = [QQ, GF(2), GF(3), GF(5), GF(7)]


@pytest.fixture(scope="module")
def binomial_requests():
    """(names, shape, order) of every binomial request, for a basis or an
    elimination, of the golden cases and the perfbench library reports of
    seeds 3 and 5, recorded where the shared run is asked for, behind the
    caches of ``buchberger`` and ``eliminate``."""
    requests = {}
    basis = groebner._basis

    def record(ideal, order, out):
        shape = tuple(map(groebner._pure_difference, ideal.generators))
        if None not in shape:
            requests.setdefault((ideal.ring.names, shape, order), None)
        return basis(ideal, order, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_basis", record)
        replay_reports()
    return list(requests)


def _ideal(names, shape, dom) -> Ideal:
    ring = PolyRing(names, dom)
    signs = (dom.one, dom.normalize(-1))
    return Ideal(ring, [Polynomial(ring, tuple(zip(ms, signs)))
                        for ms in shape])


def test_the_reports_make_binomial_requests_of_every_kind(binomial_requests):
    """All 168 of them: a replay that starts with a warm presentation
    cache records fewer, and this oracle would cover less."""
    assert len(binomial_requests) == 168
    assert {type(order).__name__ for _, _, order in binomial_requests} \
        == {"GrevLex", "Block"}


def _counted_run(ideal, order, engine_counts, groebner_caches):
    """The basis of a run with the caches cleared first, under a block
    order also the elimination ideal, and their work."""
    for name in engine_counts:
        engine_counts[name] = 0
    groebner_caches()
    out = [buchberger(ideal, order)]
    if isinstance(order, Block):
        out.append(eliminate(ideal, order.eliminated))
    return out, dict(engine_counts)


@pytest.mark.parametrize("dom", _DOMAINS, ids=str)
def test_served_bases_equal_runs_in_their_own_domain(
        dom, binomial_requests, engine_counts, groebner_caches, monkeypatch):
    """Also for the first-in, first-out engine, which forms another number
    of S-polynomials than the engine on some request."""
    other_work = 0
    for names, shape, order in binomial_requests:
        ideal = _ideal(names, shape, dom)
        request = f"{ideal} under {order}"
        spolys = []
        for engine in (groebner._Engine, FifoEngine):
            with monkeypatch.context() as patch:
                patch.setattr(groebner, "_Engine", engine)
                served, shared_work = _counted_run(
                    ideal, order, engine_counts, groebner_caches)
                patch.setattr(groebner, "_pure_difference", lambda g: None)
                own, own_work = _counted_run(
                    ideal, order, engine_counts, groebner_caches)
            assert served == own, request
            assert shared_work == own_work, request
            spolys.append(own_work["_spoly"])
        other_work += spolys[0] != spolys[1]
    assert other_work > 0


def test_one_run_serves_every_characteristic(engine_counts):
    bases = [buchberger(_ideal(("x", "y", "z"), (((1, 0, 1), (0, 2, 0)),),
                               dom)) for dom in _DOMAINS]
    assert engine_counts["insert"] == 1
    assert [str(gb.elements[0]) for gb in bases] == [
        "y^2 - x*z", "y^2 + x*z", "y^2 + 2*x*z", "y^2 + 4*x*z",
        "y^2 + 6*x*z"]


@pytest.mark.parametrize("dom, text, monomials", [
    (QQ, "x*y", ((1, 1),)),
    (QQ, "3*x^2", ((2, 0),)),
    (QQ, "2*x^2 - 2*y", ((2, 0), (0, 1))),
    (QQ, "-x + y^2", ((0, 2), (1, 0))),
    (QQ, "x + y", None),
    (QQ, "x - 2*y", None),
    (QQ, "x - y + 1", None),
    (GF(2), "x + y", ((1, 0), (0, 1))),
    (GF(5), "2*x + 3*y", ((1, 0), (0, 1))),
    (GF(5), "x + y", None),
])
def test_pure_difference_tells_binomials_apart(dom, text, monomials):
    ring = PolyRing(("x", "y"), dom)
    assert groebner._pure_difference(ring.parse(text)) == monomials


def test_other_requests_run_in_their_own_domain(groebner_caches):
    ring = PolyRing(("x", "y"), QQ)
    a = Ideal(ring, (ring.parse("x^2 - y"),))
    b = Ideal(ring, (ring.parse("x - y"),))
    intersect(a, b)                      # generators times (1 - w)
    buchberger(Ideal(ring, (ring.parse("x^2 + y^2"),)))
    assert groebner._binomial_basis.cache_info().misses == 0
    eliminate(Ideal(ring, (ring.parse("x^2 - y"),)), {0})
    assert groebner._binomial_basis.cache_info().misses == 1


@pytest.mark.parametrize("names, texts, order, eliminated", [
    ("x,y,z,w", "x*z - y^2, x*w - y*z, y*w - z^2", GrevLex(), False),
    ("x,y,t1,t2,t3", "t1 - x^2, t2 - x*y, t3 - y^2", Block({0, 1}), False),
    ("x,y,t1,t2,t3", "t1 - x^2, t2 - x*y, t3 - y^2", Block({0, 1}), True),
], ids=["grevlex", "block", "block-eliminated"])
def test_a_shared_run_is_a_run_over_the_integers(names, texts, order,
                                                 eliminated, groebner_caches):
    """Every element of a shared run lies over QQ with int coefficients,
    not bools or fractions: 1 on its lead under the run's order, which on
    the kept variables of an elimination is grevlex, and -1 on the other
    term, if any.  Under the block order some lead is not the grevlex
    lead, where the coefficients are stored in the other order."""
    ring = PolyRing(tuple(names.split(",")), QQ)
    shape = tuple(groebner._pure_difference(ring.parse(t))
                  for t in texts.split(","))
    basis = groebner._binomial_basis(ring.arity, shape, order, eliminated)
    lead_order = GrevLex() if eliminated else order
    assert basis
    for g in basis:
        assert g.ring.domain == QQ
        assert all(c.__class__ is int for _, c in g.terms)
        lead = g.lead_monomial(lead_order)
        assert sorted([(m != lead, c) for m, c in g.terms]) \
            in ([(False, 1)], [(False, 1), (True, -1)])
    assert any(g.terms[0][1] == -1 for g in basis) \
        == (order == Block({0, 1}) and not eliminated)


def test_a_doctored_shared_run_is_an_engine_fault(monkeypatch,
                                                   groebner_caches):
    finalize = groebner._Engine._finalize

    def doubled_tails(self):
        return [(lead, quotient, tuple([(m, 2 * c) for m, c in tail]))
                for lead, quotient, tail in finalize(self)]

    monkeypatch.setattr(groebner._Engine, "_finalize", doubled_tails)
    ring = PolyRing(("x", "y", "z"), GF(3))
    with pytest.raises(RuntimeError, match="pure differences"):
        buchberger(Ideal(ring, (ring.parse("x*z - y^2"),)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["height", "--ring", "x,y,z", "--ideal", "x*z - y^2"])
    assert code == 4 and out.getvalue() == ""
    assert err.getvalue().startswith("internal error: RuntimeError: ")
