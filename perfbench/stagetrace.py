"""Per-stage timing of the veronese library, measured from outside it.

``Tracer.install`` replaces each public stage function with a timing
wrapper in every veronese module that holds a reference to it, so calls
made through ``from .groebner import buchberger`` in ``pipeline``,
``charp``, ``toric``, ``invariants`` and ``cli`` are seen too.  Nothing in
the program changes: only module attributes are rebound, in the traced
process alone.

For each stage it records outermost calls, inclusive busy time and self
time (busy minus wrapped children).  Each ``buchberger`` call is also
charged to the innermost *driving* stage on the stack (any stage outside
``groebner`` and ``polycore``), with the size of the basis it returned and
whether the same (ideal, order, strategy) was already asked for in this
process.

Run as a script, it is a traced ``python -m veronese``: the report goes to
stdout unchanged and one trace line, prefixed ``TRACE_PREFIX``, goes to
stderr.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACE_PREFIX = "perfbench-trace "

#: stage name -> (module, function) pairs it wraps
STAGES = {
    "pipeline": (("pipeline", "cd_certificate"),
                 ("pipeline", "present_monomial_algebra"),
                 ("pipeline", "char_compare")),
    "render": (("pipeline", "render_json"),),
    "toric.elimination": (("toric", "toric_ideal_elimination"),),
    "toric.lattice": (("toric", "toric_ideal_lattice"),),
    "toric.minimal_generators": (("toric", "minimal_generators"),),
    "toric.ci": (("toric", "ci_sequence"), ("toric", "ci_check")),
    "invariants.height": (("invariants", "krull_dim"),),
    "charp.fedder": (("charp", "fedder_fpure"),),
    "charp.semigroup": (("charp", "semigroup_member"),),
    "groebner.buchberger": (("groebner", "buchberger"),),
    "groebner.normal_form": (("groebner", "normal_form"),),
    "groebner.colon": (("groebner", "colon"), ("groebner", "colon_ideal")),
    "groebner.intersect": (("groebner", "intersect"),),
    "groebner.eliminate": (("groebner", "eliminate"),),
    "groebner.saturate": (("groebner", "saturate"),),
    "groebner.ideal_equal": (("groebner", "ideal_equal"),),
    "polycore.parse": (("polycore", "parse_polynomial"),
                       ("polycore", "parse_polynomial_list")),
}

#: stages that decide which Groebner runs happen; buchberger time is
#: charged to the innermost one of these on the stack
DRIVING_STAGES = tuple(s for s in STAGES
                       if not s.startswith(("groebner.", "polycore."))
                       and s != "render")


class Tracer:
    """In-memory stage counters for one process."""

    def __init__(self) -> None:
        self.stack: list[list] = []          # [stage, child seconds]
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.busy_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.gb_s: defaultdict = defaultdict(float)
        self.gb_calls: Counter = Counter()
        self.gb_seen: set = set()
        self.gb_repeats = 0
        self.basis_elements = 0
        self.peak_basis = 0
        self.peak_degree = 0
        self.colon_generators = 0
        self.rebound: dict[str, list[str]] = {}

    def install(self) -> None:
        """Rebind every stage function in every loaded veronese module."""
        import veronese.cli  # noqa: F401  (loads every module, the CLI too)
        wrappers = {}
        for stage, targets in STAGES.items():
            for module, name in targets:
                fn = getattr(sys.modules[f"veronese.{module}"], name)
                wrappers[id(fn)] = (fn, self._wrap(stage, fn))
        modules = {n: m for n, m in sys.modules.items()
                   if n == "veronese" or n.startswith("veronese.")}
        for mod_name, module in sorted(modules.items()):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.rebound.setdefault(mod_name, []).append(attr)

    def _wrap(self, stage: str, fn):
        observe = {"groebner.buchberger": self._after_buchberger,
                   "charp.fedder": self._after_fedder}.get(stage)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [stage, 0.0]
            self.stack.append(frame)
            self.depth[stage] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.stack.pop()
                self.depth[stage] -= 1
                self.self_s[stage] += elapsed - frame[1]
                if not self.depth[stage]:
                    self.calls[stage] += 1
                    self.busy_s[stage] += elapsed
                if self.stack:
                    self.stack[-1][1] += elapsed
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result, elapsed)
            return result

        return traced

    def _after_buchberger(self, arguments, basis, elapsed):
        key = tuple(arguments.values())      # (ideal, order, strategy)
        self.gb_repeats += key in self.gb_seen
        self.gb_seen.add(key)
        self.basis_elements += len(basis.elements)
        self.peak_basis = max(self.peak_basis, len(basis.elements))
        self.peak_degree = max([self.peak_degree]
                               + [g.total_degree() for g in basis.elements])
        charged = next((f[0] for f in reversed(self.stack)
                        if f[0] in DRIVING_STAGES), "none")
        self.gb_s[charged] += elapsed
        self.gb_calls[charged] += 1

    def _after_fedder(self, arguments, report, elapsed):
        self.colon_generators += len(report.colon_generators)

    def summary(self) -> dict:
        """JSON-ready counters; every value except the times is a count."""
        return {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy_s),
            "self_s": dict(self.self_s),
            "gb_s": dict(self.gb_s),
            "gb_calls": dict(self.gb_calls),
            "gb_repeats": self.gb_repeats,
            "gb_distinct": len(self.gb_seen),
            "basis_elements": self.basis_elements,
            "peak_basis": self.peak_basis,
            "peak_degree": self.peak_degree,
            "colon_generators": self.colon_generators,
            "rebound": self.rebound,
        }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import veronese.cli
    try:
        return veronese.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
