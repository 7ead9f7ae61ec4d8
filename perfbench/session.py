"""Session worker: one long-lived library process answering report
requests, so the process-wide Groebner cache carries over between reports.

Protocol, one JSON object per line: the parent writes an input spec from
``workloads`` to stdin; the worker answers with ``{"seconds": ..., "body":
...}`` (the rendered report and the wall time of producing it) or
``{"error": ...}``.  At end of input a traced worker (``--trace``) writes
one more line, ``{"trace": <Tracer.summary()>}``.
"""
from __future__ import annotations

import json
import sys
import traceback
from time import perf_counter


def library_report(veronese, spec: dict) -> str:
    """Build and render the spec's report through the public library API."""
    primes = tuple(spec["primes"])
    if spec["kind"] == "cd":
        report = veronese.cd_certificate(spec["k"], spec["n"], primes)
    elif spec["kind"] == "present":
        report = veronese.present_monomial_algebra(
            [tuple(t) for t in spec["targets"]], primes=primes,
            radical_subset=spec["radical"])
    elif "targets" in spec:
        report = veronese.char_compare([tuple(t) for t in spec["targets"]],
                                       primes=primes)
    else:
        report = veronese.char_compare(ring_names=spec["names"],
                                       generators=spec["generators"],
                                       primes=primes)
    return veronese.render_json(report.to_report())


def main(argv: list[str]) -> int:
    tracer = None
    if argv == ["--trace"]:
        from stagetrace import Tracer
        tracer = Tracer()
        tracer.install()
    import veronese
    for line in sys.stdin:
        spec = json.loads(line)
        start = perf_counter()
        try:
            body = library_report(veronese, spec)
        except Exception:  # reported to the parent as a failed report
            answer = {"error": traceback.format_exc()}
        else:
            answer = {"seconds": perf_counter() - start, "body": body}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    if tracer is not None:
        sys.stdout.write(json.dumps({"trace": tracer.summary()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
