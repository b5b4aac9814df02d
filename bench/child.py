"""One timed run of the benchmark, in a fresh interpreter.

Reads a job (a list of calls) as JSON on stdin, runs every call through the
public ``cli.run_*`` and ``cli.render`` entry points, and prints one JSON
result line.  The parent records this process's spawn time and peak RSS;
this process reports when ``import extremalav`` returned and how long each
call took.
"""

import time

import extremalav

READY = time.monotonic()

# Everything else is imported after the timed import.
import hashlib
import json
import os
import platform
import sys

import numpy
from extremalav import cli, errors

# Typed errors and the exit code the command line gives each of them.
TYPED_ERRORS = (
    (errors.EnumerationCapExceeded, 3),
    (errors.PolarizationNotFound, 4),
    (errors.RiemannRelationsViolated, 5),
    (errors.InternalCheckFailed, 5),
)


def reset_caches():
    """Empty every functools cache in the package, so each call starts from
    the state a fresh ``extremalav`` process would have."""
    for name, module in list(sys.modules.items()):
        if name == "extremalav" or name.startswith("extremalav."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def invoke(op, p, arg):
    if op == "classify":
        return cli.run_classify(p)
    if op == "classify_lattice":
        return cli.run_classify(p, with_lattice=True)
    if op == "period":
        return cli.run_period(p, tuple(arg))
    if op == "stabilizer":
        return cli.run_stabilizer(p, tuple(arg))
    if op == "spectrum":
        return cli.run_spectrum(p, tuple(arg))
    raise ValueError(f"unknown op {op!r}")


def one_call(op, p, arg):
    """Run one call and render its JSON; return (doc, text, exit code)."""
    try:
        doc = invoke(op, p, arg)
    except ValueError:
        return None, None, 2
    except tuple(cls for cls, _ in TYPED_ERRORS) as exc:
        return None, None, next(code for cls, code in TYPED_ERRORS if isinstance(exc, cls))
    return doc, cli.render(doc, "json"), 0


def summarize(op, doc, text):
    """The part of an answer the parent checks."""
    if doc is None:
        return None
    if op == "classify":
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text.encode()),
                "rows": doc["orbit_count"]}
    if op == "classify_lattice":
        return {"rows": doc["orbit_count"],
                "classes": [[row["canonical"], row["lattice"]["c"], row["lattice"]["pfaffian"],
                             row["lattice"]["checks"]] for row in doc["classes"]]}
    if op == "period":
        return {"set": doc["set"], "pfaffian": doc["pfaffian"], "checks": doc["checks"]}
    return doc


def main():
    job = json.load(sys.stdin)
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "extremalav": os.path.dirname(extremalav.__file__),
    }
    if not job["calls"]:
        print(json.dumps({"ready": READY, "env": env}))
        return

    tracer = None
    if job["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install("extremalav")

    outcomes = []
    for op, p, arg in job["calls"]:
        reset_caches()
        t0 = time.perf_counter()
        if tracer is None:
            doc, text, code = one_call(op, p, arg)
        else:
            doc, text, code = tracer.root(f"call.{op}", one_call, op, p, arg)
        outcomes.append((time.perf_counter() - t0, doc, text, code))

    result = {
        "ready": READY,
        "env": env,
        "wall_s": sum(latency for latency, _, _, _ in outcomes),
        "calls": [{"latency_s": latency, "code": code, "answer": summarize(op, doc, text)}
                  for (op, _, _), (latency, doc, text, code) in zip(job["calls"], outcomes)],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        with open(job["spans_path"], "w") as sink:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.span_records()}, sink)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
