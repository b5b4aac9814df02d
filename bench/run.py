"""Benchmark of the extremalav command line workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every timed run is a fresh child
interpreter (``bench/child.py``) that imports ``extremalav`` from ``src/``
and calls the public ``cli.run_*`` and ``cli.render`` entry points; this
process records each child's spawn time and peak RSS (``os.wait4``) and
checks every answer.  A fresh process per run keeps the package's
in-process caches cold, as a command line user sees them, and makes peak
RSS a property of the run.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported;
with ``--trace 1`` traced and untraced children alternate on the same input
and the per-layer metrics are reported.  The last line of standard output
is one JSON object; a readable report and a ``BENCH_*.json`` file in
``.bench_out/`` carry everything else.  The exit code is 1 when an answer
is wrong and 2 when the checkout has no source to measure.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from layers import EXACT
from workloads import check_call, job_calls, operations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120
# On these workloads every layer boundary is wrapped, so the time the layers
# do not account for must stay within the cost of tracing.
FULLY_TRACED = ("classify-p37",)
QUERY_KINDS = ("period", "spectrum", "stabilizer")


class ChildFailed(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run one child on ``job``; add its setup time, peak RSS and elapsed time."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass
        output = proc.stdout.read().decode(errors="replace")
        proc.stdout.close()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    ended = time.monotonic()
    lines = output.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}:\n{output[-4000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    result["elapsed_s"] = ended - spawned
    return result


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(q for q in range(0, 100) if n - math.ceil(q / 100 * n) >= 10) if n > 10 else 0


def query_latencies(calls, results) -> dict:
    """Latency samples in ms per query kind, over the given children."""
    samples = {kind: [] for kind in QUERY_KINDS}
    for result in results:
        for (op, _, _), outcome in zip(calls, result["calls"]):
            if op in samples:
                samples[op].append(outcome["latency_s"] * 1000)
    return samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload: spawn children on one job until ``seconds`` pass."""
    OUT.mkdir(exist_ok=True)
    probe = {"calls": [], "trace": False}
    spawn(probe)  # bytecode written and files cached before anything is timed
    probes = [spawn(probe) for _ in range(SETUP_PROBES)]
    calls = job_calls(workload, seed)
    job = {"calls": calls, "spans_path": str(OUT / f"spans_{workload}_seed{seed}.json")}

    untraced, traced = [], []
    problems = []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    longest = 0.0
    while True:
        tracing = trace and len(untraced) > len(traced)
        result = spawn(dict(job, trace=tracing))
        (traced if tracing else untraced).append(result)
        longest = max(longest, result["elapsed_s"])
        for (op, p, arg), outcome in zip(calls, result["calls"]):
            problems += check_call(op, p, arg, outcome["code"], outcome["answer"])
            ops = operations(op, outcome["answer"])
            attempted += ops
            failed += ops if outcome["code"] else 0
        enough = len(untraced) >= 2 and (not trace or traced)
        if enough and time.monotonic() + longest > deadline:
            break

    env = probes[0]["env"]
    if Path(env["extremalav"]).resolve() != (SRC / "extremalav").resolve():
        problems.append(f"measured {env['extremalav']}, not the checkout's source")
    samples = query_latencies(calls, untraced)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "mix": dict(Counter(op for op, _, _ in calls)),
        "children": [{"traced": tracing, "setup_s": r["setup_s"], "wall_s": r["wall_s"],
                      "peak_rss_mb": r["peak_rss_mb"],
                      "latency_s": [c["latency_s"] for c in r["calls"]]}
                     for tracing, group in ((False, untraced), (True, traced)) for r in group],
        "setup_probes_s": [r["setup_s"] for r in probes],
        "attempted": attempted, "failed": failed, "fail_share": failed / attempted,
        "samples": {kind: len(v) for kind, v in samples.items()},
        "tail_percentile": {kind: tail_percentile(len(v)) for kind, v in samples.items()},
        "problems": problems,
    }
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in probes + untraced + traced),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    for kind, values in samples.items():
        tail = report["tail_percentile"][kind]
        metrics[f"cli.{kind}_p50_ms"] = statistics.median(values) if values else 0.0
        metrics[f"cli.{kind}_p90_ms"] = percentile(values, 90) if values else 0.0
        metrics[f"cli.{kind}_tail_ms"] = percentile(values, tail) if values else 0.0
        metrics[f"cli.{kind}_n"] = len(values)
    metrics["cli.fail_share"] = report["fail_share"]

    if trace:
        layers = [r["layers"] for r in traced]
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name in EXACT and len(set(values)) > 1:
                problems.append(f"exact count {name} differs between traced runs: {values}")
            metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - metrics["wall_s"])
        if workload in FULLY_TRACED:
            allowance = max(metrics["trace.overhead_s"], 0.01 * metrics["wall_s"])
            if metrics["trace.unattributed_s"] > allowance:
                problems.append(f"layer self times leave {metrics['trace.unattributed_s']:.3f} s "
                                f"of {metrics['wall_s']:.3f} s unattributed, over the "
                                f"allowance {allowance:.3f} s")
    report["metrics"] = metrics
    return report


def print_report(report: dict, names: list) -> None:
    env = report["env"]
    traced = sum(child["traced"] for child in report["children"])
    print(f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}  "
          f"children {len(report['children']) - traced} untraced, {traced} traced, "
          f"{len(report['setup_probes_s'])} setup probes")
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas_threads={env['blas_threads']}")
    print(f"calls per child {report['mix']}")
    print(f"operations attempted {report['attempted']} failed {report['failed']} "
          f"fail_share {report['fail_share']:.4f}")
    m = report["metrics"]
    for kind in QUERY_KINDS:
        n = report["samples"][kind]
        if n:
            print(f"{kind} latency p50 {m[f'cli.{kind}_p50_ms']:.3f} ms  "
                  f"p90 {m[f'cli.{kind}_p90_ms']:.3f} ms  "
                  f"p{report['tail_percentile'][kind]} {m[f'cli.{kind}_tail_ms']:.3f} ms  (n={n})")
    for name in names:
        print(f"{name} = {m[name]:.6g} {UNITS[name]}")
    for problem in report["problems"][:20]:
        print(f"WRONG: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "extremalav" / "__init__.py").is_file():
        print(f"error: no extremalav source under {SRC}", file=sys.stderr)
        return 2

    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    print_report(report, names)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": UNITS[name]}
                    for name in names},
    }))
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
