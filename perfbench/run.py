"""weightlab benchmark: one client, closed loop, in-process CLI requests.

    python3 perfbench/run.py --workload toric-ss --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment.  Exits 2,
printing no result, when the checkout has no weightlab sources.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass

import harness
from harness import Inputs, WORKLOADS
from tracer import Tracer


@dataclass(frozen=True)
class _Pass:
    seconds: float          # summed request latencies
    norm: float             # summed latencies in reference-loop units
    largest_seconds: float  # the workload's largest request
    largest_norm: float


def _setup(workload, inputs: Inputs):
    """Import weightlab afresh, write one pass of documents, make the
    warm-up request; returns (seconds, cli module, warm-up outcome)."""
    t0 = time.perf_counter()
    cli = harness.load_program()
    docs = inputs.fresh()
    request = next(r for r in workload.requests if r.label == workload.warmup)
    warm = harness.call(cli, request.argv(docs[request.label][0]), request.label)
    return time.perf_counter() - t0, cli, warm


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        expected: dict[str, str] | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, environment record).

    Every pass follows a set-up of its own, so set-ups are spread over the
    run like the passes and setup_s is the median of all of them.
    """
    harness.require_program()
    os.environ.pop("WEIGHTLAB_THREADS", None)
    workload = WORKLOADS[workload_name]
    expected = harness.load_expected() if expected is None else expected
    workdir = harness.workdir_for()
    problems: list[str] = []
    try:
        inputs = Inputs(workload, seed, workdir)
        setup_times = []
        tracer = Tracer() if trace else None
        untraced: list[_Pass] = []
        traced: list[_Pass] = []
        snapshots = []
        references: list[float] = []
        attempted = failed = 0
        threads_max = threading.active_count()
        first = None
        start = time.perf_counter()
        rounds = 0
        while True:
            for with_trace in ((False, True) if trace else (False,)):
                took, cli, warm = _setup(workload, inputs)
                setup_times.append(took)
                if (why := harness.gate(warm, expected)) is not None:
                    problems.append(f"warm-up {warm.label}: {why}")
                docs = inputs.fresh()
                gc.collect()
                if with_trace:
                    tracer.reset()
                    tracer.install()
                try:
                    outcomes = harness.run_pass(cli, workload, docs)
                finally:
                    if with_trace:
                        tracer.uninstall()
                threads_max = max(threads_max, threading.active_count())
                if with_trace:
                    snapshots.append(tracer.snapshot())
                references += [o.ref for o in outcomes]
                for o in outcomes:
                    attempted += 1
                    if (why := harness.gate(o, expected)) is not None:
                        failed += 1
                        problems.append(f"{o.label}: {why}")
                if first is None:
                    first = (outcomes, docs)
                largest = next(o for o in outcomes if o.label == workload.largest)
                (traced if with_trace else untraced).append(_Pass(
                    sum(o.seconds for o in outcomes), sum(o.norm for o in outcomes),
                    largest.seconds, largest.norm))
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                break

        problems += harness.semantic_problems(*first)
        problems += harness.environment_problems()
    finally:
        shutil.rmtree(workdir)

    if trace:
        metrics = _per_layer(snapshots, untraced, traced)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_norm": (statistics.median(p.norm for p in untraced), "ref"),
            "largest_request_norm": (
                statistics.median(p.largest_norm for p in untraced), "ref"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "passes": len(untraced) + len(traced),
        "fail_ratio": failed / attempted,
        "pass_s": statistics.median(p.seconds for p in untraced),
        "largest_request_s": statistics.median(p.largest_seconds for p in untraced),
        "reference_s": statistics.median(references),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "processes": 1, "threads_max": threads_max,
        "WEIGHTLAB_THREADS": os.environ.get("WEIGHTLAB_THREADS", "unset"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        "problems": problems[:20],
    }
    return result, env


def _per_layer(snapshots, untraced, traced) -> dict[str, tuple[float, str]]:
    """Medians of per-pass times over the traced passes; counts from the
    first traced pass, with the number of passes whose counts differ."""
    out: dict[str, tuple[float, str]] = {}
    for key in snapshots[0]:
        if key.endswith("_s") or key.endswith(".s"):
            out[key] = (statistics.median(s[key] for s in snapshots), "s")
        elif key.endswith("_ratio"):
            out[key] = (snapshots[0][key], "ratio")
        else:
            out[key] = (snapshots[0][key], "count")
    counts = [{k: v for k, v in s.items() if out[k][1] != "s"} for s in snapshots]
    out["trace.count_mismatch_passes"] = (sum(c != counts[0] for c in counts), "count")
    out["trace.overhead_ratio"] = (
        statistics.median(p.norm for p in traced) / statistics.median(p.norm for p in untraced),
        "ratio")
    return out


class Terminated(BaseException):
    """SIGTERM arrived; raised past the request handler so that run()
    still removes its input documents."""


def _terminate(signum, frame):
    raise Terminated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        return 143
    for why in env["problems"]:
        print(f"perfbench: {why}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
