"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rest_clifford_health --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` runs the same rounds twice on fresh stacks, untraced for
half of ``--seconds`` and then traced, and reports the per-layer
metrics, each layer's share of the traced wall time and the tracing
overhead.  Every metric is printed by name with its unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` lists for the mode.
Output checks gate the run: any failing job makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh interpreters whose set-up time ``setup_s`` takes the median of.
SETUP_PROBES = 5
#: Samples that should lie beyond the reported tail latency.  Each
#: workload's ``tail_pct`` is the highest of p50/75/90/95/99/99.9 that
#: keeps this many beyond it at the job counts its runs reach.
TAIL_BEYOND = 10
#: One BLAS thread: the benchmark is one single-threaded client process.
#: OpenBLAS's threads gave the 20-qubit dense jobs no speed-up on the
#: 2-vCPU reference box, only a second busy core and noisier timings.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_path() -> None:
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup_probe(name: str, seed: int) -> None:
    """Body of one set-up probe: everything a fresh process does before
    its first timed request, then print the monotonic clock."""
    from perfbench.workloads import WORKLOADS, fresh_stack

    workload = WORKLOADS[name](seed)
    fresh_stack(workload)
    workload.describe(workload.round_inputs(0))
    print(time.monotonic())


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time of :data:`SETUP_PROBES` fresh interpreters, each
    timed from spawn to ready with the system-wide monotonic clock."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(ROOT)!r}]; "
        f"from perfbench.run import setup_probe; setup_probe({name!r}, {seed})"
    )
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.split()[-1]) - spawned)
    return statistics.median(times)


def tail(latencies: Sequence[float], pct: float) -> Tuple[float, int]:
    """``(value, beyond)``: the nearest-rank *pct* percentile and the
    number of samples beyond it.

    The percentile is fixed per workload rather than chosen per run from
    the sample count: a run that completes more jobs, on a faster box or
    with faster code, would otherwise step to a higher percentile and
    report a worse tail.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, -(-round(pct * 10) * n // 1000))  # ceil(pct% of n), exactly
    return ordered[rank - 1], n - rank


def _contract() -> Dict[str, Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def _print_table(title: str, rows: Dict[str, Tuple[float, str]]) -> None:
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")


def run_untraced(workload, seconds: float) -> Tuple[Dict, int, int, List[str]]:
    from perfbench.workloads import drive, fresh_stack

    stack = fresh_stack(workload)
    out, wall = drive(workload, stack, seconds=seconds)
    out.run_checks()
    done = out.jobs - out.failed_jobs
    lat_tail, beyond = tail(out.job_latencies, workload.tail_pct)
    metrics = {
        "setup_s": (measure_setup(workload.name, workload.seed), "s"),
        "job_latency_p50_ms": (1e3 * statistics.median(out.job_latencies), "ms"),
        "job_latency_tail_ms": (1e3 * lat_tail, "ms"),
        "jobs_per_s": (done / wall, "1/s"),
        "shots_per_s": (out.shots / wall, "1/s"),
        "task_p50_ms": (1e3 * statistics.median(out.task_latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    _print_table(f"{workload.name}: end-to-end (untraced)", metrics)
    print(f"  {'failed_frac':<28} {out.failed_jobs / max(1, out.jobs):>14.6g} ratio")
    print(f"  tail = p{workload.tail_pct:g} of N={len(out.job_latencies)} job latencies, "
          f"{beyond} beyond it; task = {workload.task}")
    if beyond < TAIL_BEYOND:
        print(f"  note: fewer than {TAIL_BEYOND} job latencies lie beyond the tail")
    print(f"  rounds={out.rounds} jobs={out.jobs} wall_s={wall:.3f}")
    print(f"  inputs_digest={out.inputs.hexdigest()[:16]} "
          f"outputs_digest={out.outputs.hexdigest()[:16]}")
    return metrics, out.jobs, out.failed_jobs, out.failures


def run_traced(workload, seconds: float) -> Tuple[Dict, int, int, List[str]]:
    from repro.simulator import sampler
    from perfbench.layers import LayerTrace
    from perfbench.workloads import drive, fresh_stack

    stack = fresh_stack(workload)
    untraced, untraced_wall = drive(workload, stack, seconds=seconds / 2)
    stack = fresh_stack(workload)
    qrm_before = (stack.qrm.stats.jobs_failed, stack.qrm.stats.jobs_requeued)
    jit_before = (stack.qrm.jit.cache_hits, stack.qrm.jit.cache_misses)
    requests_before = stack.server.requests_served
    history_before = len(stack.qrm.history)
    with LayerTrace() as trace, sampler.engine_mode(sampler.ENGINE, trace=True):
        traced, wall = drive(workload, stack, rounds=untraced.rounds)
    reports = [
        job.payload["execution_report"]
        for job in stack.qrm.history[history_before:]
        if "execution_report" in job.payload
    ]
    metrics = trace.metrics(
        wall=wall,
        untraced_wall=untraced_wall,
        reports=reports,
        stack=stack,
        requests=stack.server.requests_served - requests_before,
        qrm_before=qrm_before,
        jit_before=jit_before,
    )
    failures: List[str] = []
    for out in (untraced, traced):
        out.run_checks()
        failures += out.failures
    failed = untraced.failed_jobs + traced.failed_jobs
    if untraced.outputs.hexdigest() != traced.outputs.hexdigest():
        failures.append("traced run's counts differ from the untraced run's")
        failed += traced.jobs
    _print_table(f"{workload.name}: per layer (traced, {untraced.rounds} rounds)", metrics)
    shares = trace.shares(wall)
    print("== share of traced wall time (layer self time)")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<28} {100 * share:>8.2f} %")
    print(f"  traced_wall_s={wall:.3f} untraced_wall_s={untraced_wall:.3f} "
          f"reports={len(reports)} jobs={traced.jobs}")
    print("profile: " + json.dumps(
        {"shares": shares, "metrics": {k: v for k, (v, _) in metrics.items()}}
    ))
    return metrics, untraced.jobs + traced.jobs, failed, failures


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    _import_path()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, failures = runner(workload, args.seconds)
    for reason in failures[:10]:
        print(f"  CHECK FAILED: {reason}")
    wanted = _contract()["per_layer" if args.trace else "end_to_end"]
    for name, unit in wanted.items():
        if metrics[name][1] != unit:
            raise ValueError(f"{name} is measured in {metrics[name][1]}, not {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": u} for name, u in wanted.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
