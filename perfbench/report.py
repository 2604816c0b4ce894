"""Run every workload untraced and traced; print and record the profile.

Usage (from the repository root)::

    python3 perfbench/report.py

Every workload of ``perfbench/workloads.py``, including those that
``BENCHMARK.json`` does not list, runs in fresh processes of
``perfbench/run.py`` with seed :data:`SEED` for the ``run_seconds`` of
``BENCHMARK.json``, once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1``
(per-layer metrics and each layer's share of the traced wall time).
Their tables are echoed as they run, so this one command prints every
metric by name with its unit.  The collected numbers, the machine they
were measured on and the layer → end-to-end map are written to
``perfbench/profile.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import run  # noqa: E402

SEED = 1


def _machine() -> dict:
    import numpy

    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith("profile: "):
            print(line)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}")
    profile = next(
        (json.loads(line[len("profile: "):]) for line in lines if line.startswith("profile: ")),
        None,
    )
    return json.loads(lines[-1]), profile


def main() -> int:
    run._import_path()
    from perfbench.layers import LAYER_TO_END_TO_END
    from perfbench.workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    profile = {
        "machine": _machine(),
        "seed": SEED,
        "seconds": seconds,
        "layer_to_end_to_end": LAYER_TO_END_TO_END,
        "workloads": {},
    }
    whys = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    for name, workload in WORKLOADS.items():
        untraced, _ = _run(name, SEED, seconds, 0)
        _, layers = _run(name, SEED, seconds, 1)
        shares = {k: round(v, 4) for k, v in layers["shares"].items()}
        ranked = sorted((v, k) for k, v in shares.items() if not k.startswith("("))
        profile["workloads"][name] = {
            "in_benchmark_json": name in whys,
            "why": whys.get(name, " ".join(workload.__doc__.split("\n\n")[0].split())),
            "task": workload.task,
            "most_work": [k for _, k in ranked[::-1][:3]],
            "least_work": [k for v, k in ranked if v > 0][:3],
            "wall_share": shares,
            "end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
            "per_layer": layers["metrics"],
        }
    out = HERE / "profile.json"
    out.write_text(json.dumps(profile, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
