"""Per-layer tracing from the benchmark's side of each layer boundary.

:class:`LayerTrace` wraps the public functions of every layer on the
job path *at the binding its caller resolves* (module attributes such
as ``repro.qpu.device.sample_counts`` and ``repro.compiler.jit.transpile``,
class methods for the layers called through objects), records calls and
wall time per layer, and restores every original binding on exit.  A layer's self
time is its time minus the time of wrapped layers it called.  Engine
phases come from the ``ExecutionReport`` the flight recorder attaches to
each finished job (``job.payload["execution_report"]``); nothing here
adds a span inside the stack.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.compiler.jit
import repro.middleware.rest
import repro.qpu.device
import repro.simulator.sampler
from repro.compiler.jit import JITCompiler
from repro.compiler.plans import plan_cache_info
from repro.hybrid.qaoa import QAOA
from repro.hybrid.vqe import VQE
from repro.middleware.client import MQSSClient
from repro.middleware.rest import RestServer
from repro.qdmi.interface import QDMISession
from repro.qpu.device import QPUDevice
from repro.qpu.params import CalibrationSnapshot
from repro.scheduler.qrm import QuantumResourceManager

#: Report phases (``ExecutionReport.phase_seconds``) that cover disjoint
#: parts of a sampling run.  ``engine.blocked_sweep`` runs inside an
#: advance window, so it is not listed.
ADVANCE_PHASES = ("engine.advance_window", "engine.batched_window", "engine.mps_window")
COVERED_PHASES = (
    "resilience.admission",
    "plan.lookup",
    "plan.compile",
    "sampler.realizations",
    "engine.prepare",
    *ADVANCE_PHASES,
    "sampler.readout",
)

#: Engines whose routing counts are reported as ``engine.routed.<name>``.
ROUTED_ENGINES = ("dense", "tableau")

#: Which end-to-end metric each layer metric should move, on which
#: workload (the layer → end-to-end map of the benchmark's design).
LAYER_TO_END_TO_END = {
    "rest.*": "job_latency_p50_ms on rest_clifford_health",
    "qrm.*": "job_latency_tail_ms on rest_clifford_health",
    "jit.*": "job_latency_p50_ms on hpc_vqe_h2 (every job misses) and "
    "rest_clifford_health (hit/miss mix)",
    "transpile.*": "job_latency_p50_ms on hpc_vqe_h2",
    "device.*": "job_latency_p50_ms on hpc_vqe_h2",
    "sampler.calls/s/shots, engine.routed.*": "shots_per_s on rest_clifford_health "
    "and hpc_qaoa_sweep",
    "engine.advance_s, sampler.realizations_s/readout_s/trajectory_groups/"
    "unattributed_s": "shots_per_s on hpc_qaoa_sweep; job_latency_tail_ms on "
    "rest_clifford_health",
    "plan.*, plans.hit_ratio": "job_latency_p50_ms on hpc_vqe_h2",
    "hybrid.classical_s": "task_p50_ms (one VQE.energy call) on hpc_vqe_h2",
}

Hook = Callable[[Any, tuple, dict, float], None]


class LayerTrace:
    """Context manager: wrap every layer binding, collect, restore."""

    def __init__(self) -> None:
        #: layer -> [calls, total seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        self._children: List[float] = []
        self._saved: List[Tuple[Any, str, Any, bool]] = []
        self.swaps = 0
        self.shots = 0
        self.routed: Dict[str, int] = {}
        self._submitted: Dict[int, float] = {}
        self.queue_waits: List[float] = []

    # -- bindings ----------------------------------------------------------

    def _targets(self) -> List[Tuple[Any, str, str, Optional[Hook]]]:
        return [
            (RestServer, "post_job", "rest", None),
            (RestServer, "post_batch", "rest", None),
            (RestServer, "get_job", "rest", None),
            (RestServer, "list_jobs", "rest", None),
            (RestServer, "get_device", "rest", None),
            (RestServer, "process", "rest.worker", None),
            (repro.middleware.rest, "circuit_to_dict", "rest.codec", None),
            (repro.middleware.rest, "circuit_from_dict", "rest.codec", None),
            (MQSSClient, "run", "client", None),
            (QuantumResourceManager, "submit", "qrm", self._on_submit),
            (QuantumResourceManager, "run_next", "qrm", self._on_run_next),
            (QuantumResourceManager, "calibration_slot", "qrm.calibration", None),
            (JITCompiler, "compile", "jit", None),
            (JITCompiler, "to_logical_circuit", "jit.lower", None),
            (QDMISession, "query", "qdmi", None),
            (repro.compiler.jit, "transpile", "transpile", self._on_transpile),
            (QPUDevice, "execute", "device", None),
            (QPUDevice, "calibration", "device.snapshot", None),
            (QPUDevice, "estimate_durations", "device.schedule", None),
            (CalibrationSnapshot, "as_noise_model", "device.noise_model", None),
            (repro.qpu.device, "sample_counts", "sampler", self._on_sample),
            (repro.simulator.sampler, "select_engine", "sampler.route", self._on_route),
            (VQE, "energy", "hybrid", None),
            (QAOA, "expected_cut", "hybrid", None),
        ]

    def __enter__(self) -> "LayerTrace":
        for owner, attr, layer, hook in self._targets():
            raw = inspect.getattr_static(owner, attr)
            own = attr in vars(owner)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, layer, hook))
            else:
                wrapped = self._wrap(raw, layer, hook)
            self._saved.append((owner, attr, raw, own))
            setattr(owner, attr, wrapped)
        self._plans_before = plan_cache_info()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._plans_after = plan_cache_info()
        while self._saved:
            owner, attr, raw, own = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        return False

    def _wrap(self, fn: Callable, layer: str, hook: Optional[Hook]) -> Callable:
        stats = self.layers.setdefault(layer, [0, 0.0, 0.0])
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                inner = children.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if hook is not None:
                hook(result, args, kwargs, started)
            return result

        wrapper.__perfbench_layer__ = layer
        return wrapper

    # -- hooks -------------------------------------------------------------

    def _on_submit(self, job, args, kwargs, started) -> None:
        self._submitted[job.job_id] = started

    def _on_run_next(self, job, args, kwargs, started) -> None:
        if job is not None and job.job_id in self._submitted:
            self.queue_waits.append(started - self._submitted.pop(job.job_id))

    def _on_transpile(self, result, args, kwargs, started) -> None:
        self.swaps += int(result.swap_count)

    def _on_sample(self, counts, args, kwargs, started) -> None:
        self.shots += int(args[1] if len(args) > 1 else kwargs["shots"])

    def _on_route(self, engine_cls, args, kwargs, started) -> None:
        self.routed[engine_cls.name] = self.routed.get(engine_cls.name, 0) + 1

    # -- metrics -----------------------------------------------------------

    def total(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[1]

    def self_time(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[2]

    def calls(self, layer: str) -> int:
        return int(self.layers.get(layer, [0, 0.0, 0.0])[0])

    def metrics(
        self,
        *,
        wall: float,
        untraced_wall: float,
        reports: List[Dict[str, Any]],
        stack: Any,
        requests: int,
        qrm_before: Tuple[int, int],
        jit_before: Tuple[int, int],
    ) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        phases: Dict[str, float] = {}
        groups = 0
        for report in reports:
            for name, secs in report["phase_seconds"].items():
                phases[name] = phases.get(name, 0.0) + secs
            groups += int(report["counters"].get("sampler.trajectory_groups", 0))
        covered = sum(phases.get(name, 0.0) for name in COVERED_PHASES)
        hits = stack.qrm.jit.cache_hits - jit_before[0]
        misses = stack.qrm.jit.cache_misses - jit_before[1]
        plan_hits = self._plans_after["hits"] - self._plans_before["hits"]
        plan_misses = self._plans_after["misses"] - self._plans_before["misses"]
        attributed = sum(stats[2] for stats in self.layers.values())
        return {
            "rest.requests": (requests, "count"),
            "rest.endpoint_s": (self.total("rest"), "s"),
            "rest.codec_s": (self.total("rest.codec"), "s"),
            "qrm.queue_wait_ms_p50": (
                1e3 * statistics.median(self.queue_waits) if self.queue_waits else 0.0,
                "ms",
            ),
            "qrm.self_s": (self.self_time("qrm"), "s"),
            "qrm.jobs_failed": (stack.qrm.stats.jobs_failed - qrm_before[0], "count"),
            "qrm.jobs_requeued": (stack.qrm.stats.jobs_requeued - qrm_before[1], "count"),
            "qrm.calibration_s": (self.total("qrm.calibration"), "s"),
            "jit.compile_s": (self.total("jit"), "s"),
            "jit.lower_s": (self.total("jit.lower"), "s"),
            "jit.cache_hit_ratio": (hits / max(1, hits + misses), "ratio"),
            "transpile.calls": (self.calls("transpile"), "count"),
            "transpile.s": (self.total("transpile"), "s"),
            "transpile.swaps": (self.swaps, "count"),
            "device.self_s": (self.self_time("device"), "s"),
            "device.snapshot_calls": (self.calls("device.snapshot"), "count"),
            "device.snapshot_s": (self.total("device.snapshot"), "s"),
            "device.noise_model_s": (self.total("device.noise_model"), "s"),
            "device.schedule_s": (self.total("device.schedule"), "s"),
            "sampler.calls": (self.calls("sampler"), "count"),
            "sampler.s": (self.total("sampler"), "s"),
            "sampler.shots": (self.shots, "count"),
            **{
                f"engine.routed.{name}": (self.routed.get(name, 0), "count")
                for name in ROUTED_ENGINES
            },
            "engine.advance_s": (sum(phases.get(p, 0.0) for p in ADVANCE_PHASES), "s"),
            "sampler.realizations_s": (phases.get("sampler.realizations", 0.0), "s"),
            "sampler.readout_s": (phases.get("sampler.readout", 0.0), "s"),
            "sampler.trajectory_groups": (groups, "count"),
            "sampler.unattributed_s": (self.total("sampler") - covered, "s"),
            "plan.lookup_s": (phases.get("plan.lookup", 0.0), "s"),
            "plan.compile_s": (phases.get("plan.compile", 0.0), "s"),
            "plans.hit_ratio": (plan_hits / max(1, plan_hits + plan_misses), "ratio"),
            "hybrid.classical_s": (self.self_time("hybrid"), "s"),
            "unattributed_s": (wall - attributed, "s"),
            "trace.overhead_frac": (wall / untraced_wall - 1.0, "ratio"),
        }

    def shares(self, wall: float) -> Dict[str, float]:
        """Self time of each layer as a share of the traced wall time."""
        out = {layer: stats[2] / wall for layer, stats in sorted(self.layers.items())}
        out["(unattributed)"] = 1.0 - sum(out.values())
        return out
