"""The three seeded workloads and the closed-loop runner that times them.

Every workload is a closed loop with one client: it sends its next
request only after the previous reply.  Inputs are generated here from
the workload seed alone (:func:`_rng`); the stack under test receives
only the generated circuits, shot counts and parameter vectors.  The
device itself is part of the system under test, not of the input, so
it is always ``QPUDevice(seed=DEVICE_SEED)``.

A run is a sequence of *rounds* (one health-check round, one SPSA
chain, one QAOA sweep step).  Rounds are started while the time budget
lasts and always finish, so every run executes whole rounds; output
checks run after the timed loop and never count toward latency.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.circuits.circuit import QuantumCircuit, ghz_circuit
from repro.circuits.serialize import circuit_to_dict
from repro.compiler.plans import plan_cache_clear
from repro.errors import JobTimeoutError, RestApiError, RoutingError
from repro.hybrid.observables import h2_hamiltonian
from repro.hybrid.optimizers import spsa_minimize
from repro.hybrid.qaoa import QAOA
from repro.hybrid.vqe import VQE
from repro.middleware.client import MQSSClient
from repro.middleware.rest import RestClient, RestServer
from repro.qpu.device import QPUDevice
from repro.scheduler.qrm import QuantumResourceManager
from repro.simulator.sampler import ideal_probabilities

from perfbench import checks

#: The paper's device bench seed (Section 2.4 bandwidth benchmark).
DEVICE_SEED = 314


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *key])


@dataclass
class Stack:
    """One freshly built device stack: what a user's process talks to."""

    device: QPUDevice
    qrm: QuantumResourceManager
    server: RestServer
    rest: RestClient
    hpc: MQSSClient


def build_stack() -> Stack:
    device = QPUDevice(seed=DEVICE_SEED)
    qrm = QuantumResourceManager(device)
    server = RestServer(qrm)
    return Stack(device, qrm, server, RestClient(server), MQSSClient(qrm, context="hpc"))


@dataclass
class Outcome:
    """What one timed run produced: latencies, counts, deferred checks."""

    job_latencies: List[float] = field(default_factory=list)
    task_latencies: List[float] = field(default_factory=list)
    shots: int = 0
    jobs: int = 0
    failed_jobs: int = 0
    failures: List[str] = field(default_factory=list)
    #: (jobs covered, check) pairs, evaluated after the timed loop.
    pending: List[Tuple[int, Callable[[], Optional[str]]]] = field(default_factory=list)
    rounds: int = 0
    inputs: Any = field(default_factory=lambda: hashlib.sha256())
    outputs: Any = field(default_factory=lambda: hashlib.sha256())

    def job_done(self, latency: float, shots: int, counts: Dict[str, int]) -> None:
        self.job_latencies.append(latency)
        self.jobs += 1
        self.shots += shots
        self.outputs.update(json.dumps(sorted(counts.items())).encode())

    def job_failed(self, reason: str) -> None:
        self.jobs += 1
        self.failed_jobs += 1
        self.failures.append(reason)

    def run_checks(self) -> None:
        for jobs, check in self.pending:
            reason = check()
            if reason is not None:
                self.failed_jobs += jobs
                self.failures.append(reason)
        self.pending.clear()


def _digest(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Workload:
    """Base class: seeded inputs per round plus the code that runs a round."""

    name = ""
    #: The user-level request a client waits on, timed as ``task_p50_ms``.
    task = ""
    #: Percentile reported as ``job_latency_tail_ms`` (see ``run.tail``).
    tail_pct = 50.0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def round_inputs(self, r: int) -> Any:
        raise NotImplementedError

    def describe(self, inputs: Any) -> Any:
        """JSON-ready form of one round's inputs, for the input digest."""
        return inputs

    def warm_up(self, stack: Stack) -> None:
        raise NotImplementedError

    def run_round(self, stack: Stack, r: int, inputs: Any, out: Outcome) -> None:
        raise NotImplementedError

    def inputs_digest(self, rounds: int) -> str:
        h = hashlib.sha256()
        for r in range(rounds):
            h.update(_digest(self.describe(self.round_inputs(r))))
        return h.hexdigest()[:16]


def fresh_stack(workload: Workload) -> Stack:
    """A new stack with an empty plan cache, warmed by one small job."""
    plan_cache_clear()
    stack = build_stack()
    workload.warm_up(stack)
    return stack


def drive(
    workload: Workload,
    stack: Stack,
    *,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
) -> Tuple[Outcome, float]:
    """Run whole rounds until *seconds* have passed (or exactly *rounds*
    rounds); returns the outcome and the wall time of the timed loop."""
    out = Outcome()
    started = time.perf_counter()
    r = 0
    while True:
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        inputs = workload.round_inputs(r)
        out.inputs.update(_digest(workload.describe(inputs)))
        workload.run_round(stack, r, inputs, out)
        r += 1
    wall = time.perf_counter() - started
    out.rounds = r
    return out, wall


# ---------------------------------------------------------------------------
# rest_clifford_health
# ---------------------------------------------------------------------------


def random_clifford(rng: np.random.Generator, width: int, layers: int) -> QuantumCircuit:
    """A random Clifford brickwork circuit, measured.

    Each layer draws a gate from {H, S, S†, X, Z} for every qubit, then a
    CX or CZ (random direction) on every other neighbour pair of a line.
    The seed draws the gates; the interaction graph is always the same
    line, so every seed routes alike and a job's cost depends on its
    width, not on where the router's swap paths happen to go.
    """
    qc = QuantumCircuit(width, name=f"clifford{width}x{layers}")
    for layer in range(layers):
        for q in range(width):
            qc.append(str(rng.choice(["h", "s", "sdg", "x", "z"])), [q])
        for a in range(layer % 2, width - 1, 2):
            pair = [a, a + 1] if rng.random() < 0.5 else [a + 1, a]
            qc.append(str(rng.choice(["cx", "cz"])), pair)
    qc.measure_all()
    return qc


@dataclass(frozen=True)
class RestBatch:
    kind: str  # "ghz" | "clifford"
    circuits: Tuple[QuantumCircuit, ...]
    shots: int


class RestCliffordHealth(Workload):
    """REST batches of GHZ health checks and random Clifford user jobs.

    A round submits the health-check batch (full chip first, then
    shrinking subsets, the same suite every round so JIT lookups hit
    until a calibration slot) and then a user batch of random Clifford
    circuits, half of them resubmitted from a per-run pool.  Every job
    is polled with ``GET /jobs/{id}``; dashboard reads (``GET /device``,
    two ``GET /jobs`` pages) sit beside the writes.  A quick calibration
    slot runs after every :data:`SLOT_EVERY` rounds.
    """

    name = "rest_clifford_health"
    task = "one health-check round: both batches and the dashboard reads"
    #: A 50 s run completes 117–169 jobs (13 a round); p95 would need 200.
    tail_pct = 90.0

    #: The full-chip GHZ costs ~4 s per 32 shots on the dense engine, so
    #: the suite runs at 32 shots to fit five rounds in a run.
    HEALTH_SHOTS = 32
    USER_SHOTS = 512
    SLOT_EVERY = 2
    #: Widths of the per-run pool of resubmitted user circuits, and of
    #: the fresh user circuits of every round.  Widths (and so cost) are
    #: fixed by position; the seed draws the gates.
    POOL_WIDTHS = (3, 4, 5, 6, 7, 8)
    FRESH_WIDTHS = (4, 5, 6, 7)
    LAYERS = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = _rng(seed, 0)
        # Full chip first: the rest of the batch queues behind it.
        widths = (
            20,
            16,
            int(rng.integers(9, 13)),
            int(rng.integers(5, 9)),
            int(rng.integers(2, 5)),
        )
        self.health = RestBatch(
            "ghz",
            tuple(ghz_circuit(w, name=f"ghz{w}-health") for w in widths),
            self.HEALTH_SHOTS,
        )
        self.pool = [random_clifford(rng, w, self.LAYERS) for w in self.POOL_WIDTHS]

    def round_inputs(self, r: int) -> Tuple[RestBatch, RestBatch]:
        """The health suite, then fresh and pooled user circuits
        alternately; the pool is cycled so every round resubmits."""
        rng = _rng(self.seed, 1, r)
        user = []
        for i, width in enumerate(self.FRESH_WIDTHS):
            user.append(random_clifford(rng, width, self.LAYERS))
            user.append(self.pool[(r * len(self.FRESH_WIDTHS) + i) % len(self.pool)])
        return self.health, RestBatch("clifford", tuple(user), self.USER_SHOTS)

    def describe(self, inputs):
        return [
            [b.kind, b.shots, [circuit_to_dict(c) for c in b.circuits]] for b in inputs
        ]

    def warm_up(self, stack: Stack) -> None:
        job_id = stack.rest.submit(ghz_circuit(2, name="warm-up"), shots=64)
        stack.rest.wait(job_id)

    def run_round(self, stack: Stack, r: int, inputs, out: Outcome) -> None:
        started = time.perf_counter()
        for batch in inputs:
            stack.rest.device_info()
            self._batch(stack, batch, out)
            stack.rest.list_jobs(offset=0, limit=20)
            stack.rest.list_jobs(offset=20, limit=20)
        out.task_latencies.append(time.perf_counter() - started)
        if (r + 1) % self.SLOT_EVERY == 0:
            stack.qrm.calibration_slot("quick")

    @staticmethod
    def _batch(stack: Stack, batch: RestBatch, out: Outcome) -> None:
        posted = time.perf_counter()
        try:
            ids = stack.rest.submit_batch(batch.circuits, shots=batch.shots, user=batch.kind)
        except RestApiError as exc:
            for _ in batch.circuits:
                out.job_failed(f"batch refused: {exc}")
            return
        for circuit, job_id in zip(batch.circuits, ids):
            try:
                body = stack.rest.wait(job_id)
            except (RestApiError, JobTimeoutError) as exc:
                out.job_failed(f"job {job_id}: {exc}")
                continue
            latency = time.perf_counter() - posted
            counts = {k: int(v) for k, v in body["counts"].items()}
            out.job_done(latency, batch.shots, counts)
            out.pending.append((1, _rest_check(batch, circuit, counts, job_id)))


def _rest_check(batch: RestBatch, circuit: QuantumCircuit, counts, job_id: int):
    if batch.kind == "ghz":
        return lambda: checks.check_ghz(counts, circuit.num_qubits, batch.shots)
    return lambda: checks.check_distribution(
        counts,
        ideal_probabilities(circuit),
        batch.shots,
        checks.clifford_noise_tvd(circuit.num_qubits),
        seed=(job_id, batch.shots),
    )


# ---------------------------------------------------------------------------
# HPC workloads
# ---------------------------------------------------------------------------


class _HpcWorkload(Workload):
    """Shared HPC-path executor: ``MQSSClient(context="hpc").run`` timed
    per call as the job latency."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._stack: Optional[Stack] = None
        self._out = Outcome()
        self._jobs: List[Tuple[QuantumCircuit, Dict[str, int]]] = []

    def _run_circuit(self, qc: QuantumCircuit, shots: int):
        started = time.perf_counter()
        counts = self._stack.hpc.run(qc, shots=shots)
        counts_dict = counts.to_dict()
        self._out.job_done(time.perf_counter() - started, shots, counts_dict)
        self._jobs.append((qc, counts_dict))
        return counts

    def _bind(self, stack: Stack, out: Outcome) -> None:
        self._stack, self._out = stack, out
        self._jobs.clear()


class HpcVqeH2(_HpcWorkload):
    """The H2 VQE tight loop on the HPC path: SPSA chains of
    :data:`ITERATIONS` iterations, each from a seeded start point, with a
    quick calibration slot after every :data:`SLOT_EVERY` chains and one
    dashboard ``GET /device`` per chain."""

    name = "hpc_vqe_h2"
    task = "one VQE.energy call"
    #: A 30 s run completes 5600–10300 jobs (123 a chain); p99.9 would
    #: need 10000.
    tail_pct = 99.0

    ITERATIONS = 20
    SHOTS = 600
    SLOT_EVERY = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        hamiltonian = h2_hamiltonian()
        self.vqe = VQE(hamiltonian, self._run_circuit, shots=self.SHOTS)
        self.groups = len(hamiltonian.grouped_terms())
        spectrum = np.linalg.eigvalsh(hamiltonian.matrix())
        self.bounds = checks.vqe_estimate_range(
            float(spectrum[0]),
            float(spectrum[-1]),
            [t.coefficient for t in hamiltonian.measured_terms()],
            self.SHOTS,
        )

    def round_inputs(self, r: int) -> Tuple[List[float], int]:
        rng = _rng(self.seed, 2, r)
        x0 = rng.uniform(-0.4, 0.4, size=len(self.vqe.parameters))
        return [float(v) for v in x0], int(rng.integers(2**31))

    def warm_up(self, stack: Stack) -> None:
        self._bind(stack, Outcome())
        self.vqe.energy([0.1] * len(self.vqe.parameters))

    def run_round(self, stack: Stack, r: int, inputs, out: Outcome) -> None:
        x0, spsa_seed = inputs
        self._bind(stack, out)
        estimates: List[float] = []

        def energy(x):
            started = time.perf_counter()
            value = self.vqe.energy(x)
            out.task_latencies.append(time.perf_counter() - started)
            estimates.append(value)
            return value

        stack.rest.device_info()
        try:
            opt = spsa_minimize(
                energy, np.asarray(x0), iterations=self.ITERATIONS, rng=spsa_seed
            )
            final = energy(opt.x)
        except RoutingError as exc:
            out.job_failed(f"chain {r}: {exc}")
            return
        bounds, vqe = self.bounds, self.vqe
        for value in estimates:
            out.pending.append(
                (self.groups, lambda v=value: checks.check_vqe_estimate(v, bounds))
            )
        params = np.array(opt.x)
        out.pending.append(
            (self.groups, lambda: checks.check_vqe_final(final, vqe.energy_exact(params)))
        )
        if (r + 1) % self.SLOT_EVERY == 0:
            stack.qrm.calibration_slot("quick")


class HpcQaoaSweep(_HpcWorkload):
    """QAOA MaxCut parameter sweep on the HPC path.

    The graphs are fixed (``random_regular_graph(3, n, seed=GRAPH_SEED)``)
    and the seed drives the sweep: the routed width of a graph on the
    20-qubit grid (10–15 active qubits) sets its cost as ``2**width``,
    so a per-seed graph would make the seed, not the code, dominate the
    spread between runs.  A round evaluates one seeded parameter point
    on every graph of :data:`POOL`, with one dashboard ``GET /device``;
    a quick calibration slot runs after every :data:`SLOT_EVERY` rounds.
    """

    name = "hpc_qaoa_sweep"
    task = "one QAOA.expected_cut call"

    GRAPH_SEED = 0
    #: (nodes, p) per graph of a round.
    POOL = ((10, 1), (12, 1), (10, 2))
    #: The three graphs' jobs cost about 0.8, 1.5 and 2.2 s at this shot
    #: count, so a 50 s run holds 11–17 rounds (33–51 jobs).  Every round
    #: runs each graph once, so the median lies on the middle graph, whose
    #: jobs all cost alike, not on a boundary between two graphs.  Below
    #: 40 jobs no percentile above the median keeps ten jobs beyond it, so
    #: the reported tail is the median too.
    SHOTS = 384
    tail_pct = 50.0
    SLOT_EVERY = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.qaoas = [
            QAOA(
                nx.random_regular_graph(3, n, seed=self.GRAPH_SEED),
                self._run_circuit,
                p=p,
                shots=self.SHOTS,
            )
            for n, p in self.POOL
        ]

    def round_inputs(self, r: int) -> List[List[float]]:
        rng = _rng(self.seed, 3, r)
        points = []
        for _, p in self.POOL:
            gammas = rng.uniform(0.2, 1.0, size=p)
            betas = rng.uniform(0.1, 0.6, size=p)
            points.append([float(v) for pair in zip(gammas, betas) for v in pair])
        return points

    def describe(self, inputs):
        return {
            "graphs": [sorted(map(list, q.graph.edges)) for q in self.qaoas],
            "pool": self.POOL,
            "shots": self.SHOTS,
            "points": inputs,
        }

    def warm_up(self, stack: Stack) -> None:
        self._bind(stack, Outcome())
        QAOA(nx.cycle_graph(4), self._run_circuit, shots=64).expected_cut([0.5, 0.3])

    def run_round(self, stack: Stack, r: int, inputs, out: Outcome) -> None:
        self._bind(stack, out)
        stack.rest.device_info()
        for i, (qaoa, values) in enumerate(zip(self.qaoas, inputs)):
            started = time.perf_counter()
            try:
                qaoa.expected_cut(values)
            except RoutingError as exc:
                out.job_failed(f"round {r}: {exc}")
                continue
            out.task_latencies.append(time.perf_counter() - started)
            qc, counts = self._jobs[-1]
            out.pending.append((1, _qaoa_check(qaoa.graph, qc, counts, self.SHOTS, (r, i))))
        if (r + 1) % self.SLOT_EVERY == 0:
            stack.qrm.calibration_slot("quick")


def _qaoa_check(graph: nx.Graph, qc: QuantumCircuit, counts: Dict[str, int], shots: int, key):
    return lambda: checks.check_qaoa(counts, ideal_probabilities(qc), graph, shots, seed=key)


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (RestCliffordHealth, HpcVqeH2, HpcQaoaSweep)
}
