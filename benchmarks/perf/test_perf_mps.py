"""Perf microbenchmarks for the matrix-product-state engine.

CI-sized counterparts of the ``mps_brickwork`` / ``mps_qaoa_wide``
lanes in ``scripts/bench.py``: the assertions are deliberately loose
sanity floors (exact numbers belong to the harness), but they do pin
the engine ordering — MPS must not be slower than the fast dense engine
on shallow brickwork grouped sampling at device-plus width — and the
flagship feasibility: a 64-qubit branching-tail circuit, infeasible on
every other non-Clifford path, must sample interactively with zero
truncation loss at the default bond cap.
"""

import time

from benchmarks.conftest import report
from benchmarks.timing import best_of, under
from repro.circuits import brickwork_circuit
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    engine_mode as _engine,
    prepare_engine,
    sample_counts,
)

#: Wall-clock assertions tolerate this much CI noise before going red.
TIMING_SLACK = 1.5


def _noise():
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.002, 2), "cz")
    nm.add_gate_error(depolarizing_error(0.001, 1), "ry")
    return nm


def test_perf_mps_vs_dense_brickwork():
    """The MPS engine must not be slower than the fast dense engine on
    shallow-brickwork grouped sampling: dense pays a 2^n copy + replay
    per trajectory group, MPS forks O(n·chi²) tensors."""
    circuit = brickwork_circuit(18, 4)
    noise = _noise()
    shots = 192

    def run():
        sample_counts(circuit, shots, noise=noise, rng=7)

    dense, mps = best_of(under("fast", run), under("mps", run), repeats=2)

    lines = [
        f"brickwork-18 x4, {shots} shots, depolarizing noise, grouped path",
        f"dense fast : {dense * 1e3:8.2f} ms   ({shots / dense:8.0f} shots/s)",
        f"mps        : {mps * 1e3:8.2f} ms   ({shots / mps:8.0f} shots/s)",
        f"speedup    : {dense / mps:8.2f} x",
    ]
    report("perf_mps_engine", "\n".join(lines))
    assert mps <= dense * TIMING_SLACK, (
        "MPS engine slower than dense fast engine on shallow brickwork sampling"
    )


def test_perf_mps_wide_brickwork_feasibility():
    """The flagship capability: 64-qubit shallow brickwork — branching
    tail, beyond dense/hybrid/tableau alike — samples interactively on
    the MPS engine with zero truncation at the default chi."""
    circuit = brickwork_circuit(64, 4, seed=1)
    with _engine("mps"):
        start = time.perf_counter()
        counts = sample_counts(circuit, 512, noise=_noise(), rng=7)
        wide_seconds = time.perf_counter() - start
        engine = prepare_engine(circuit, "mps")
    assert counts.shots == 512
    report(
        "perf_mps_wide",
        (
            f"brickwork-64 x4 (beyond dense limit): "
            f"{wide_seconds * 1e3:8.2f} ms for 512 shots, "
            f"max bond {engine.max_bond_dimension}, "
            f"truncation error {engine.truncation_error:.3g}"
        ),
    )
    assert wide_seconds < 30.0, "wide MPS sampling left the interactive regime"
    assert engine.truncation_error == 0.0
