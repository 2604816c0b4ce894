"""Perf microbenchmarks for batched trajectory execution and sharding.

CI-sized counterparts of the ``batched_ghz_grouped`` /
``sharded_throughput`` lanes in ``scripts/bench.py``.  The dense route
picks the batched grouped walk by cost; the reference side of each
comparison forces the scalar walk.  The assertions are deliberately
loose sanity floors (exact numbers belong to the harness), but they pin
two orderings:

* at a cache-resident width the default (batched) walk must beat the
  forced scalar walk outright (its whole reason to exist is dispatch
  amortization over many stacked trajectory states);
* at 16–20 qubits — beyond the cache-working-set budget — the batched
  walk never engages, so the default walk must track the forced scalar
  walk (the identical code path) within timing noise.
"""

import time
from unittest import mock

from benchmarks.conftest import report
from benchmarks.timing import best_of, under
from repro.circuits import ghz_circuit
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    engine_mode as _engine,
    sample_counts,
    sample_counts_sharded,
)
from repro.simulator import sampler as _sampler

#: Wall-clock assertions tolerate this much CI noise before going red.
TIMING_SLACK = 1.5


def _scalar_walk():
    """Force the dense route onto the scalar grouped walk."""
    return mock.patch.object(_sampler, "_use_batched_walk", lambda *a, **k: False)


def _ghz_t(num_qubits):
    """GHZ plus a T layer: the dense route's workload at widths where the
    ``"fast"`` route sends a plain (Clifford) GHZ to the tableau."""
    circuit = ghz_circuit(num_qubits, measure=False)
    for q in range(num_qubits):
        circuit.t(q)
    circuit.measure_all()
    return circuit


def _noise():
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.02, 2), "cx")
    nm.add_gate_error(depolarizing_error(0.01, 1), "h")
    return nm


def test_perf_batched_beats_scalar_at_cache_resident_width():
    """GHZ-10 grouped sampling, hundreds of trajectory groups: one
    kernel call per lockstep window across ~128 stacked 16 KiB states
    must beat per-group dispatch.  Counts are bit-identical by the
    parity suite, so this is pure dispatch amortization."""
    circuit = ghz_circuit(10)
    noise = _noise()
    shots = 4096

    def run():
        sample_counts(circuit, shots, noise=noise, rng=7)

    scalar, batched = best_of(under("fast", run, _scalar_walk()), under("fast", run))

    lines = [
        f"ghz-10, {shots} shots, depolarizing noise, grouped path",
        f"scalar walk : {scalar * 1e3:8.2f} ms   ({shots / scalar:8.0f} shots/s)",
        f"batched     : {batched * 1e3:8.2f} ms   ({shots / batched:8.0f} shots/s)",
        f"speedup     : {scalar / batched:8.2f} x",
    ]
    report("perf_batched_grouped", "\n".join(lines))
    assert batched * 1.2 <= scalar, (
        "batched grouped walk lost to the scalar walk at a cache-resident width"
    )


def test_perf_batched_ordering_holds_at_wide_registers():
    """16–20 qubits with ≥8 trajectory groups: fewer than
    ``MIN_CHUNK_ROWS`` states fit the cache-working-set budget, so the
    batched walk must stay disengaged and the default walk must track
    the forced scalar walk — never trail it beyond timing noise.  The
    workload is GHZ+T, which the ``"fast"`` route keeps dense."""
    from repro import config as _config
    from repro.simulator.engines import DenseEngine, select_engine

    for num_qubits, shots in ((16, 512), (18, 256), (20, 96)):
        circuit = _ghz_t(num_qubits)
        noise = _noise()

        def run():
            sample_counts(circuit, shots, noise=noise, rng=7)

        with _engine("fast"):
            engine_cls = select_engine("fast", circuit)
            assert engine_cls is DenseEngine
            assert not _sampler._use_batched_walk(
                engine_cls, circuit, 64, _config.current()
            ), f"batched walk engaged at {num_qubits} qubits"
        scalar, default = best_of(
            under("fast", run, _scalar_walk()), under("fast", run), repeats=2
        )
        # the pinned workload produces well over 8 groups
        noisy = _sampler._noisy_ops(circuit, noise, {})
        assert len(noisy) >= 8
        report(
            f"perf_batched_wide_{num_qubits}q",
            (
                f"ghz+t-{num_qubits}, {shots} shots: scalar walk "
                f"{scalar * 1e3:.2f} ms, default {default * 1e3:.2f} ms "
                f"(ratio {scalar / default:.2f}x)"
            ),
        )
        assert default <= scalar * TIMING_SLACK, (
            f"default walk slower than the scalar walk at {num_qubits} "
            "qubits despite never batching"
        )


def test_perf_sharded_throughput_stays_interactive():
    """The sharding layer end to end (block partition, derived streams,
    prefix sharing, merge) on the reference workload: overhead over the
    plain driver must stay small and the whole run interactive."""
    circuit = ghz_circuit(12)
    noise = _noise()
    shots = 2048

    start = time.perf_counter()
    counts = sample_counts_sharded(circuit, shots, noise=noise, seed=7, workers=1)
    seconds = time.perf_counter() - start
    assert counts.shots == shots
    report(
        "perf_sharded_throughput",
        (
            f"ghz-12, {shots} shots, workers=1: {seconds * 1e3:8.2f} ms "
            f"({shots / seconds:8.0f} shots/s)"
        ),
    )
    assert seconds < 30.0, "sharded sampling left the interactive regime"
