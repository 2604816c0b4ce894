"""Batched dense execution engine.

:class:`BatchedDenseEngine` is the registry face of the batched
trajectory walk: for a *single* trajectory it behaves exactly like its
parent :class:`~repro.simulator.engines.dense.DenseEngine` (same
kernels, same RNG consumption — per-shot circuits and single-group runs
are automatically bit-identical), but it carries the
``supports_batched_groups`` marker that lets the grouped sampler stack
every trajectory group into one
:class:`~repro.simulator.batched.BatchedStateVector` and advance them
all with one kernel call per gate.

:meth:`BatchedDenseEngine.advance_batch` is the batch analogue of
:meth:`DenseEngine.advance`: the same window fusion and blocked sweeps
(:func:`~repro.simulator.engines.dense.window_program`, under the same
config toggles) applied to a row stack instead of a single state.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import config as _config
from repro.circuits.circuit import Instruction
from repro.circuits.gates import UNITARY_NOOPS
from repro.simulator.batched import BatchedStateVector
from repro.simulator.engines import dense as _dense
from repro.simulator.engines.base import register_engine
from repro.simulator.engines.dense import DenseEngine, inject_into_dense
from repro.simulator.noise import QuantumError
from repro.telemetry import tracing as _tracing


@register_engine
class BatchedDenseEngine(DenseEngine):
    """Dense backend whose grouped walk advances all groups at once."""

    name = "batched"

    #: Grouped-sampler marker: trajectory groups may be stacked into a
    #: :class:`BatchedStateVector` and advanced in lockstep windows.
    supports_batched_groups = True

    @classmethod
    def estimate_peak_bytes(cls, circuit) -> int:
        # The dense peak plus one cache-budget's worth of stacked rows:
        # batched chunks are sized to fit ``batch_max_bytes`` whole, so
        # that budget is exactly the extra working set this walk adds.
        return (
            DenseEngine.estimate_peak_bytes(circuit)
            + _config.current().batch_max_bytes
        )

    @classmethod
    def advance_batch(
        cls, batch: BatchedStateVector, ops: Sequence[Instruction]
    ) -> None:
        """Advance every row of *batch* through *ops*.

        Mirrors :meth:`DenseEngine.advance` — including the fusion
        passes — with each application hitting the whole row stack in
        one call.
        """
        cls.advance_batch_span(batch, ops, 0, len(ops))

    @classmethod
    def advance_batch_span(
        cls,
        batch: BatchedStateVector,
        instructions: Sequence[Instruction],
        start: int,
        stop: int,
        plan=None,
        config: Optional[_config.ExecutionConfig] = None,
    ) -> None:
        """Window form of :meth:`advance_batch`, mirroring
        :meth:`DenseEngine.advance_span`: with a bound plan the window's
        fused items and block schedule come from the plan-cache memos
        instead of being re-derived per request.

        Blocked sweeps flatten the ``(rows, 2^n)`` buffer into
        ``rows · 2^{n-t}`` tiles, so per-tile cache residency is
        independent of the row count — this is what lets the batched
        walk engage beyond the cache-resident widths.  Any remap the
        executor leaves pending is unwound before returning: between
        spans the walk joins rows, injects errors, and builds CDFs, all
        of which assume the canonical layout.  *config* defaults to the
        active config.
        """
        with _tracing.span(
            "engine.batched_window", rows=batch.rows, start=start, stop=stop
        ):
            if batch.use_fast_kernels and stop - start > 1:
                if config is None:
                    config = _config.current()
                items, schedule = _dense.window_program(
                    instructions, start, stop, plan, batch.num_qubits, config
                )
                if schedule is not None:
                    tile = _dense.blocked_tile_qubits(config.batch_max_bytes)
                    _dense.execute_blocked(batch, items, schedule, tile)
                    batch.unwind_remap()
                    return
                if items is not None:
                    _dense.apply_items(batch, items)
                    return
            for i in range(start, stop):
                inst = instructions[i]
                if inst.name in UNITARY_NOOPS:
                    continue
                batch.apply_matrix(inst.matrix(), inst.qubits)

    @staticmethod
    def inject_row(
        batch: BatchedStateVector,
        row: int,
        instruction: Instruction,
        error: QuantumError,
        term_index: int,
    ) -> None:
        """Apply one error term to a single row of the batch.

        Error injection is inherently per-trajectory, so it runs the
        scalar :func:`inject_into_dense` semantics on a zero-copy row
        alias and writes back if a kernel rebound the buffer.
        """
        sv = batch.row_view(row)
        inject_into_dense(sv, instruction, error, term_index)
        batch.store_row(row, sv)


__all__ = ["BatchedDenseEngine"]
