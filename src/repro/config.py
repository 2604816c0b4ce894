"""Execution configuration: one frozen value per run, held in a context
variable.

Every setting that shapes how a sampling run executes — the engine mode,
the MPS truncation contract, the cache budget, sharding, admission,
tracing, and the reference-path toggles the equivalence suites and the
perf harness flip — lives on one immutable :class:`ExecutionConfig`.
The active config is a :class:`contextvars.ContextVar`, so two requests
running on different threads (or asyncio tasks) never see each other's
settings; :func:`repro.simulator.engine_mode` is a thin shim that derives
a config from the active one and installs it for the block.

Hot paths read the config once per run (the sampler) or once per state
(engines and state vectors capture it at construction), never per gate.

This module imports nothing from the simulator, so tracing, plans and
the engines can all import it at module scope.
"""

from __future__ import annotations

import dataclasses
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import EngineModeError

#: The recognized engine modes (see :func:`repro.simulator.engine_mode`).
MODES = ("baseline", "fast", "hybrid", "mps", "auto")

#: Every mode but the seed path: ``"baseline"`` stays byte-for-byte
#: historical, so nothing beyond the mode itself may configure it.
_ACCELERATED = MODES[1:]

#: Field → the modes whose routing can consume it.  A sub-option passed
#: to :meth:`ExecutionConfig.derive` under any other mode is rejected
#: rather than silently ignored.
_FIELD_MODES = {
    "chi": ("mps", "auto"),
    "truncation_threshold": ("mps", "auto"),
    "batch_max_bytes": ("fast", "hybrid", "auto"),
    "workers": _ACCELERATED,
    "max_state_bytes": _ACCELERATED,
    "trace": _ACCELERATED,
    "suffix_checkpoints": _ACCELERATED,
    "plans": _ACCELERATED,
    "fuse_diagonal_runs": _ACCELERATED,
    "fuse_blocks": _ACCELERATED,
    "blocked_sweeps": _ACCELERATED,
}

#: Integer fields → smallest accepted value.  ``batch_max_bytes`` below
#: 1 KiB would drop a sweep tile under the fast kernels' useful sizes.
_INT_FLOORS = {"chi": 1, "batch_max_bytes": 1024, "workers": 1, "max_state_bytes": 1}


@dataclass(frozen=True)
class ExecutionConfig:
    """How one sampling run executes.

    ``mode``
        Engine routing (see :func:`repro.simulator.engine_mode`).
    ``chi`` / ``truncation_threshold``
        The MPS truncation contract: bond-dimension cap, and the largest
        relative weight one SVD may drop beyond it.  64 keeps every state
        of ≤12 qubits exact; 0.0 truncates only when the cap forces it.
    ``batch_max_bytes``
        Cache-working-set budget in bytes of stacked amplitudes.  The
        batched walk sizes its chunks from it and the blocked sweep
        executor derives its tile width from it.  A cache budget, not a
        RAM budget: oversized chunks evict every row on every gate.
    ``workers``
        Process-pool shot sharding (``None``: the single-stream driver).
        A semantics switch: block streams derive from the seed, so counts
        match at every worker count but differ from the single stream.
    ``max_state_bytes``
        Admission-control budget (``None``: the dense peak at the dense
        qubit limit, which admits everything the stack could serve).
    ``trace``
        Record an :class:`~repro.telemetry.tracing.ExecutionReport`.
    ``suffix_checkpoints`` / ``plans`` / ``fuse_diagonal_runs`` /
    ``fuse_blocks`` / ``blocked_sweeps``
        Reference-path toggles: each selects a bit-identical slower path
        (no suffix reuse, no plan cache, no diagonal-run or block fusion,
        no cache-blocked sweeps) for the equivalence suites and the perf
        harness.
    """

    mode: str = "fast"
    chi: int = 64
    truncation_threshold: float = 0.0
    batch_max_bytes: int = 2 * 1024 * 1024
    workers: Optional[int] = None
    max_state_bytes: Optional[int] = None
    trace: bool = False
    suffix_checkpoints: bool = True
    plans: bool = True
    fuse_diagonal_runs: bool = True
    fuse_blocks: bool = True
    blocked_sweeps: bool = True

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise EngineModeError(
                f"unknown engine mode {self.mode!r}; expected one of {MODES}"
            )
        for name, floor in _INT_FLOORS.items():
            value = getattr(self, name)
            if value is None and name in ("workers", "max_state_bytes"):
                continue
            # bool is an int subclass (True would silently mean 1), and
            # numpy integers from sweep/config code are perfectly valid.
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < floor
            ):
                raise EngineModeError(
                    f"{name} must be an integer >= {floor}, got {value!r}"
                )
            object.__setattr__(self, name, int(value))
        threshold = self.truncation_threshold
        if (
            isinstance(threshold, bool)
            or not isinstance(threshold, numbers.Real)
            or not 0.0 <= threshold < 1.0
        ):
            raise EngineModeError(
                f"truncation_threshold must lie in [0, 1), got {threshold!r}"
            )
        object.__setattr__(self, "truncation_threshold", float(threshold))
        for f in dataclasses.fields(self):
            if f.type == "bool" and not isinstance(getattr(self, f.name), bool):
                raise EngineModeError(
                    f"{f.name} must be a bool, got {getattr(self, f.name)!r}"
                )

    @property
    def accelerated(self) -> bool:
        """Anything but the seed path: fast kernels, prefix sharing,
        admission control, plans and tracing all key off this."""
        return self.mode != "baseline"

    def derive(self, mode: str, **options: object) -> "ExecutionConfig":
        """This config under *mode* with *options* replaced.

        Fields not named keep their value from this config, so nested
        blocks inherit what they do not override.  An unknown option, or
        one that *mode*'s routing can never consume, raises
        :class:`~repro.errors.EngineModeError`; so does any invalid
        value.  Nothing is installed here, so a failed derive leaves the
        active config untouched.
        """
        unknown = sorted(set(options) - set(_FIELD_MODES))
        if unknown:
            raise EngineModeError(
                f"unknown engine_mode sub-option(s): {', '.join(unknown)}; "
                f"recognized sub-options are {', '.join(_FIELD_MODES)}"
            )
        config = dataclasses.replace(self, mode=mode)  # validates the mode
        for name in options:
            if mode not in _FIELD_MODES[name]:
                raise EngineModeError(
                    f"{name} is not a sub-option of engine mode {mode!r}; "
                    f"it applies to {_FIELD_MODES[name]}"
                )
        return dataclasses.replace(config, **options)


_CURRENT: ContextVar[ExecutionConfig] = ContextVar(
    "repro_execution_config", default=ExecutionConfig()
)


def current() -> ExecutionConfig:
    """The config active in this context."""
    return _CURRENT.get()


@contextmanager
def use(config: ExecutionConfig) -> Iterator[ExecutionConfig]:
    """Make *config* the active config for the dynamic extent of the
    block (this context only), restoring the previous one on exit."""
    token = _CURRENT.set(config)
    try:
        yield config
    finally:
        _CURRENT.reset(token)


__all__ = ["ExecutionConfig", "MODES", "current", "use"]
