"""Paired wall-clock timing shared by ``scripts/bench.py`` and the
``benchmarks/perf`` tests.

Every perf gate compares two (or more) sides of one workload and judges
their ratio.  Timing the sides one after the other, best-of-N each, is
at the mercy of a shared VM: a stall of a few hundred milliseconds that
spans consecutive calls lands on one side only, and a side of a few
milliseconds is judged on one or two calls.  :func:`best_of` closes both
holes:

* **warm-up** — each side runs once untimed before sampling starts
  (lazy imports, gate and plan caches, allocator growth), and those
  calls size the sampling;
* **interleaving** — the sides alternate call by call, so a stall hits
  every side instead of one;
* **minimum sampling duration** — rounds continue until they cover at
  least :data:`MIN_SECONDS` (and at least *repeats* rounds), so a 4 ms
  side is judged on dozens of calls.

Each side reports its fastest call: noise on a shared machine only ever
adds time.  Each side must be self-contained — it enters its own engine
mode or patches per call — so the sides can alternate freely.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from typing import Callable, List

import numpy as np

from repro.simulator import engine_mode

#: Shortest wall-clock span the interleaved rounds of one comparison
#: cover, in seconds.
MIN_SECONDS = 0.25


def _seconds(side: Callable[[], object]) -> float:
    start = time.perf_counter()
    side()
    return time.perf_counter() - start


def best_of(*sides: Callable[[], object], repeats: int = 3) -> List[float]:
    """Fastest single call of each side, in seconds, over interleaved
    rounds that follow one warm-up call per side."""
    warm = sum(_seconds(side) for side in sides)
    rounds = max(repeats, math.ceil(MIN_SECONDS / max(warm, 1e-9)))
    best = [math.inf] * len(sides)
    for _ in range(rounds):
        for i, side in enumerate(sides):
            best[i] = min(best[i], _seconds(side))
    return best


def under(
    mode: str, fn: Callable[[], object], *patches, **options
) -> Callable[[], None]:
    """*fn* as one side of a comparison: every call runs it under
    ``engine_mode(mode, **options)`` with the ``mock`` *patches* applied."""

    def side() -> None:
        with engine_mode(mode, **options), ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            fn()

    return side


def settle_blas() -> None:
    """Start numpy's BLAS thread pool and let it settle before anything
    is timed.

    Measured on a 2-vCPU VM (OpenBLAS 0.3.31, two threads): in about a
    quarter of fresh processes, the ~1 s after the first threaded matrix
    product runs GEMM-backed kernels up to 30x slower.  Processes that
    waited that second out first did not show it (4 of 4 trials), nor
    do processes with ``OPENBLAS_NUM_THREADS=1``.  Call once per
    process, before the first comparison.
    """
    product = np.ones((64, 64))
    product @ product
    time.sleep(1.5)
