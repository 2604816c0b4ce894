"""The execution config: one frozen value per run, held per context.

Three contracts under test:

* **Isolation** — two requests running concurrently in one process with
  different configs each reproduce their serial counts, and each reads
  back its own execution report.
* **Plan-key completeness** — every :class:`ExecutionConfig` field
  either changes the plan-cache key or is declared run-only, so a field
  added later cannot serve a stale plan by omission.
* **Shard blocks carry the config** — workers run under the config
  shipped with their block, so ``workers=2`` reproduces ``workers=1``
  under a non-default MPS cap.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro import config
from repro.circuits import brickwork_circuit
from repro.compiler import plans
from repro.config import ExecutionConfig
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    engine_mode,
    sample_counts,
)
from repro.telemetry import tracing


def _brickwork_noise() -> NoiseModel:
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.04, 2), "cz")
    nm.add_gate_error(depolarizing_error(0.02, 1), "ry")
    return nm


# ---------------------------------------------------------------------------
# isolation between concurrent requests
# ---------------------------------------------------------------------------


def _run(qc, noise, shots, seed, mode, options):
    with engine_mode(mode, **options):
        counts = sample_counts(qc, shots, noise=noise, rng=seed)
        return counts.to_dict(), tracing.consume_last_report()


def _run_concurrently(qc, noise, requests):
    """Run each ``(shots, seed, mode, options)`` request on its own
    thread.  A barrier inside the ``engine_mode`` block makes both
    configs active at once before either thread samples, and a second
    one keeps both blocks open until both have read their report; a
    short switch interval interleaves the two runs finely."""
    barrier = threading.Barrier(len(requests), timeout=120)
    results = [None] * len(requests)
    errors = []

    def worker(index, shots, seed, mode, options):
        try:
            with engine_mode(mode, **options):
                barrier.wait()
                counts = sample_counts(qc, shots, noise=noise, rng=seed)
                report = tracing.consume_last_report()
                barrier.wait()
            results[index] = (counts.to_dict(), report)
        except Exception as exc:  # surfaced on the main thread
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(i,) + tuple(req))
        for i, req in enumerate(requests)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


@pytest.mark.parametrize(
    "qc, noise, requests",
    [
        (
            brickwork_circuit(6, 4, seed=3),
            _brickwork_noise(),
            [(384, 11, "baseline", {}), (256, 11, "fast", {"trace": True})],
        ),
        (
            brickwork_circuit(6, 4, seed=3),
            _brickwork_noise(),
            [
                (384, 5, "mps", {"chi": 2, "trace": True}),
                (256, 5, "mps", {"chi": 64, "trace": True}),
            ],
        ),
    ],
    ids=["baseline-vs-fast-traced", "mps-chi2-vs-chi64"],
)
def test_concurrent_requests_keep_their_own_config_and_report(qc, noise, requests):
    serial = [_run(qc, noise, *request) for request in requests]
    # the pair must actually differ, or a mixed-up config would pass
    assert serial[0][0] != serial[1][0]
    concurrent = _run_concurrently(qc, noise, requests)
    for (shots, _, mode, options), (want, _), (got, report) in zip(
        requests, serial, concurrent
    ):
        assert got == want, mode
        if options.get("trace"):
            assert report is not None
            assert (report.mode, report.shots) == (mode, shots)
        else:
            assert report is None


def test_new_threads_start_on_the_default_config():
    seen = []
    with engine_mode("mps", chi=3):
        thread = threading.Thread(target=lambda: seen.append(config.current()))
        thread.start()
        thread.join()
    assert seen == [ExecutionConfig()]


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.current().chi = 3  # type: ignore[misc]


# ---------------------------------------------------------------------------
# plan-key completeness
# ---------------------------------------------------------------------------


def _other_value(field: dataclasses.Field):
    """A valid value different from *field*'s default."""
    if field.name == "mode":
        return "mps"
    if field.type == "bool":
        return not field.default
    if field.type == "float":
        return 0.25
    if field.type in ("int", "Optional[int]"):
        return 2 * (field.default or 2048)
    raise AssertionError(f"no alternative value for new field {field.name!r}")


def test_every_field_changes_the_plan_key_or_is_run_only():
    base = ExecutionConfig()
    fields = dataclasses.fields(ExecutionConfig)
    assert plans.RUN_ONLY_FIELDS <= {f.name for f in fields}
    for field in fields:
        changed = dataclasses.replace(base, **{field.name: _other_value(field)})
        if field.name in plans.RUN_ONLY_FIELDS:
            assert plans.plan_key(changed) == plans.plan_key(base), field.name
        else:
            assert plans.plan_key(changed) != plans.plan_key(base), field.name


def test_run_only_fields_share_one_cached_plan():
    qc = brickwork_circuit(4, 2, seed=1)
    plans.plan_cache_clear()
    with engine_mode("fast"):
        first = plans.plan_for(qc)
    with engine_mode("auto", trace=True, workers=2, max_state_bytes=1 << 30):
        assert plans.plan_for(qc) is first
    with engine_mode("fast", fuse_diagonal_runs=False):
        assert plans.plan_for(qc) is not first


# ---------------------------------------------------------------------------
# sharded blocks run under the shipped config
# ---------------------------------------------------------------------------


def test_sharded_mps_chi_cap_reaches_the_workers():
    qc = brickwork_circuit(6, 4, seed=3)
    noise = _brickwork_noise()
    with engine_mode("mps", chi=2, workers=1):
        inline = sample_counts(qc, 600, noise=noise, rng=9)
    with engine_mode("mps", chi=2, workers=2):
        pooled = sample_counts(qc, 600, noise=noise, rng=9)
    with engine_mode("mps", workers=1):
        exact = sample_counts(qc, 600, noise=noise, rng=9)
    assert pooled.to_dict() == inline.to_dict()
    assert pooled.to_dict() != exact.to_dict()
