"""Tests for the benchmark's own code: seeded inputs, binding restore,
output checks and the result line's metric contract."""

from __future__ import annotations

import inspect
import json
import math

import networkx as nx
import numpy as np
import pytest

from perfbench import checks, run
from perfbench.layers import LayerTrace
from perfbench.workloads import WORKLOADS, HpcQaoaSweep, HpcVqeH2, drive, fresh_stack
from repro.hybrid.qaoa import qaoa_circuit
from repro.simulator import Counts
from repro.simulator.sampler import ideal_probabilities


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_generates_same_inputs(name):
    cls = WORKLOADS[name]
    assert cls(7).inputs_digest(3) == cls(7).inputs_digest(3)
    assert cls(7).inputs_digest(3) != cls(8).inputs_digest(3)


def _bindings(trace):
    return [
        (owner, attr, inspect.getattr_static(owner, attr))
        for owner, attr, _, _ in trace._targets()
    ]


def test_traced_run_restores_every_wrapped_binding():
    workload = HpcVqeH2(3)
    stack = fresh_stack(workload)
    trace = LayerTrace()
    before = _bindings(trace)
    with trace:
        for owner, attr, raw in before:
            assert inspect.getattr_static(owner, attr) is not raw
        drive(workload, stack, rounds=1)
    for owner, attr, raw in before:
        assert inspect.getattr_static(owner, attr) is raw, f"{owner}.{attr}"
        func = getattr(raw, "__func__", raw)
        assert not hasattr(func, "__perfbench_layer__")
    assert trace.calls("sampler") == trace.calls("device") > 0
    assert trace.calls("hybrid") == 2 * HpcVqeH2.ITERATIONS + 1
    # The untraced run afterwards carries no wrapper and no counts move.
    calls = trace.calls("sampler")
    drive(workload, stack, rounds=1)
    assert trace.calls("sampler") == calls


def test_ghz_check_rejects_wrong_counts():
    good = Counts({"0000": 15, "1111": 14, "0001": 3})
    assert checks.check_ghz(good, 4, 32) is None
    assert checks.check_ghz(Counts({"0101": 32}), 4, 32) is not None
    assert checks.check_ghz(Counts({"0000": 16, "1111": 15}), 4, 32) is not None
    assert checks.check_ghz(Counts({"000": 16, "111": 16}), 4, 32) is not None
    # Near-uniform 4-qubit output; a noisy but healthy 2-qubit job passes.
    near_uniform = {format(i, "04b"): 2 for i in range(16)}
    assert checks.check_ghz(Counts(near_uniform), 4, 32) is not None
    assert checks.check_ghz(Counts({"00": 13, "11": 11, "01": 5, "10": 3}), 2, 32) is None
    # A lost Hadamard: every shot in 0…0, so the population is perfect.
    assert checks.check_ghz(Counts({"0" * 20: 32}), 20, 32) is not None
    # Full chip at the device's usual population passes.
    healthy = {"0" * 20: 7, "1" * 20: 4, "0" * 18 + "11": 1}
    healthy.update({format(1 << i, "020b"): 1 for i in range(20)})
    assert checks.check_ghz(Counts(healthy), 20, 32) is None


def test_distribution_check_rejects_wrong_counts():
    ideal = {"00": 0.5, "11": 0.5}
    good = Counts({"00": 240, "11": 260, "01": 12})
    assert checks.check_distribution(good, ideal, 512, 0.2, seed=(1,)) is None
    wrong = Counts({"01": 256, "10": 256})
    assert checks.check_distribution(wrong, ideal, 512, 0.2, seed=(1,)) is not None


def _sample(probs, shots, seed):
    keys = list(probs)
    draw = np.random.default_rng(seed).multinomial(shots, [probs[k] for k in keys])
    return Counts({k: int(c) for k, c in zip(keys, draw) if c})


def test_qaoa_check_rejects_wrong_counts_at_workload_size():
    (nodes, p), shots = HpcQaoaSweep.POOL[1], HpcQaoaSweep.SHOTS
    graph = nx.random_regular_graph(3, nodes, seed=HpcQaoaSweep.GRAPH_SEED)
    template, params = qaoa_circuit(graph, p)
    ideal = ideal_probabilities(template.bind(dict(zip(params, [0.6, 0.3]))))
    uniform = {k: 1.0 / len(ideal) for k in ideal}
    # The device keeps about 0.65 of the ideal distribution and mixes the
    # rest toward random assignments.
    noisy = {k: 0.65 * ideal[k] + 0.35 * uniform[k] for k in ideal}
    other_point = ideal_probabilities(template.bind(dict(zip(params, [-0.6, 0.3]))))
    for seed in range(5):
        check = lambda counts: checks.check_qaoa(counts, ideal, graph, shots, seed=(seed,))
        assert check(_sample(noisy, shots, seed)) is None
        assert check(_sample(other_point, shots, seed)) is not None
        assert check(_sample(uniform, shots, seed)) is not None
    assert check(Counts({"0" * nodes: shots})) is not None
    assert check(Counts({"0" * nodes: shots - 1})) is not None


def test_vqe_checks():
    bounds = checks.vqe_estimate_range(-1.9, -0.2, [0.4, 0.4, 0.2], 600)
    assert checks.check_vqe_estimate(-1.0, bounds) is None
    assert checks.check_vqe_estimate(-2.5, bounds) is not None
    assert checks.check_vqe_estimate(math.nan, bounds) is not None
    assert checks.check_vqe_final(-1.80, -1.85) is None
    assert checks.check_vqe_final(-1.0, -1.85) is not None


def test_tail_is_the_fixed_nearest_rank_percentile():
    assert run.tail([float(i) for i in range(100)], 75.0) == (74.0, 25)
    assert run.tail([float(i) for i in range(104)], 75.0) == (77.0, 26)
    assert run.tail([float(i) for i in range(2000)], 99.0) == (1979.0, 20)
    assert run.tail([float(i) for i in range(10_332)], 99.0) == (10_228.0, 103)
    assert run.tail([float(i) for i in range(21)], 50.0) == (10.0, 10)
    assert run.tail([1.0], 99.9) == (1.0, 0)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_the_contract_metrics(capsys, trace, kind):
    code = run.main(
        ["--workload", "hpc_vqe_h2", "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in run._contract()[kind].items()
    }
