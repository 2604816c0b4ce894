"""End-to-end device-job benchmark for the repro stack.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one seeded workload through REST/HPC → QRM → JIT → transpiler →
``QPUDevice`` → sampler → engines and prints its metrics; see
``BENCHMARK.json`` at the repository root for the workload and metric
contract and ``perfbench/report.py`` for the all-workload report.
"""
