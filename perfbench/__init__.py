"""End-to-end and per-layer benchmark for the convogen pipeline.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; the workloads,
metrics and bounds are listed in ``BENCHMARK.json``.
"""
