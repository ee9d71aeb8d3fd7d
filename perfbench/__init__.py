"""The repository benchmark: four seeded, verified workloads.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``README.md`` in this
directory describes the workloads, the metrics and the traced run.
"""
