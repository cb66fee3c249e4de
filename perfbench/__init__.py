"""Repository benchmark: workloads, reference outputs and the layer ledger.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout; ``perfbench/rationale.md``
explains what each workload and metric is for.
"""
