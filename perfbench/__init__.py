"""End-to-end and per-layer benchmark of the diBELLA reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``METRICS.md`` in this directory
lists every metric, its layer, and why each workload exists.
"""
