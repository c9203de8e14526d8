"""Benchmark harness for qlsub: fixed workloads, end-to-end metrics, traced run.

Run ``python3 qlbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``qlbench/README.md``.
"""
