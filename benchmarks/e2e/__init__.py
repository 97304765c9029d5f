"""End-to-end benchmark of the emulator, driven through its CLI.

Run one workload with ``python3 benchmarks/e2e/run.py --workload NAME``
from the repository root (see ``README.md`` in this directory for the
workloads, the metrics and the traced pass).
"""
