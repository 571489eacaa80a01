"""The mediator benchmark: four workloads driven through ``repro``'s public API.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
is the entry point; see ``perfbench/README.md``.
"""
