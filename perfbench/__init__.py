"""One benchmark for the BitWave reproduction pipeline.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
times one workload end to end (``--trace 0``) or reports its per-layer
tallies from one traced pass (``--trace 1``).  ``python3
perfbench/compare.py BASE CHANGE`` prints the before/after table of two
result sets.  See ``perfbench/README.md`` for the workloads, metrics
and the steadiness rules behind them.
"""
