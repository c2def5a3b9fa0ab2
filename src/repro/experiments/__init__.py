"""Experiment harnesses: one module per paper table/figure.

Every module exposes ``run()`` returning structured results and
``main()`` printing the same rows/series the paper reports.  The
benchmark suite under ``benchmarks/`` wraps these harnesses with
pytest-benchmark; EXPERIMENTS.md records paper-vs-measured values.
"""
