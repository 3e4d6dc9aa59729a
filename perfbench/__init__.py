"""The repository benchmark: cold Table 4 pairs and a mixed service load.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  See
``perfbench/README.md`` for the workloads, the metrics and how each
layer metric maps to an end-to-end one.
"""
