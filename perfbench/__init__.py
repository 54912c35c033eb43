"""pursuitlab benchmark: workloads, output checks, spans and statistics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-pinned --seed 7 --seconds 20 --trace 0

The program under test is imported from ``src/`` of that checkout; the
benchmark never falls back to an installed copy.
"""
