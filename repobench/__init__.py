"""Repository benchmark: four serial workloads over the library's public API.

Run one workload per process from the repository root::

    python3 repobench/run.py --workload sweep-cold --seed 1 --seconds 14 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, op latency
p50/p90, work units per second, peak RSS; times at a reference host
speed, see ``repobench/host.py``); ``--trace 1`` runs a fixed
amount of work once untraced and once traced, and prints the per-layer
metrics plus a "where the time goes" table.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``python3 repobench/selftest.py`` runs every workload at reduced size
twice and asserts that counters and output digests repeat exactly.

The workloads, the layer -> metric -> workload predictions, what is not
measured and why, and the held-out seed are recorded in
``repobench/design.json``.
"""
