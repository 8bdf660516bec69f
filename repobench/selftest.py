"""Determinism self-test of the benchmark itself.

Runs every workload's trace plan at reduced size twice, traced, and
asserts that every per-layer counter (everything but times) and every
output digest is identical between the two runs, that no correctness
check failed, and that the op's top-level layer spans cover at least 95%
of op wall time.  Exits 1 on any violation.

Usage (from the repository root)::

    python3 repobench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
MIN_COVERAGE = 0.95
#: Metrics measured in time (or derived from times) may differ per run.
TIMED = ("trace.overhead_ratio", "trace.span_coverage")


def repeatable(rows):
    return {
        name: value
        for name, (value, unit) in rows.items()
        if unit != "ms" and name not in TIMED
    }


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repobench.host import pin_threads

    pin_threads()
    from repobench.run import traced
    from repobench.workloads import WORKLOADS

    problems = []
    for name, workload in WORKLOADS.items():
        runs = [traced(workload, SEED, reduced=True) for _ in range(2)]
        (rows_a, _att, failed_a, fail_a, detail_a, _t), (
            rows_b, _att_b, failed_b, fail_b, detail_b, _t_b
        ) = runs
        for label, ok in (
            ("counters differ", repeatable(rows_a) == repeatable(rows_b)),
            ("digests differ", detail_a["digests"] == detail_b["digests"]),
            ("raw counters differ", detail_a["counters"] == detail_b["counters"]),
            ("span counters differ",
             detail_a["trace_counters"] == detail_b["trace_counters"]),
            ("correctness check failed",
             failed_a == failed_b == 0 and not fail_a and not fail_b),
        ):
            if not ok:
                problems.append(f"{name}: {label}")
        coverage = min(
            rows_a["trace.span_coverage"][0], rows_b["trace.span_coverage"][0]
        )
        if coverage < MIN_COVERAGE:
            problems.append(f"{name}: span coverage {coverage:.3f} < {MIN_COVERAGE}")
        print(
            f"{name:<14} ops {detail_a['ops']:>4}  digests "
            f"{' '.join(detail_a['digests'])}  coverage {coverage:.4f}"
        )
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
