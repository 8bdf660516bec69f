"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 repobench/run.py --workload sweep-cold --seed 1 --seconds 14 --trace 0

Workloads: ``sweep-cold``, ``dynamics-warm``, ``service-churn``,
``service-read`` (see ``repobench/design.json``).

``--trace 0`` measures the end-to-end metrics.  Episodes run back to back
until the timed ops add up to ``--seconds`` and at least ``MIN_OPS`` ops
(so at least ten lie beyond the p90) over at least ``MIN_EPISODES``
set-ups.  Only op calls are timed; set-up is timed per episode and
reported as the median.

Times are reported at a reference host speed: one calibration kernel,
timed right before every set-up and op, gives the host's speed at that
moment, and each interval is scaled to a host where the kernel takes
``repobench.host.REFERENCE_KERNEL_S`` (see ``repobench/host.py``).  The
shared hosts this runs on change speed by up to ~1.45x for seconds to
tens of minutes, which no run length averages away.  The times as
measured are printed beside them and kept in the run record.

``--trace 1`` runs the workload's fixed trace plan twice, untraced and
then with timing shims installed, and reports the per-layer metrics.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
A full record (host, digests, counters, and for traced runs the spans)
is written to ``.repobench/`` in the repository root.  The exit code is
1 when a correctness check fails and 2 when the library source is
missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".repobench"

MIN_OPS = 100
MIN_EPISODES = 3
#: Hard stop for the timed section, far above any planned run length;
#: the checks after it (a journal replay costs about as much again) must
#: still end within the 180 s a run may take.
MAX_TIMED_WALL_S = 75.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_op(op, failures, tracer=None, op_id=0):
    """Call one op, timed; returns (seconds, result or None if it raised)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op()
        else:
            with tracer.op(op_id):
                result = op()
    except Exception as exc:  # an op that raises is a failed op
        failures.append(f"op raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, None
    return time.perf_counter() - start, result


class Run:
    """What one pass over a workload's episodes did."""

    def __init__(self) -> None:
        #: Op and set-up durations in seconds, as measured.
        self.latencies: list = []
        self.setups: list = []
        #: One calibration kernel time right before each set-up and op,
        #: in time order; ``setup_at`` / ``op_at`` index into it.
        self.kernels: list = []
        self.setup_at: list = []
        self.op_at: list = []
        self.episodes: list = []
        self.failures: list = []
        self.attempted = 0
        self.raised_units = 0

    @property
    def timed(self) -> float:
        return sum(self.latencies)

    def sample_speed(self, slots: list) -> None:
        """Time one calibration kernel for the interval about to start."""
        from repobench.host import kernel_seconds

        slots.append(len(self.kernels))
        self.kernels.append(kernel_seconds())

    def at_reference_speed(self):
        """(set-up seconds, op seconds) scaled to the reference speed."""
        from repobench.host import speed_factors

        factors = speed_factors(self.kernels)
        return (
            [t * factors[i] for t, i in zip(self.setups, self.setup_at)],
            [t * factors[i] for t, i in zip(self.latencies, self.op_at)],
        )

    def check(self) -> int:
        """Run every finished episode's checks; returns failed units."""
        failed = self.raised_units
        for episode in self.episodes:
            units, messages = episode.check()
            failed += units
            self.failures.extend(messages)
        return failed

    def counters(self):
        from repobench.workloads import COUNTER_KEYS

        totals = {key: 0 for key in COUNTER_KEYS}
        for episode in self.episodes:
            for key, value in episode.counters.items():
                if key == "store_peak_bytes":
                    totals[key] = max(totals[key], value)
                else:
                    totals[key] += value
        return totals


def run_episodes(workload, seed, until=None, episodes=None, tracer=None,
                 reduced=False):
    """Run episodes back to back, timing each op call and each set-up.

    Stops after ``episodes`` whole episodes, or as soon as ``until(run)``
    holds after an op (the current episode is then cut short).
    """
    run = Run()
    index = 0
    stop = False
    while not stop and (episodes is None or index < episodes):
        episode = workload.episode(seed, index, reduced)
        index += 1
        run.sample_speed(run.setup_at)
        start = time.perf_counter()
        episode.setup()
        run.setups.append(time.perf_counter() - start)
        run.episodes.append(episode)
        while not stop and (op := episode.next_op()) is not None:
            run.sample_speed(run.op_at)
            elapsed, result = run_op(
                op, run.failures, tracer, len(run.latencies)
            )
            run.latencies.append(elapsed)
            if result is None:
                run.attempted += episode.units_per_op
                run.raised_units += episode.units_per_op
                break
            run.attempted += episode.record(result)
            stop = until is not None and until(run)
        episode.finish()
    return run


def measure(workload, seed, seconds):
    """The untraced, time-bounded run behind the end-to-end metrics."""
    wall_start = time.perf_counter()

    def until(run):
        return (
            run.timed >= seconds
            and len(run.latencies) >= MIN_OPS
            and len(run.setups) >= MIN_EPISODES
        ) or time.perf_counter() - wall_start > MAX_TIMED_WALL_S

    run = run_episodes(workload, seed, until=until)
    rss = peak_rss_mb()
    failed = run.check()
    latencies = run.latencies
    units_done = run.attempted - run.raised_units
    metrics = dict(
        timing_metrics(*run.at_reference_speed(), units_done),
        peak_rss_mb=rss,
    )
    samples = {
        "setup_s": len(run.setups),
        "op_ms_p50": len(latencies),
        "op_ms_p90": len(latencies),
        "work_per_s": units_done,
        "peak_rss_mb": 1,
    }
    detail = {
        "episodes": len(run.episodes),
        "ops": len(latencies),
        "timed_s": run.timed,
        "as_measured": timing_metrics(run.setups, latencies, units_done),
        "kernel_ms_median": statistics.median(run.kernels) * 1e3,
        "digests": [episode.digest() for episode in run.episodes],
        "counters": run.counters(),
        "samples": samples,
    }
    return metrics, run.attempted, failed, run.failures, detail


def timing_metrics(setups, ops, units_done):
    """The timed end-to-end metrics from set-up and op durations (s)."""
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(ops) * 1e3,
        "op_ms_p90": statistics.quantiles(ops, n=10)[8] * 1e3,
        "work_per_s": units_done / sum(ops),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, counters, tracer_counts, overhead):
    self_ms = summary["self_ms"]
    inclusive = summary["inclusive_ms"]
    solves = counters["response_solves"]
    return {
        "graphs.shortest_paths.self_ms": (self_ms["graphs.shortest_paths"], "ms"),
        "graphs.shortest_paths.calls": (tracer_counts["shortest_paths.calls"], "count"),
        "graphs.shortest_paths.sources": (tracer_counts["shortest_paths.sources"], "count"),
        "graphs.digraph.self_ms": (self_ms["graphs.digraph"], "ms"),
        "graphs.digraph.to_csr_calls": (tracer_counts["digraph.to_csr_calls"], "count"),
        "graphs.digraph.to_csr_ms": (inclusive.get("to_csr", 0.0), "ms"),
        "graphs.digraph.copies": (tracer_counts["digraph.copies"], "count"),
        "graphs.dynamic_sssp.self_ms": (self_ms["graphs.dynamic_sssp"], "ms"),
        "graphs.dynamic_sssp.vertices_repaired": (counters["distance_vertices_repaired"], "count"),
        "graphs.dynamic_sssp.fallback_ratio": (
            _ratio(counters["distance_full_fallbacks"], tracer_counts["dynamic_sssp.rows"]),
            "ratio",
        ),
        "core.best_response.self_ms": (self_ms["core.best_response"], "ms"),
        "core.best_response.solves": (solves, "count"),
        "core.best_response.move_yield": (_ratio(counters["moves"], solves), "ratio"),
        "core.evaluator.self_ms": (self_ms["core.evaluator"], "ms"),
        "core.evaluator.memo_hit_ratio": (
            _ratio(counters["response_memo_hits"], counters["response_memo_hits"] + solves),
            "ratio",
        ),
        "core.evaluator.row_reuse_ratio": (
            _ratio(
                counters["service_rows_reused"],
                counters["service_rows_reused"] + counters["service_rows_recomputed"],
            ),
            "ratio",
        ),
        "core.evaluator.service_full_builds": (counters["service_full_builds"], "count"),
        "core.evaluator.distance_full_builds": (counters["distance_full_builds"], "count"),
        "core.evaluator.rows_costs_ms": (inclusive.get("strategy_rows_costs", 0.0), "ms"),
        "core.service_store.self_ms": (self_ms["core.service_store"], "ms"),
        "core.service_store.peak_mb": (counters["store_peak_bytes"] / 1e6, "MB"),
        "core.dynamics.self_ms": (self_ms["core.dynamics"], "ms"),
        "core.dynamics.moves": (counters["moves"] if inclusive.get("dynamics.run") else 0, "count"),
        "service.state.self_ms": (self_ms["service.state"], "ms"),
        "service.state.subgame_ms": (inclusive.get("subgame_matrix", 0.0), "ms"),
        "service.state.commit_ratio": (
            _ratio(counters["moves"], counters["rebind_solves"]), "ratio"
        ),
        "service.state.refused": (counters["refused"], "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.span_coverage": (summary["coverage"], "ratio"),
    }


def traced(workload, seed, reduced=False):
    """Fixed-work run: untraced pass, then traced pass of the same work."""
    from repobench.trace import Tracer, install

    episodes = workload.trace_episodes
    plain = run_episodes(workload, seed, episodes=episodes, reduced=reduced)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        run = run_episodes(
            workload, seed, episodes=episodes, tracer=tracer, reduced=reduced
        )
    finally:
        uninstall()
    failed = run.check()
    digests = [episode.digest() for episode in run.episodes]
    if digests != [episode.digest() for episode in plain.episodes]:
        run.failures.append("traced outputs differ from untraced outputs")
        failed = max(failed, 1)
    summary = tracer.summary()
    counters = run.counters()
    overhead = _ratio(
        sum(run.at_reference_speed()[1]), sum(plain.at_reference_speed()[1])
    )
    rows = layer_metrics(summary, counters, tracer.counters, overhead)
    detail = {
        "episodes": len(run.episodes),
        "ops": len(run.latencies),
        "untraced_s": plain.timed,
        "traced_s": run.timed,
        "digests": digests,
        "counters": counters,
        "trace_counters": dict(tracer.counters),
        "self_ms": summary["self_ms"],
        "inclusive_ms": summary["inclusive_ms"],
        "spans": len(tracer.spans),
    }
    return rows, run.attempted, failed, run.failures, detail, tracer


def where_the_time_goes(summary_self_ms):
    total = sum(summary_self_ms.values())
    lines = ["where the time goes (self time share per layer):"]
    for layer, ms in sorted(summary_self_ms.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<24} {ms:10.1f} ms  {_ratio(ms, total):6.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"repobench: library source not found under {ROOT / 'src'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from repobench.host import (
        calibration_rate,
        host_record,
        load_average,
        pin_threads,
    )

    pin_threads()  # before numpy/scipy load their thread pools
    from repobench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"repobench: unknown workload {args.workload!r}; "
            f"known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    host = host_record()
    host["load_before"] = load_average()
    host["calibration_start"] = calibration_rate()
    tracer = None
    if args.trace:
        rows, attempted, failed, failures, detail, tracer = traced(
            workload, args.seed
        )
        metrics = {name: value for name, (value, _unit) in rows.items()}
        units = {name: unit for name, (_value, unit) in rows.items()}
    else:
        metrics, attempted, failed, failures, detail = measure(
            workload, args.seed, args.seconds
        )
        units = END_TO_END_UNITS
    host["calibration_end"] = calibration_rate()
    host["load_after"] = load_average()
    correct = failed == 0 and not failures

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"unit {workload.unit}")
    print("host " + json.dumps(host, sort_keys=True))
    as_measured = detail.get("as_measured", {})
    for name, value in metrics.items():
        count = detail.get("samples", {}).get(name)
        suffix = f"  (n={count})" if count is not None else ""
        if name in as_measured:
            suffix += f"  as measured {as_measured[name]:.6f}"
        print(f"  {name:<40} {value:14.6f} {units[name]}{suffix}")
    if tracer is not None:
        print(where_the_time_goes(detail["self_ms"]))
    print("digests " + " ".join(detail["digests"]))
    for message in failures[:20]:
        print(f"FAILED: {message}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "metrics": metrics,
        "detail": detail,
        "failures": failures,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
