"""Turn a workload :class:`~workloads.Run` into named metrics.

End-to-end metrics come from the untraced run; per-layer metrics from
the traced run. Layer times are means per request of the layer's self
time, so they add up to the mean traced wall time (the reconciliation).
Counts are summed over the first ``COUNT_SAMPLE`` distinct batches of the
traced run, taken from the per-request registry, so with one client they
repeat exactly for a given seed; on serve-rw the optimizer counts of the
first traced write's maintenance batches are added.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import asdict
from typing import Dict, List, Tuple

from layers import (
    RECONCILE_SWITCH_INTERVALS,
    RECONCILE_TOLERANCE,
    SPINE_SHARE,
    Profile,
    plan_fingerprint,
)

COUNT_SAMPLE = 3

#: name -> unit, in output order.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: printed by name on the untraced run but not gated: write latency exists
#: on serve-rw only and failed_frac is 0 on a correct program; the traced
#: run reports both as per-layer metrics.
UNGATED = {
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "failed_frac": "ratio",
    "read_samples": "count",
}
PER_LAYER = {
    "sql.parse_ms": "ms",
    "sql.bind_ms": "ms",
    "serve.cache.key_ms": "ms",
    "serve.cache.lookup_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "optimizer.total_ms": "ms",
    "optimizer.normal_ms": "ms",
    "optimizer.step2_ms": "ms",
    "optimizer.step3_ms": "ms",
    "optimizer.memo_groups": "count",
    "optimizer.history_hit_ratio": "ratio",
    "cse.candidates_generated": "count",
    "cse.candidates_kept": "count",
    "cse.kept_ratio": "ratio",
    "cse.single_consumer_discards": "count",
    "executor.execute_ms": "ms",
    "executor.cost_units": "units",
    "executor.spool_rows_written": "rows",
    "executor.spool_rows_read": "rows",
    "executor.scans.physical": "count",
    "executor.scans.rows_saved": "rows",
    "obs.ledger_ms": "ms",
    "serve.coordinator.submit_ms": "ms",
    "serve.coordinator.merged_frac": "ratio",
    "views.maintain_ms": "ms",
    "views.optimize_ms": "ms",
    "views.execute_ms": "ms",
    "views.other_ms": "ms",
    "catalog.tpch.build_s": "s",
    "views.refresh_s": "s",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "failed_frac": "ratio",
    "trace.requests": "count",
    "trace.overhead_ms": "ms",
    "trace.uncovered_share": "ratio",
    "trace.unreconciled": "count",
}


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation); 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(values: List[float], q: int) -> float:
    return quantile(values, q) * 1000.0


def failed_frac(run) -> Tuple[int, int, float]:
    """(attempted, failed, failed / attempted)."""
    attempted = len(run.ops)
    failed = sum(1 for op in run.ops if op.error)
    return attempted, failed, failed / attempted if attempted else 0.0


def _latencies(run, kind: str, traced=None) -> List[float]:
    return [
        op.latency
        for op in run.ops
        if op.kind == kind
        and not op.error
        and (traced is None or (op.traced is not None) == traced)
    ]


def _writes(run) -> Dict[str, float]:
    writes = _latencies(run, "write")
    return {
        "write_p50_ms": _ms(writes, 50),
        "write_p90_ms": _ms(writes, 90),
    }


def end_to_end(run) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(gated end-to-end metrics, ungated extras) of an untraced run."""
    reads = [op for op in run.ops if op.kind == "read" and not op.error]
    latencies = [op.latency for op in reads]
    queries = sum(len(op.rows) for op in reads)
    gated = {
        "setup_s": statistics.median(run.setup),
        "latency_p50_ms": _ms(latencies, 50),
        "latency_p90_ms": _ms(latencies, 90),
        "queries_per_s": queries / run.elapsed if run.elapsed else 0.0,
        "peak_rss_mb": run.peak_rss_mb,
    }
    extras = dict(_writes(run))
    extras["failed_frac"] = failed_frac(run)[2]
    extras["read_samples"] = float(len(latencies))
    return gated, extras


def per_layer(run) -> Tuple[Dict[str, float], dict]:
    """(per-layer metrics, trace report) of a traced run."""
    profile = Profile.from_spans(run.recorder.spans)
    traced_reads = sorted(run.reads)
    traced_writes = sorted(run.writes)
    reads = [run.reads[r] for r in traced_reads]
    n = max(1, len(reads))
    mean = profile.mean_ms
    optimized = [read.optimization.stats for read in reads if read.optimized]

    def stat_ms(value) -> float:
        return sum(value(s) for s in optimized) * 1000.0 / n

    metrics: Dict[str, float] = {
        "sql.parse_ms": mean(["sql.parse"], traced_reads),
        "sql.bind_ms": mean(["sql.bind"], traced_reads),
        "serve.cache.key_ms": mean(["serve.cache.key"], traced_reads),
        "serve.cache.lookup_ms": mean(
            ["serve.cache.get", "serve.cache.put"], traced_reads
        ),
        "serve.cache.hit_ratio": sum(r.plan_cache_hit for r in reads) / n,
        "optimizer.total_ms": mean(["optimizer"], traced_reads),
        "optimizer.normal_ms": stat_ms(lambda s: s.normal_time),
        "optimizer.step2_ms": stat_ms(lambda s: s.cse_time - s.step3_time),
        "optimizer.step3_ms": stat_ms(lambda s: s.step3_time),
        "executor.execute_ms": mean(["executor"], traced_reads),
        "obs.ledger_ms": mean(["obs.ledger"], traced_reads),
        "serve.coordinator.submit_ms": mean(
            ["serve.coordinator.submit"], traced_reads
        ),
        "serve.coordinator.merged_frac": sum(r.shared for r in reads) / n,
    }
    metrics.update(_sample_counts(run, traced_reads, traced_writes))
    metrics.update(_views(run, profile, traced_writes))
    metrics["catalog.tpch.build_s"] = statistics.median(run.build)
    metrics["views.refresh_s"] = (
        statistics.median(run.refresh) if run.refresh else 0.0
    )
    metrics.update(_writes(run))
    metrics["failed_frac"] = failed_frac(run)[2]
    metrics["trace.requests"] = float(len(profile.wall))
    metrics["trace.overhead_ms"] = _ms(
        _latencies(run, "read", traced=True), 50
    ) - _ms(_latencies(run, "read", traced=False), 50)
    metrics["trace.uncovered_share"] = profile.uncovered_share()
    metrics["trace.unreconciled"] = float(len(profile.unreconciled()))
    report = {
        "reconcile_tolerance": RECONCILE_TOLERANCE,
        "reconcile_switch_intervals": RECONCILE_SWITCH_INTERVALS,
        "uncovered_share": metrics["trace.uncovered_share"],
        "unreconciled": profile.unreconciled(),
        "layer_shares": profile.layer_shares(),
        "spine_share": SPINE_SHARE,
        "spine": profile.spine(),
        "plans": _plans(run, traced_reads),
        "spans": [asdict(span) for span in run.recorder.spans],
    }
    return metrics, report


def _first_per_batch(run, traced_reads) -> Dict[int, str]:
    """The first traced request of each distinct batch -> its SQL."""
    sql_of = {op.traced: op.sql for op in run.ops if op.traced is not None}
    firsts: Dict[int, str] = {}
    for request in traced_reads:
        if sql_of[request] not in firsts.values():
            firsts[request] = sql_of[request]
    return firsts


def _sample_counts(run, traced_reads, traced_writes) -> Dict[str, float]:
    totals: Dict[str, float] = {}

    def add(counters) -> None:
        for name, value in counters.items():
            totals[name] = totals.get(name, 0.0) + value

    for request in list(_first_per_batch(run, traced_reads))[:COUNT_SAMPLE]:
        add(run.reads[request].counters)
    # serve-rw: the optimizer counts of the first traced write's two
    # maintenance batches (insert, delete), where the views share work.
    for request in traced_writes[:1]:
        for outcome in run.writes[request]:
            add(outcome.optimization.stats.counter_summary())
    get = lambda name: totals.get(name, 0.0)  # noqa: E731
    hits, misses = get("optimizer.history.hits"), get("optimizer.history.misses")
    generated, kept = (
        get("optimizer.candidates_generated"), get("optimizer.cses_kept")
    )
    return {
        "optimizer.memo_groups": get("optimizer.memo_groups"),
        "optimizer.history_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "cse.candidates_generated": generated,
        "cse.candidates_kept": kept,
        "cse.kept_ratio": kept / generated if generated else 0.0,
        "cse.single_consumer_discards": get(
            "optimizer.single_consumer_discards"
        ),
        "executor.cost_units": get("executor.cost_units"),
        "executor.spool_rows_written": get("executor.spool_rows_written"),
        "executor.spool_rows_read": get("executor.spool_rows_read"),
        "executor.scans.physical": get("executor.scan.physical"),
        "executor.scans.rows_saved": get("executor.scan.rows_saved"),
    }


def _views(run, profile: Profile, traced_writes) -> Dict[str, float]:
    n = max(1, len(traced_writes))
    optimize = execute = 0.0
    for request in traced_writes:
        for outcome in run.writes[request]:
            optimize += outcome.optimization.stats.optimization_time
            execute += outcome.execution.wall_time
    maintain = profile.mean_ms(["views.maintain"], traced_writes)
    optimize_ms = optimize * 1000.0 / n
    execute_ms = execute * 1000.0 / n
    return {
        "views.maintain_ms": maintain,
        "views.optimize_ms": optimize_ms,
        "views.execute_ms": execute_ms,
        "views.other_ms": (
            maintain - optimize_ms - execute_ms if traced_writes else 0.0
        ),
    }


def _plans(run, traced_reads) -> List[dict]:
    """Plan-identity record: one entry per distinct batch."""
    plans = []
    for request, sql in _first_per_batch(run, traced_reads).items():
        read = run.reads[request]
        plans.append({
            "batch_sha256": hashlib.sha256(sql.encode()).hexdigest(),
            "plan_sha256": plan_fingerprint(read.optimization.bundle),
            "cost_units": read.execution.metrics.cost_units,
        })
    return plans
