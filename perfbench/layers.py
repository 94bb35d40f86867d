"""Outside-in layer tracing for the benchmark.

The traced run drives each request through the same public calls that
``Session.execute`` makes on its ordinary path, with an in-memory span
around every call into a layer:

    parse_batch → Binder.bind_batch → cache_key + PlanCache.get/put
    → Optimizer.optimize → Executor.execute / ParallelExecutor.execute
    → build_ledger

A request that the session would offer to its cross-session coordinator
goes through ``SharedBatchCoordinator.submit`` first, exactly as
``Session._try_shared`` does. Nothing inside ``src/`` is instrumented:
each span covers one call made from this file, so a layer's self time is
what its public function took, minus any span nested inside it.

Counts come from a fresh :class:`~repro.obs.MetricsRegistry` handed to the
optimizer and executor of each traced request, so they are per-request
and never mixed between client threads.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional

from repro.executor.executor import Executor
from repro.obs import MetricsRegistry, build_ledger
from repro.optimizer.engine import Optimizer
from repro.serve import ParallelExecutor, batch_tables, cache_key
from repro.serve.schedule import query_spool_read_counts
from repro.sql.binder import Binder
from repro.sql.parser import parse_batch

#: name of the root span of every request; its self time is the part of
#: the request no layer span covers (the benchmark's own glue).
ROOT = "request"

#: per-request reconciliation tolerance: the time no layer span covers
#: must stay within this share of the request's traced wall time ...
RECONCILE_TOLERANCE = 0.02
#: ... or within this many interpreter switch intervals, whichever is
#: larger: with two client threads, a thread that loses the GIL between
#: two spans waits about one interval (longer while the holder runs native
#: code) outside any span.
RECONCILE_SWITCH_INTERVALS = 2

#: the cost spine is the smallest set of layers covering more than this
#: share of wall time.
SPINE_SHARE = 0.70


@dataclass(frozen=True)
class Span:
    """One timed call: name, start, end, parent span and request id."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; each thread nests its own spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: int) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, request)
                )


def layer_of(span_name: str) -> str:
    """The module a span belongs to: ``serve.cache.key`` → ``serve.cache``,
    ``sql.parse`` → ``sql``, ``optimizer`` → ``optimizer``."""
    return span_name.rsplit(".", 1)[0]


@dataclass
class Profile:
    """Self times per span name and per request, with the reconciliation."""

    #: request id -> traced wall time (the root span's duration).
    wall: Dict[int, float] = field(default_factory=dict)
    #: request id -> span name -> summed self time.
    self_times: Dict[int, Dict[str, float]] = field(default_factory=dict)

    @classmethod
    def from_spans(cls, spans: List[Span]) -> "Profile":
        children: Dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                children[span.parent] = (
                    children.get(span.parent, 0.0) + span.duration
                )
        profile = cls()
        for span in spans:
            own = span.duration - children.get(span.span_id, 0.0)
            if span.parent is None:
                profile.wall[span.request] = span.duration
                continue
            per = profile.self_times.setdefault(span.request, {})
            per[span.name] = per.get(span.name, 0.0) + own
        return profile

    def uncovered(self, request: int) -> float:
        """Seconds of a request's wall time no layer span covers."""
        covered = sum(self.self_times.get(request, {}).values())
        return self.wall[request] - covered

    def uncovered_share(self) -> float:
        """Uncovered time of all requests over their summed wall time."""
        total = sum(self.wall.values())
        return sum(map(self.uncovered, self.wall)) / total if total else 0.0

    def unreconciled(self) -> List[int]:
        """Requests whose uncovered time exceeds the tolerance."""
        slack = RECONCILE_SWITCH_INTERVALS * sys.getswitchinterval()
        return [
            request
            for request, wall in self.wall.items()
            if self.uncovered(request)
            > max(RECONCILE_TOLERANCE * wall, slack)
        ]

    def layer_shares(self) -> Dict[str, float]:
        """Each layer's share of the summed wall time of all requests."""
        total = sum(self.wall.values())
        shares: Dict[str, float] = {}
        for per in self.self_times.values():
            for name, seconds in per.items():
                layer = layer_of(name)
                shares[layer] = shares.get(layer, 0.0) + seconds
        if total <= 0:
            return {}
        return {k: v / total for k, v in shares.items()}

    def spine(self) -> List[str]:
        """Layers, largest first, until they cover SPINE_SHARE of wall."""
        names: List[str] = []
        covered = 0.0
        for name, share in sorted(
            self.layer_shares().items(), key=lambda kv: -kv[1]
        ):
            if covered > SPINE_SHARE:
                break
            names.append(name)
            covered += share
        return names

    def mean_ms(self, span_names, requests) -> float:
        """Mean per request of the summed self time of ``span_names``."""
        requests = list(requests)
        if not requests:
            return 0.0
        total = sum(
            self.self_times.get(r, {}).get(name, 0.0)
            for r in requests
            for name in span_names
        )
        return total * 1000.0 / len(requests)


def plan_fingerprint(bundle) -> str:
    """sha256 of the bundle's plan text: equal plans, equal fingerprints."""
    return hashlib.sha256(bundle.describe().encode()).hexdigest()


@dataclass
class TracedRead:
    """What one traced read returned, for checks and per-layer counts."""

    execution: object
    optimization: object
    plan_cache_hit: bool
    #: True when the coordinator served the read from a merged batch.
    shared: bool
    #: True when this read called the optimizer (ordinary path, miss).
    optimized: bool
    counters: Dict[str, float]


def traced_read(
    recorder: SpanRecorder, session, sql: str, request: int
) -> TracedRead:
    """One read on ``session``'s ordinary path, a span around each layer."""
    span = recorder.span
    database = session.database
    registry = MetricsRegistry()
    optimized = False
    with span(ROOT, request):
        with span("sql.parse", request):
            statements = parse_batch(sql)
        with span("sql.bind", request):
            batch = Binder(database.catalog).bind_batch(statements)
        shared = None
        if session.coordinator is not None:
            with span("serve.coordinator.submit", request):
                shared = session.coordinator.submit(session, sql, batch)
        if shared is not None:
            result = shared.optimization
            execution = shared.execution
            cache_hit = shared.plan_cache_hit
        else:
            with span("serve.cache.key", request):
                key = cache_key(
                    batch, database, session.options, session.cost_model
                )
            with span("serve.cache.get", request):
                result = session.plan_cache.get(key)
            cache_hit = result is not None
            if result is None:
                optimized = True
                with span("optimizer", request):
                    result = Optimizer(
                        database,
                        session.options,
                        session.cost_model,
                        registry=registry,
                    ).optimize(batch)
                with span("serve.cache.put", request):
                    session.plan_cache.put(key, result, batch_tables(batch))
            with span("executor", request):
                execution = _executor(session, registry).execute(
                    result.bundle
                )
            with span("obs.ledger", request):
                build_ledger(
                    result.candidates,
                    execution.metrics.spool_stats,
                    query_spool_read_counts(result.bundle),
                    scan_stats=execution.metrics.scan_stats,
                )
    return TracedRead(
        execution=execution,
        optimization=result,
        plan_cache_hit=cache_hit,
        shared=shared is not None,
        optimized=optimized,
        counters=registry.snapshot()["counters"],
    )


def _executor(session, registry: MetricsRegistry) -> Executor:
    """The executor ``Session.execute_bundle`` would build."""
    if session.workers > 1:
        return ParallelExecutor(
            session.database,
            session.cost_model,
            registry=registry,
            workers=session.workers,
            shared_scans=session.shared_scans,
            morsel_rows=session.morsel_rows,
        )
    return Executor(
        session.database,
        session.cost_model,
        registry=registry,
        shared_scans=session.shared_scans,
        morsel_rows=session.morsel_rows,
    )
