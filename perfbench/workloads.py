"""The three workloads, each a closed loop against the public ``repro`` API.

* ``cold-batch`` — one client, a fresh Fig-8 n=10 batch per request at
  SF 0.01 (the same batch sequence on every run): every request misses the
  plan cache (the cold-optimizer spine).
* ``warm-batch`` — one client repeating one Fig-8 n=10 batch at SF 0.1 on
  ``Session(workers=2)``: every request hits the plan cache (the execute
  spine, including ``serve.parallel``/``serve.schedule``).
* ``serve-rw`` — two clients with their own sessions sharing one
  ``SharedBatchCoordinator``; single-query reads plus insert/delete view
  maintenance that invalidates the plan caches.

``BENCHMARK.json`` lists warm-batch and serve-rw only. cold-batch stays
runnable for paired comparisons of optimizer work, but its pure-Python
latency follows the host's speed too closely for a gated bound (see
README.md).

An untraced run measures the end-to-end metrics through ``Session.execute``.
A traced run alternates each client's requests between the traced layer
path (:mod:`layers`) and ``Session.execute``, so the tracing overhead is
the difference of the two medians over the same inputs.
"""

from __future__ import annotations

import gc
import itertools
import random
import resource
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from repro import Session
from repro.catalog.tpch import build_tpch_database
from repro.serve import SharedBatchCoordinator
from repro.views.maintenance import MaintenancePlanner
from repro.views.materialized import ViewManager
from repro.workloads.example1 import Q1_SQL, Q2_SQL, Q3_SQL
from repro.workloads.generator import scaleup_batch

import checks
from layers import ROOT, SpanRecorder, traced_read

#: each setup runs this many times; setup_s is the median.
SETUP_REPEATS = 3
#: scale factor of every workload under ``--smoke`` (the self-check).
SMOKE_SF = 0.002
#: the row-at-a-time oracle is checked only at or below this scale factor.
ORACLE_MAX_SF = 0.01
#: queries per Fig-8 batch.
BATCH_QUERIES = 10
#: TPC-H data seed of both batch workloads, whose inputs do not depend on
#: ``--seed`` (see COLD_BATCH_BASE and WARM_SQL).
BATCH_DATA_SEED = 20070612

#: serve-rw reads: the same eight C⋈O⋈L aggregations as
#: ``benchmarks/bench_cross_session.QUERIES``, pinned here so the workload
#: cannot drift with that file.
_CORE = (
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
)
RW_QUERIES = [
    f"select c_nationkey, sum(l_extendedprice) as v {_CORE}group by c_nationkey",
    f"select c_mktsegment, sum(l_quantity) as v {_CORE}group by c_mktsegment",
    f"select o_orderstatus, sum(l_extendedprice) as v {_CORE}group by o_orderstatus",
    f"select o_orderpriority, sum(l_quantity) as v {_CORE}group by o_orderpriority",
    f"select c_nationkey, count(*) as v {_CORE}group by c_nationkey",
    f"select c_mktsegment, count(*) as v {_CORE}group by c_mktsegment",
    f"select o_orderstatus, sum(o_totalprice) as v {_CORE}group by o_orderstatus",
    f"select o_orderpriority, count(*) as v {_CORE}group by o_orderpriority",
]
#: every WRITE_EVERY-th operation of client 1 is a write.
WRITE_EVERY = 20
DELTA_ROWS = 20
#: delta customer keys start far above any generated key, so no order
#: joins them: reads and view contents stay fixed while writes run.
DELTA_KEY_BASE = 50_000_000
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]


@dataclass
class Config:
    seed: int
    seconds: float
    trace: bool
    smoke: bool = False

    def sf(self, full: float) -> float:
        return SMOKE_SF if self.smoke else full


@dataclass
class Op:
    """One timed operation (a read request or a write pair)."""

    kind: str  # "read" or "write"
    latency: float
    sql: str = ""
    rows: Optional[Dict[str, list]] = None
    traced: Optional[int] = None  # request id when traced
    error: bool = False


@dataclass
class Run:
    """Everything a workload run measured, before it becomes metrics."""

    ops: List[Op] = field(default_factory=list)
    elapsed: float = 0.0
    setup: List[float] = field(default_factory=list)
    build: List[float] = field(default_factory=list)
    refresh: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: reads that returned wrong rows (found after the timed loop).
    wrong: int = 0
    #: traced-run extras: spans, and what each traced request returned.
    recorder: Optional[SpanRecorder] = None
    reads: Dict[int, object] = field(default_factory=dict)
    writes: Dict[int, tuple] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, op: Op) -> None:
        with self.lock:
            self.ops.append(op)


def _new_run(cfg: Config) -> Run:
    return Run(recorder=SpanRecorder() if cfg.trace else None)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _measured(run: Run) -> Iterator[None]:
    """Wall time and peak memory of the timed loop."""
    start = perf_counter()
    yield
    run.elapsed = perf_counter() - start
    run.peak_rss_mb = _peak_rss_mb()


def _loop(seconds: float, op: Callable[[int], None]) -> None:
    """Closed loop: ``op(k)`` back to back until ``seconds`` have passed."""
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        op(k)
        k += 1


def _repeat_setup(run: Run, setup: Callable[[], object]) -> object:
    """Run ``setup`` SETUP_REPEATS times; keep the last state."""
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous instance before building again
        gc.collect()
        start = perf_counter()
        state = setup()
        run.setup.append(perf_counter() - start)
    return state


def _build(run: Run, sf: float, seed: int):
    start = perf_counter()
    database = build_tpch_database(sf, seed=seed)
    run.build.append(perf_counter() - start)
    return database


def _timed(
    run: Run,
    kind: str,
    sql: str,
    call: Callable[[], object],
    traced: Optional[int] = None,
) -> None:
    """Time one operation; a raised error counts as failed."""
    start = perf_counter()
    try:
        result = call()
    except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        run.add(Op(kind, perf_counter() - start, sql, traced=traced,
                   error=True))
        return
    op = Op(kind, perf_counter() - start, sql, traced=traced)
    if kind == "read":
        op.rows = checks.rows_of(result.execution)
    run.add(op)


def _traced(run: Run, ids, sql: str, session) -> None:
    """One traced read through the layer path."""
    request = next(ids)

    def call():
        read = traced_read(run.recorder, session, sql, request)
        with run.lock:
            run.reads[request] = read
        return read

    _timed(run, "read", sql, call, traced=request)


def _check_reads(run: Run, expected: Callable[[str], dict]) -> None:
    """Compare every successful read with its expected rows."""
    for op in run.ops:
        if op.kind == "read" and not op.error:
            if not checks.batch_matches(op.rows, expected(op.sql)):
                op.error = True
                run.wrong += 1


def _check_oracle(reference, sql: str, want: dict, sf: float) -> bool:
    """The no-sharing reference must equal the oracle on a fixed sample."""
    if sf > ORACLE_MAX_SF:
        return True
    return checks.batch_matches(want, checks.oracle_rows(reference, sql))


# -- cold-batch --------------------------------------------------------------


#: cold-batch's inputs do not depend on the seed: every run sends the same
#: sequence of batches (batch seeds COLD_BATCH_BASE, +1, +2, …) over the same
#: database. Cold n=10 Fig-8 batches of different seeds differ by up to 1.4x
#: in latency, so with seeded batches a run's median also measured which
#: batches the seed drew, on top of the host's drift.
COLD_BATCH_BASE = 1_000


def cold_batch(cfg: Config):
    """Fresh Fig-8 batches: every request misses the plan cache."""
    run = _new_run(cfg)
    sf = cfg.sf(0.01)
    # Batch seeds never repeat within a run, nor collide with the warm-up.
    batch_seed = lambda k: COLD_BATCH_BASE + k  # noqa: E731
    warmup_sql = scaleup_batch(BATCH_QUERIES, seed=COLD_BATCH_BASE - 1)

    def setup():
        database = _build(run, sf, BATCH_DATA_SEED)
        # The traced run needs a second cold session: each batch runs once
        # traced and once untraced, and both must miss the plan cache.
        sessions = [Session(database) for _ in range(2 if cfg.trace else 1)]
        for session in sessions:
            session.execute(warmup_sql)
        return sessions

    sessions = _repeat_setup(run, setup)
    ids = itertools.count(1)

    def request(k: int) -> None:
        sql = scaleup_batch(BATCH_QUERIES, seed=batch_seed(k))
        if cfg.trace:
            steps = [
                lambda: _traced(run, ids, sql, sessions[0]),
                lambda: _timed(run, "read", sql,
                               lambda: sessions[1].execute(sql)),
            ]
            for step in steps if k % 2 == 0 else steps[::-1]:
                step()
        else:
            _timed(run, "read", sql, lambda: sessions[0].execute(sql))

    with _measured(run):
        _loop(cfg.seconds, request)

    reference = checks.reference_session(sessions[0].database)
    expected: Dict[str, dict] = {}

    def want(sql):
        if sql not in expected:
            expected[sql] = checks.rows_of(reference.execute(sql).execution)
        return expected[sql]

    _check_reads(run, want)
    first = scaleup_batch(BATCH_QUERIES, seed=batch_seed(0))
    oracle_ok = _check_oracle(reference, first, want(first), sf)
    return run, oracle_ok


# -- warm-batch --------------------------------------------------------------

#: the one warm batch (Fig-8's default n=10 batch) over one database: the
#: inputs of warm-batch do not depend on the seed. Other batch seeds differ
#: by 2x in execute time, and other data seeds change the chosen plan (one
#: ran 1.6x slower at equal cost units), so a seeded input would make the
#: run-to-run spread measure the plan choice instead of the executor.
WARM_SQL = scaleup_batch(BATCH_QUERIES)


def warm_batch(cfg: Config):
    """One repeated Fig-8 batch on two workers: every request hits."""
    run = _new_run(cfg)
    sf = cfg.sf(0.1)

    def setup():
        database = _build(run, sf, BATCH_DATA_SEED)
        session = Session(database, workers=2)
        session.execute(WARM_SQL)
        return session

    session = _repeat_setup(run, setup)
    ids = itertools.count(1)

    def request(k: int) -> None:
        if cfg.trace and k % 2 == 0:
            _traced(run, ids, WARM_SQL, session)
        else:
            _timed(run, "read", WARM_SQL,
                   lambda: _expect_hit(session.execute(WARM_SQL)))

    with _measured(run):
        _loop(cfg.seconds, request)

    reference = checks.reference_session(session.database)
    want = checks.rows_of(reference.execute(WARM_SQL).execution)
    _check_reads(run, lambda sql: want)
    oracle_ok = _check_oracle(reference, WARM_SQL, want, sf)
    return run, oracle_ok


def _expect_hit(outcome):
    if not outcome.plan_cache_hit:
        raise RuntimeError("warm-batch request missed the plan cache")
    return outcome


# -- serve-rw ----------------------------------------------------------------


def _delta_rows(seed: int) -> list:
    rng = random.Random(seed)
    return [
        (
            DELTA_KEY_BASE + i,
            f"Customer#{DELTA_KEY_BASE + i:09d}",
            rng.randrange(25),
            SEGMENTS[rng.randrange(len(SEGMENTS))],
            round(rng.uniform(-999.99, 9999.99), 2),
        )
        for i in range(DELTA_ROWS)
    ]


@dataclass
class _RwState:
    sessions: List[Session]
    manager: ViewManager
    planner: MaintenancePlanner
    views: Dict[str, list]


def serve_rw(cfg: Config):
    """Two clients, shared coordinator, reads plus view maintenance."""
    run = _new_run(cfg)
    sf = cfg.sf(0.01)
    delta = _delta_rows(cfg.seed)

    def write(planner):
        inserted = planner.apply_insert("customer", delta)
        deleted = planner.apply_delete("customer", delta)
        return inserted, deleted

    def setup():
        database = _build(run, sf, cfg.seed)
        manager = ViewManager(database)
        for name, sql in (("mv1", Q1_SQL), ("mv2", Q2_SQL), ("mv3", Q3_SQL)):
            manager.create_view(name, sql)
        start = perf_counter()
        manager.refresh_all()
        run.refresh.append(perf_counter() - start)
        views = checks.view_contents(manager)
        planner = MaintenancePlanner(database, manager)
        coordinator = SharedBatchCoordinator(window_ms=20, max_group=2)
        sessions = [
            Session(database, coordinator=coordinator) for _ in range(2)
        ]
        write(planner)
        for sql in RW_QUERIES:
            sessions[0].execute(sql)
        return _RwState(sessions, manager, planner, views)

    state = _repeat_setup(run, setup)
    ids = itertools.count(1)
    barrier = threading.Barrier(2)

    def traced_write(request):
        span = run.recorder.span
        with span(ROOT, request):
            with span("views.maintain", request):
                inserted = state.planner.apply_insert("customer", delta)
            with span("views.maintain", request):
                deleted = state.planner.apply_delete("customer", delta)
        with run.lock:
            run.writes[request] = (inserted, deleted)

    def client(index: int) -> None:
        session = state.sessions[index]

        def op(k: int) -> None:
            if index == 1 and k % WRITE_EVERY == WRITE_EVERY - 1:
                # Every other write is traced.
                if cfg.trace and (k // WRITE_EVERY) % 2 == 0:
                    request = next(ids)
                    _timed(run, "write", "", lambda: traced_write(request),
                           traced=request)
                else:
                    _timed(run, "write", "", lambda: write(state.planner))
                return
            sql = RW_QUERIES[(2 * k + index) % len(RW_QUERIES)]
            # Trace alternate runs of four operations: four consecutive
            # operations cover all of a client's queries, so traced and
            # untraced reads see the same query mix.
            if cfg.trace and (k // 4) % 2 == 0:
                _traced(run, ids, sql, session)
            else:
                _timed(run, "read", sql, lambda: session.execute(sql))

        barrier.wait()
        _loop(cfg.seconds, op)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(2)
    ]
    with _measured(run):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    reference = checks.reference_session(state.sessions[0].database)
    expected = {
        sql: checks.rows_of(reference.execute(sql).execution)
        for sql in RW_QUERIES
    }
    _check_reads(run, expected.__getitem__)
    oracle_ok = all(
        _check_oracle(reference, sql, expected[sql], sf)
        for sql in RW_QUERIES[:2]
    )
    views_now = checks.view_contents(state.manager)
    views_ok = views_now.keys() == state.views.keys() and all(
        checks.rows_match(views_now[name], rows)
        for name, rows in state.views.items()
    )
    return run, oracle_ok and views_ok


WORKLOADS = {
    "cold-batch": cold_batch,
    "warm-batch": warm_batch,
    "serve-rw": serve_rw,
}
