"""Correctness checks: every read against a no-sharing reference, a fixed
sample against the row-at-a-time oracle, and view contents."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro import OptimizerOptions, Session
from repro.executor.reference import evaluate_batch

Rows = List[Tuple]


def reference_session(database) -> Session:
    """A session that shares nothing: no CSEs, no fusion, no shared scans."""
    return Session(
        database,
        OptimizerOptions(enable_cse=False, enable_fusion=False),
        shared_scans=False,
        plan_cache_size=0,
    )


def rows_of(execution) -> Dict[str, Rows]:
    """Query name -> rows of one executed batch."""
    return {result.name: result.rows for result in execution.results}


def _exact_part(row: Sequence) -> str:
    return repr(tuple(v for v in row if not isinstance(v, float)))


def rows_match(got: Rows, want: Rows) -> bool:
    """Same multiset of rows, floats equal to relative precision.

    Shared plans pre-aggregate and so re-associate float sums; large
    aggregates then agree only to relative precision (the comparison the
    Fig-8 benchmark uses)."""
    if len(got) != len(want):
        return False
    key = lambda row: (_exact_part(row), repr(row))  # noqa: E731
    for g, w in zip(sorted(got, key=key), sorted(want, key=key)):
        if len(g) != len(w):
            return False
        for a, b in zip(g, w):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or not math.isclose(
                    a, b, rel_tol=1e-6, abs_tol=1e-6
                ):
                    return False
            elif a != b:
                return False
    return True


def batch_matches(got: Dict[str, Rows], want: Dict[str, Rows]) -> bool:
    """Every query of a batch matches its expected rows."""
    return got.keys() == want.keys() and all(
        rows_match(got[name], want[name]) for name in want
    )


def oracle_rows(reference: Session, sql: str) -> Dict[str, Rows]:
    """Rows from the row-at-a-time oracle (slow: a fixed sample only)."""
    return evaluate_batch(reference.database, reference.bind(sql))


def view_contents(manager) -> Dict[str, Rows]:
    """Every materialized view's stored rows."""
    contents = {}
    for view in manager.views():
        table = view.contents
        columns = [table.column(name).tolist() for name in table.column_names]
        contents[view.name] = list(zip(*columns))
    return contents
