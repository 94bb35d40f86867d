"""Vectorized expression evaluation over column frames.

A *frame* maps :class:`ColumnRef` objects (or arbitrary expression keys, for
computed columns like partial aggregates flowing out of a spool) to numpy
arrays of equal length. Evaluation is fully vectorized: predicates yield
boolean masks, arithmetic yields value arrays.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ExecutionError
from ..types import (
    NULL_CODE,
    STRING_CODE_DTYPE,
    DataType,
    StringColumn,
    unify_strings,
)
from .expressions import (
    AggExpr,
    And,
    Arithmetic,
    ArithmeticOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Not,
    Or,
)

Frame = Dict[Expr, np.ndarray]


class _RowCount(Expr):
    """Key of a zero-width column that carries a frame's row count when the
    frame has no other column (e.g. a cross-join side feeding only
    ``count(*)``)."""

    data_type = DataType.BOOL

    def __repr__(self) -> str:
        return "<row count>"


ROW_COUNT: Expr = _RowCount()


def frame_length(frame: Frame) -> int:
    """Row count of a frame (0 when empty)."""
    first = next(iter(frame.values()), None)
    return 0 if first is None else len(first)


def keep_row_count(frame: Frame, rows: int) -> Frame:
    """``frame``, or a :data:`ROW_COUNT`-only frame of ``rows`` rows when
    it has no columns, so the row count survives projecting every column
    away."""
    if frame:
        return frame
    return {ROW_COUNT: np.empty((rows, 0), dtype=bool)}


def evaluate(expr: Expr, frame: Frame) -> np.ndarray:
    """Evaluate ``expr`` against ``frame``, returning a column."""
    # Computed columns (e.g. spool outputs keyed by the original aggregate
    # expression) take precedence over structural evaluation.
    if expr in frame:
        return frame[expr]
    if isinstance(expr, Literal):
        n = frame_length(frame)
        if expr.data_type is DataType.STRING:
            return StringColumn(
                np.zeros(n, dtype=STRING_CODE_DTYPE),
                np.array([expr.value], dtype=object),
            )
        return np.full(n, expr.value, dtype=expr.data_type.numpy_dtype)
    if isinstance(expr, ColumnRef):
        raise ExecutionError(f"column {expr!r} not present in frame")
    if isinstance(expr, (Comparison, And, Or, Not)):
        # A boolean value is TRUE only where its three-valued result is.
        return evaluate3(expr, frame)[0]
    if isinstance(expr, Arithmetic):
        return _evaluate_arithmetic(expr, frame)
    if isinstance(expr, AggExpr):
        raise ExecutionError(
            f"aggregate {expr!r} reached the scalar evaluator; aggregates are "
            "computed by the aggregation iterator"
        )
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def _evaluate_arithmetic(expr: Arithmetic, frame: Frame) -> np.ndarray:
    left = evaluate(expr.left, frame)
    right = evaluate(expr.right, frame)
    op = expr.op
    if op is ArithmeticOp.ADD:
        return left + right
    if op is ArithmeticOp.SUB:
        return left - right
    if op is ArithmeticOp.MUL:
        return left * right
    if op is ArithmeticOp.DIV:
        divisor = right.astype(np.float64)
        if np.any(divisor == 0):
            raise ExecutionError("division by zero during evaluation")
        return left / divisor
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def evaluate_predicate(predicate: Optional[Expr], frame: Frame) -> np.ndarray:
    """Evaluate a (possibly absent) predicate to a boolean mask.

    SQL three-valued logic: a row passes only when the predicate is TRUE.
    NULLs (NaN in float columns, :data:`~repro.types.NULL_CODE` in STRING
    codes) appear only downstream of outer joins; frames without NULLs
    take the original two-valued fast path unchanged.
    """
    n = frame_length(frame)
    if predicate is None:
        return np.ones(n, dtype=bool)
    true_mask, _ = evaluate3(predicate, frame)
    if true_mask.dtype != np.bool_:
        if predicate.data_type is not DataType.BOOL:
            raise ExecutionError(f"predicate {predicate!r} is not boolean")
        true_mask = true_mask.astype(bool)
    return true_mask


# ---------------------------------------------------------------------------
# Kleene three-valued evaluation (NULL-bearing frames)
# ---------------------------------------------------------------------------


def null_mask(values: np.ndarray) -> Optional[np.ndarray]:
    """Boolean mask of NULL entries, or None when the column has none.

    Numeric NULLs are NaN (outer-join null extension casts to float64);
    string NULLs carry the NULL code.
    """
    if isinstance(values, StringColumn):
        mask = values.codes == NULL_CODE
        return mask if mask.any() else None
    if np.issubdtype(values.dtype, np.floating):
        mask = np.isnan(values)
        return mask if mask.any() else None
    return None


def evaluate3(expr: Expr, frame: Frame) -> "tuple[np.ndarray, Optional[np.ndarray]]":
    """Evaluate a boolean expression under Kleene logic.

    Returns ``(true_mask, null_mask)`` where ``null_mask`` is None when no
    row evaluates to NULL (the common, NULL-free case — zero overhead
    beyond the plain evaluator)."""
    if expr in frame:
        values = frame[expr]
        return (
            values if values.dtype == np.bool_ else values.astype(bool)
        ), None
    if isinstance(expr, Comparison):
        if expr.left.data_type is DataType.STRING:
            return _compare_strings(expr, frame)
        left = evaluate(expr.left, frame)
        right = evaluate(expr.right, frame)
        nulls = _combine_nulls(null_mask(left), null_mask(right))
        raw = _raw_comparison(expr.op, left, right)
        if nulls is None:
            return raw, None
        return raw & ~nulls, nulls
    if isinstance(expr, And):
        true = None
        false = None
        for term in expr.terms:
            t, n = evaluate3(term, frame)
            f = ~t if n is None else ~t & ~n
            true = t if true is None else true & t
            false = f if false is None else false | f
        assert true is not None and false is not None
        nulls = ~true & ~false
        return true, nulls if nulls.any() else None
    if isinstance(expr, Or):
        true = None
        false = None
        for term in expr.terms:
            t, n = evaluate3(term, frame)
            f = ~t if n is None else ~t & ~n
            true = t if true is None else true | t
            false = f if false is None else false & f
        assert true is not None and false is not None
        nulls = ~true & ~false
        return true, nulls if nulls.any() else None
    if isinstance(expr, Not):
        t, n = evaluate3(expr.term, frame)
        if n is None:
            return ~t.astype(bool), None
        return ~t & ~n, n
    # Anything else (literals, frame-resident boolean columns).
    values = evaluate(expr, frame)
    return values.astype(bool) if values.dtype != np.bool_ else values, None


def _combine_nulls(
    a: Optional[np.ndarray], b: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _raw_comparison(
    op: ComparisonOp, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    if op is ComparisonOp.EQ:
        return left == right
    if op is ComparisonOp.NE:
        return left != right
    if op is ComparisonOp.LT:
        return left < right
    if op is ComparisonOp.LE:
        return left <= right
    if op is ComparisonOp.GT:
        return left > right
    if op is ComparisonOp.GE:
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _compare_strings(
    expr: Comparison, frame: Frame
) -> "tuple[np.ndarray, Optional[np.ndarray]]":
    """A STRING comparison over dictionary codes.

    A literal is located in the column's sorted dictionary by binary
    search, so present, absent and out-of-range literals all reduce to one
    code comparison; two columns are first mapped onto one dictionary."""
    op, left_expr, right_expr = expr.op, expr.left, expr.right
    if isinstance(left_expr, Literal) and not isinstance(right_expr, Literal):
        op, left_expr, right_expr = op.flipped(), right_expr, left_expr
    left = evaluate(left_expr, frame)
    if isinstance(right_expr, Literal):
        raw = _codes_vs_value(op, left, right_expr.value)
        codes = left.codes
        nulls = codes == NULL_CODE
    else:
        _, (codes, right_codes) = unify_strings(
            [left, evaluate(right_expr, frame)]
        )
        raw = _raw_comparison(op, codes, right_codes)
        nulls = (codes == NULL_CODE) | (right_codes == NULL_CODE)
    if not nulls.any():
        return raw, None
    return raw & ~nulls, nulls


def _codes_vs_value(
    op: ComparisonOp, column: StringColumn, value: str
) -> np.ndarray:
    """``column <op> value`` via the value's insertion points ``lo``/``hi``
    in the dictionary (``hi == lo + 1`` iff the value is present)."""
    codes = column.codes
    lo = int(np.searchsorted(column.dictionary, value, side="left"))
    hi = int(np.searchsorted(column.dictionary, value, side="right"))
    if op is ComparisonOp.EQ:
        return codes == lo if hi > lo else np.zeros(len(codes), dtype=bool)
    if op is ComparisonOp.NE:
        return codes != lo if hi > lo else np.ones(len(codes), dtype=bool)
    if op is ComparisonOp.LT:
        return codes < lo
    if op is ComparisonOp.LE:
        return codes < hi
    if op is ComparisonOp.GT:
        return codes >= hi
    if op is ComparisonOp.GE:
        return codes >= lo
    raise ExecutionError(f"unknown comparison operator {op!r}")
