"""Dense-range ``np.unique`` for integer key columns.

Join and group-by keys are factorized over and over: per key column, when
mixing multi-column keys, and when numbering groups. Those arrays are
mostly integer codes whose value span is close to their length (surrogate
keys, dictionary codes of STRING columns, previously factorized codes), so
a presence bitmap plus a cumulative sum replaces ``np.unique``'s sort.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..types import StringColumn

#: Take the dense path when ``max - min + 1 <= DENSE_SPAN_FACTOR * n``.
DENSE_SPAN_FACTOR = 4


def unique(
    values: np.ndarray,
    return_index: bool = False,
    return_inverse: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, ...]]:
    """``np.unique(values, return_index, return_inverse)`` for 1-D arrays.

    Integer arrays whose span fits :data:`DENSE_SPAN_FACTOR` run in
    O(n + span): the bitmap marks present values, its cumulative sum ranks
    them, and ``np.minimum.at`` finds first occurrences. Every output is
    byte-identical to ``np.unique``'s (same dtypes, ascending uniques,
    first-occurrence indices); other inputs go to ``np.unique`` itself.
    """
    n = len(values)
    if (
        n == 0
        or values.ndim != 1
        or values.dtype.kind not in "iu"
        or values.dtype == np.uint64  # may not fit intp offsets
    ):
        return np.unique(
            values, return_index=return_index, return_inverse=return_inverse
        )
    low = values.min()
    span = int(values.max()) - int(low) + 1
    if span > DENSE_SPAN_FACTOR * n:
        return np.unique(
            values, return_index=return_index, return_inverse=return_inverse
        )
    offsets = values.astype(np.intp, copy=False) - int(low)
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    uniques = (np.flatnonzero(present) + int(low)).astype(values.dtype)
    if not (return_index or return_inverse):
        return uniques
    outputs = [uniques]
    if return_index:
        first = np.full(span, n, dtype=np.intp)
        np.minimum.at(first, offsets, np.arange(n, dtype=np.intp))
        outputs.append(first[present])
    if return_inverse:
        rank = np.cumsum(present, dtype=np.intp) - 1
        outputs.append(rank[offsets])
    return tuple(outputs)


def factorize_column(col: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted uniques, int64 inverse codes)`` for one key column; a
    STRING column factorizes its codes (so its uniques are codes)."""
    values = col.codes if isinstance(col, StringColumn) else col
    uniques, inverse = unique(values, return_inverse=True)
    return uniques, inverse.astype(np.int64, copy=False)
