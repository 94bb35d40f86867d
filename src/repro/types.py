"""Column data types and value handling.

The engine stores data column-wise in numpy arrays. Each logical column type
maps to a numpy dtype and carries coercion and comparison rules. Dates are
stored as integer days since 1970-01-01 so that range predicates on dates are
ordinary integer comparisons (the same trick commercial engines use).

STRING columns are dictionary-encoded (:class:`StringColumn`): int32 codes
into an immutable, sorted per-column dictionary. Values are validated and
encoded once, where external input enters storage; the engine then
compares, joins, groups, sorts and takes MIN/MAX over the codes and decodes
only at the result boundary (:func:`decode_column`).
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any, List, Sequence, Tuple

import numpy as np

from .errors import ExecutionError, StorageError

_EPOCH = _dt.date(1970, 1, 1)


class DataType(enum.Enum):
    """Logical column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used to store a column of this type."""
        return np.dtype(_NUMPY_DTYPES[self])

    @property
    def byte_width(self) -> int:
        """Approximate storage width in bytes, used by the cost model."""
        return _BYTE_WIDTHS[self]

    @property
    def is_numeric(self) -> bool:
        """Whether values order/compare numerically (INT/FLOAT/DATE)."""
        return self in (DataType.INT, DataType.FLOAT, DataType.DATE)


_NUMPY_DTYPES = {
    DataType.INT: np.int64,
    DataType.FLOAT: np.float64,
    DataType.STRING: object,
    DataType.DATE: np.int64,
    DataType.BOOL: np.bool_,
}

# ``numpy_dtype`` of STRING is the dtype of *decoded* values; stored STRING
# columns are StringColumn codes (STRING_CODE_DTYPE).
# STRING width is a nominal average; TPC-H varchar columns average ~25 bytes.
_BYTE_WIDTHS = {
    DataType.INT: 8,
    DataType.FLOAT: 8,
    DataType.STRING: 25,
    DataType.DATE: 8,
    DataType.BOOL: 1,
}


def date_to_int(value: "_dt.date | str | int") -> int:
    """Convert a date (``datetime.date``, ISO string, or day number) to days
    since the epoch."""
    if isinstance(value, bool):
        raise StorageError(f"cannot treat bool {value!r} as a date")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    if isinstance(value, _dt.date):
        return (value - _EPOCH).days
    raise StorageError(f"cannot convert {value!r} to a date")


def int_to_date(days: int) -> _dt.date:
    """Inverse of :func:`date_to_int`."""
    return _EPOCH + _dt.timedelta(days=int(days))


def coerce_value(value: Any, data_type: DataType) -> Any:
    """Coerce a python value to the storage representation of ``data_type``.

    Raises :class:`StorageError` when the value cannot represent the type.
    """
    if value is None:
        raise StorageError("NULL values are not supported by this engine")
    if data_type is DataType.INT:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise StorageError(f"expected int, got {value!r}")
        return int(value)
    if data_type is DataType.FLOAT:
        if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            raise StorageError(f"expected float, got {value!r}")
        return float(value)
    if data_type is DataType.STRING:
        if not isinstance(value, str):
            raise StorageError(f"expected str, got {value!r}")
        return value
    if data_type is DataType.DATE:
        return date_to_int(value)
    if data_type is DataType.BOOL:
        if not isinstance(value, (bool, np.bool_)):
            raise StorageError(f"expected bool, got {value!r}")
        return bool(value)
    raise StorageError(f"unknown data type {data_type!r}")


def coerce_column(
    values: Any, data_type: DataType, allow_null: bool = False
) -> np.ndarray:
    """Coerce an iterable of values to a numpy column of ``data_type``.

    STRING values become a :class:`StringColumn`; an engine-produced
    StringColumn passes after a code-range check (``allow_null`` admits
    the NULL code, which only work tables may hold)."""
    if data_type is DataType.STRING:
        return encode_strings(values, allow_null)
    if isinstance(values, np.ndarray) and values.dtype == data_type.numpy_dtype:
        return values
    coerced = [coerce_value(v, data_type) for v in values]
    return np.array(coerced, dtype=data_type.numpy_dtype)


# ---------------------------------------------------------------------------
# Dictionary-encoded strings
# ---------------------------------------------------------------------------

#: dtype of STRING codes.
STRING_CODE_DTYPE = np.dtype(np.int32)
#: code of a NULL string (outer-join null extension); below every value code.
NULL_CODE = -1


class StringColumn(np.ndarray):
    """A STRING column: int32 codes into a sorted dictionary.

    ``dictionary`` is an object array of distinct ``str`` in ascending
    order, shared (never mutated) by every column derived from this one;
    code ``i`` stands for ``dictionary[i]`` and :data:`NULL_CODE` for NULL.
    Because the dictionary is sorted, code order is string order. Slicing,
    masking and fancy indexing keep the dictionary; numpy ufuncs are
    refused, since two columns' codes compare only over one dictionary
    (see :func:`unify_strings`) — kernels work on :attr:`codes`.
    """

    dictionary: np.ndarray

    def __new__(cls, codes: Any, dictionary: np.ndarray) -> "StringColumn":
        column = np.asarray(codes, dtype=STRING_CODE_DTYPE).view(cls)
        column.dictionary = dictionary
        return column

    def __array_finalize__(self, obj: Any) -> None:
        self.dictionary = getattr(obj, "dictionary", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        raise ExecutionError(
            f"numpy {ufunc.__name__} over STRING codes; use the dictionary"
        )

    @property
    def codes(self) -> np.ndarray:
        """The codes as a plain int32 array (a view, no copy)."""
        return self.view(np.ndarray)

    def decode(self) -> np.ndarray:
        """The values as an object array (None for NULL)."""
        # NULL_CODE (-1) indexes the appended None.
        return np.append(self.dictionary, None)[self.codes]


def encode_strings(values: Any, allow_null: bool = False) -> StringColumn:
    """Validate and dictionary-encode STRING input.

    External values are checked one by one (a non-str raises
    :class:`StorageError`, as :func:`coerce_value` would); a StringColumn
    gets a dtype and code-range check instead of a walk."""
    if isinstance(values, StringColumn):
        _check_codes(values, allow_null)
        return values
    items = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if any(not issubclass(kind, str) for kind in set(map(type, items))):
        # Raises, naming the first value that is not a str.
        coerce_value(
            next(v for v in items if not isinstance(v, str)), DataType.STRING
        )
    dictionary = sorted(set(items))
    lookup = {value: code for code, value in enumerate(dictionary)}
    codes = np.fromiter(
        map(lookup.__getitem__, items),
        dtype=STRING_CODE_DTYPE,
        count=len(items),
    )
    return StringColumn(codes, np.array(dictionary, dtype=object))


def _check_codes(column: StringColumn, allow_null: bool) -> None:
    if column.dtype != STRING_CODE_DTYPE or column.dictionary is None:
        raise StorageError(f"malformed STRING column of dtype {column.dtype}")
    if len(column) == 0:
        return
    codes = column.codes
    low = NULL_CODE if allow_null else 0
    if int(codes.min()) < low or int(codes.max()) >= len(column.dictionary):
        raise StorageError(
            "STRING codes out of range for their dictionary"
            + ("" if allow_null else " (NULL values are not supported)")
        )


def _same_dictionary(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (len(a) == len(b) and bool(np.array_equal(a, b)))


def unify_strings(
    columns: Sequence[StringColumn],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """One sorted dictionary over several STRING columns, and each column's
    codes re-mapped into it (NULL stays :data:`NULL_CODE`).

    Columns that already share a dictionary keep their codes (no copy)."""
    first = columns[0].dictionary
    if all(_same_dictionary(c.dictionary, first) for c in columns[1:]):
        return first, [c.codes for c in columns]
    merged = np.array(
        sorted(set().union(*(c.dictionary.tolist() for c in columns))),
        dtype=object,
    )
    remapped = []
    for column in columns:
        remap = np.searchsorted(merged, column.dictionary).astype(
            STRING_CODE_DTYPE
        )
        remapped.append(np.append(remap, NULL_CODE)[column.codes])
    return merged, remapped


def concat_columns(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` that merges STRING dictionaries."""
    if isinstance(parts[0], StringColumn):
        dictionary, codes = unify_strings(parts)  # type: ignore[arg-type]
        return StringColumn(np.concatenate(codes), dictionary)
    return np.concatenate(parts)


def decode_column(values: np.ndarray) -> np.ndarray:
    """A column with STRING codes decoded to values; others unchanged."""
    if isinstance(values, StringColumn):
        return values.decode()
    return values


def literal_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a python literal."""
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, (int, np.integer)):
        return DataType.INT
    if isinstance(value, (float, np.floating)):
        return DataType.FLOAT
    if isinstance(value, _dt.date):
        return DataType.DATE
    if isinstance(value, str):
        return DataType.STRING
    raise StorageError(f"cannot infer a column type for literal {value!r}")


def common_numeric_type(left: DataType, right: DataType) -> DataType:
    """The result type of an arithmetic operation between two numeric types."""
    if not (left.is_numeric and right.is_numeric):
        raise StorageError(f"non-numeric operands: {left}, {right}")
    if DataType.FLOAT in (left, right):
        return DataType.FLOAT
    if left is DataType.DATE and right is DataType.DATE:
        return DataType.INT
    if DataType.DATE in (left, right):
        return DataType.DATE
    return DataType.INT


def comparable(left: DataType, right: DataType) -> bool:
    """Whether values of the two types may be compared with <,=,> etc."""
    if left == right:
        return True
    numeric = (DataType.INT, DataType.FLOAT)
    if left in numeric and right in numeric:
        return True
    # Dates compare against ints (day numbers) and date literals.
    datelike = (DataType.DATE, DataType.INT)
    if left in datelike and right in datelike:
        return True
    return False
