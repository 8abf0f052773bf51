"""Type system for the columnar DataFrame substrate.

The frame stores one logical dtype per column.  Missing values are always
represented as ``None`` at the Python level; the storage engine keeps each
column as a typed ``numpy`` array plus a boolean null mask (see
:mod:`repro.dataframe.column` for the full storage contract).

Logical dtype ↔ numpy backing dtype:

===========  =====================  ===========================
logical      numpy backing          fill value at masked slots
===========  =====================  ===========================
``int``      ``int64`` (``object``  ``0``
             when values overflow)
``float``    ``float64``            ``0.0``
``bool``     ``bool_``              ``False``
``string``   ``object``             ``None``
===========  =====================  ===========================

Key semantics under the codes-based relational kernels
(:mod:`repro.dataframe.ops`):

* **Key ordering** — sort order is ``numbers < strings < missing``;
  numbers compare numerically across int/float/bool (exactly, via
  Python semantics — huge object-backed ints never collide through
  float rounding), strings lexicographically. Ties always keep original
  row order (stable), in both sort directions.
* **Null keys, group-by vs join** — grouping treats ``None`` as a value
  (``None`` matches ``None``; every missing cell of a column lands in
  one group, marked by a private sentinel in key tuples); joining
  follows SQL semantics instead (a row whose key tuple contains any
  missing cell matches nothing, on either side).
* **Cross-dtype keys** — join/group equality follows Python ``==``:
  ``2 == 2.0 == True`` matches across numeric columns of different
  dtypes, while strings never equal numbers.

Chunked storage (:mod:`repro.dataframe.chunked`) keeps one logical dtype
per *column*, never per shard: only the numpy backing may differ between
shards of an ``int`` column (int64 vs. object after an overflow), and
concatenation normalizes to object-backed Python ints — the same
representation :func:`repro.dataframe.column._pack` chooses monolithically.
Streaming ingestion folds :func:`infer_dtype` incrementally (the
``saw_*`` flags ignore missing cells, so an all-missing chunk never
forces ``string``) and converts earlier shards to the final dtype when
the scan ends. Numeric coercion composes along the lattice
(``coerce(coerce(v, d1), d2) == coerce(v, d2)`` for numeric
``d1 <= d2``); the text a numeric shard cannot give back when the
column ends up ``string`` (bool tokens, ints beyond 2**53 in a float
shard) is kept in a per-shard widening record (see
:mod:`repro.dataframe.io`), keeping streamed columns bit-identical to a
whole-table pass.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

INT = "int"
FLOAT = "float"
BOOL = "bool"
STRING = "string"

DTYPES = (INT, FLOAT, BOOL, STRING)

#: Preferred numpy backing dtype per logical dtype (``int`` falls back to
#: ``object`` when a value exceeds the int64 range).
NUMPY_DTYPES = {
    INT: np.dtype(np.int64),
    FLOAT: np.dtype(np.float64),
    BOOL: np.dtype(np.bool_),
    STRING: np.dtype(object),
}

#: Placeholder stored in the data array where the null mask is True.
FILL_VALUES = {INT: 0, FLOAT: 0.0, BOOL: False, STRING: None}


def factorize_objects(values: "np.ndarray | list") -> tuple[np.ndarray, int]:
    """Dense first-seen integer codes for hashable objects (no missing).

    Shared by :meth:`repro.dataframe.Column.codes` and the categorical
    correlation kernels — a dict factorization is ~2.5x faster than
    ``np.unique`` on object arrays, which sorts with Python comparisons.
    """
    materialized = values.tolist() if isinstance(values, np.ndarray) else values
    mapping: dict = {}
    codes = np.array(
        [mapping.setdefault(value, len(mapping)) for value in materialized],
        dtype=np.int64,
    )
    return codes, len(mapping)


def pack_bool_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Pack each row of a boolean matrix into one int64 bit key.

    Returns ``(keys, weights)`` where ``keys[i] = sum(matrix[i] << j)``
    and ``weights[j] = 1 << j`` (for decoding), or None when the matrix
    has more than 62 columns and the keys would overflow int64.
    """
    n_columns = matrix.shape[1]
    if n_columns > 62:
        return None
    weights = np.left_shift(np.int64(1), np.arange(n_columns, dtype=np.int64))
    return matrix.astype(np.int64) @ weights, weights

_TRUE_STRINGS = {"true", "yes", "t", "1"}
_FALSE_STRINGS = {"false", "no", "f", "0"}

#: String tokens commonly used to encode missing values in CSV files.
NULL_TOKENS = {"", "na", "n/a", "nan", "null", "none", "?", "-", "missing"}


def is_missing(value: Any) -> bool:
    """Return True if ``value`` represents a missing cell."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


def is_null_token(text: str) -> bool:
    """Return True if a raw CSV token should be parsed as missing."""
    return text.strip().lower() in NULL_TOKENS


def infer_dtype(values: Iterable[Any]) -> str:
    """Infer the narrowest dtype that can hold every non-missing value.

    The lattice is ``bool < int < float < string``; any value that cannot
    be interpreted numerically widens the column to ``string``.
    """
    saw_bool = False
    saw_int = False
    saw_float = False
    saw_any = False
    for value in values:
        if is_missing(value):
            continue
        saw_any = True
        if isinstance(value, bool):
            saw_bool = True
        elif isinstance(value, int):
            saw_int = True
        elif isinstance(value, float):
            saw_float = True
        else:
            return STRING
    if not saw_any:
        return STRING
    if saw_float:
        return FLOAT
    if saw_int:
        return INT
    if saw_bool:
        return BOOL
    return STRING


def parse_token(text: str) -> Any:
    """Parse one raw CSV token into ``None``/bool/int/float/str."""
    stripped = text.strip()
    if is_null_token(stripped):
        return None
    lowered = stripped.lower()
    if lowered in _TRUE_STRINGS and lowered in {"true", "t", "yes"}:
        return True
    if lowered in _FALSE_STRINGS and lowered in {"false", "f", "no"}:
        return False
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        value = float(stripped)
    except ValueError:
        return stripped
    return value


def coerce(value: Any, dtype: str) -> Any:
    """Coerce one value to ``dtype``; missing values pass through as None.

    Raises ``ValueError`` when the value cannot be represented.
    """
    if is_missing(value):
        return None
    if dtype == STRING:
        return value if isinstance(value, str) else _format_value(value)
    if dtype == FLOAT:
        return float(value)
    if dtype == INT:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, float):
            if not value.is_integer():
                raise ValueError(f"cannot coerce {value!r} to int")
            return int(value)
        if isinstance(value, int):
            return value
        return int(str(value).strip())
    if dtype == BOOL:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value)
        lowered = str(value).strip().lower()
        if lowered in _TRUE_STRINGS:
            return True
        if lowered in _FALSE_STRINGS:
            return False
        raise ValueError(f"cannot coerce {value!r} to bool")
    raise ValueError(f"unknown dtype {dtype!r}")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def is_numeric_dtype(dtype: str) -> bool:
    """Return True for dtypes that support arithmetic."""
    return dtype in (INT, FLOAT)


def common_dtype(left: str, right: str) -> str:
    """Return the join of two dtypes on the widening lattice."""
    if left == right:
        return left
    pair = {left, right}
    if pair <= {INT, FLOAT, BOOL}:
        if FLOAT in pair:
            return FLOAT
        return INT
    return STRING
