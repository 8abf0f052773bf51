"""Columnar DataFrame substrate (pandas substitute for this reproduction)."""

from .chunked import (
    DEFAULT_CHUNK_SIZE,
    ChunkedColumn,
    ChunkedFrame,
    chunk_lengths_for,
    resolve_chunk_size,
)
from .column import Column
from .frame import Cell, DataFrame
from .io import (
    csv_lines,
    read_csv,
    read_csv_chunked,
    read_csv_stream,
    to_csv_text,
    write_csv,
)
from .joins import join, resolve_join_strategy, semi_join_mask
from .ops import group_by, sort_by
from .sort import external_sort_by
from .spill import (
    SpillCapacityError,
    SpillError,
    SpillStore,
    SpilledChunkedColumn,
    spill_frame,
    spill_store_of,
    sweep_orphaned_spill_dirs,
)
from .types import (
    BOOL,
    DTYPES,
    FLOAT,
    INT,
    NULL_TOKENS,
    STRING,
    coerce,
    common_dtype,
    infer_dtype,
    is_missing,
    is_numeric_dtype,
    parse_token,
)

__all__ = [
    "BOOL",
    "Cell",
    "ChunkedColumn",
    "ChunkedFrame",
    "Column",
    "DEFAULT_CHUNK_SIZE",
    "DTYPES",
    "DataFrame",
    "FLOAT",
    "INT",
    "NULL_TOKENS",
    "STRING",
    "chunk_lengths_for",
    "coerce",
    "common_dtype",
    "csv_lines",
    "external_sort_by",
    "group_by",
    "infer_dtype",
    "is_missing",
    "is_numeric_dtype",
    "join",
    "parse_token",
    "resolve_join_strategy",
    "semi_join_mask",
    "read_csv",
    "read_csv_chunked",
    "read_csv_stream",
    "resolve_chunk_size",
    "sort_by",
    "SpillCapacityError",
    "SpillError",
    "SpillStore",
    "SpilledChunkedColumn",
    "spill_frame",
    "spill_store_of",
    "sweep_orphaned_spill_dirs",
    "to_csv_text",
    "write_csv",
]
