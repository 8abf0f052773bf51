"""Shared fixtures: canonical frames, corrupted datasets, random values."""

from __future__ import annotations

import sqlite3
from typing import Any

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.ingestion import make_dirty

#: Value-domain profiles for the seeded random-frame generator shared by
#: the equivalence suites. "wide" matches the storage-equivalence suite's
#: historical domains; "narrow" matches the relational suite's (small key
#: cardinality so group-by/join collisions actually happen); bigint
#: values exceed the int64 range to force object-backed storage, with a
#: spread wide enough (1e12 at 1e25 magnitude) that float64 bin edges
#: stay representable for histogram kernels.
_VALUE_PROFILES = {
    "wide": dict(int_span=(-50, 50), float_decimals=3, string_levels=12),
    "narrow": dict(int_span=(-6, 6), float_decimals=2, string_levels=5),
}


def make_random_values(
    rng: np.random.Generator,
    dtype: str,
    n: int,
    missing: float,
    profile: str = "wide",
) -> list[Any]:
    """Seeded random cell values for one column (None marks missing).

    ``dtype`` is one of int/float/bool/string/bigint — bigint produces
    Python ints beyond the int64 range (object-backed columns).
    """
    spec = _VALUE_PROFILES[profile]
    values: list[Any] = []
    for _ in range(n):
        if rng.random() < missing:
            values.append(None)
        elif dtype == "int":
            low, high = spec["int_span"]
            values.append(int(rng.integers(low, high)))
        elif dtype == "float":
            values.append(
                float(np.round(rng.normal(), spec["float_decimals"]))
            )
        elif dtype == "bool":
            values.append(bool(rng.integers(0, 2)))
        elif dtype == "bigint":
            values.append(10**25 + int(rng.integers(0, 4)) * 10**12)
        else:
            values.append(f"v{int(rng.integers(0, spec['string_levels']))}")
    return values


@pytest.fixture(scope="session")
def random_values():
    """The shared seeded random-value generator (see make_random_values)."""
    return make_random_values


@pytest.fixture(scope="session")
def frame_to_sqlite():
    """Writer of a frame into a fresh SQLite table, for ``ingest_sql``."""

    def write(frame: DataFrame, database, table: str) -> None:
        quoted = ", ".join(f'"{name}"' for name in frame.column_names)
        placeholders = ", ".join("?" for _ in frame.column_names)
        with sqlite3.connect(str(database)) as connection:
            connection.execute(f"DROP TABLE IF EXISTS {table}")
            connection.execute(f"CREATE TABLE {table} ({quoted})")
            connection.executemany(
                f"INSERT INTO {table} VALUES ({placeholders})",
                [tuple(row.values()) for row in frame.iter_rows()],
            )

    return write


@pytest.fixture
def mixed_frame() -> DataFrame:
    """Small frame with numeric/string columns and missing cells."""
    return DataFrame.from_dict(
        {
            "id": [1, 2, 3, 4, 5, 6],
            "score": [1.5, 2.5, None, 4.0, 5.5, 100.0],
            "city": ["a", "b", "a", None, "b", "a"],
            "flag": [True, False, True, True, False, None],
        }
    )


@pytest.fixture
def fd_frame() -> DataFrame:
    """Frame where A -> B holds exactly and C is independent."""
    return DataFrame.from_dict(
        {
            "A": [1, 2, 3, 1, 2, 3, 1],
            "B": ["x", "y", "z", "x", "y", "z", "x"],
            "C": [10, 10, 20, 20, 10, 20, 10],
        }
    )


@pytest.fixture(scope="session")
def nasa_dirty():
    """Default-profile dirty NASA dataset (cached for the session)."""
    return make_dirty("nasa", seed=1)


@pytest.fixture(scope="session")
def hospital_dirty():
    return make_dirty("hospital", seed=2)


@pytest.fixture(scope="session")
def beers_dirty():
    return make_dirty("beers", seed=3)
