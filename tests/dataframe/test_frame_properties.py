"""Property-based tests for the DataFrame substrate (hypothesis)."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.http import Response
from repro.dataframe import DataFrame, to_csv_text

from csv_helpers import read_csv_text

cell_values = st.one_of(
    st.none(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x024F
        ),
        min_size=1,
        max_size=8,
    ),
)


@st.composite
def frames(draw) -> DataFrame:
    n_columns = draw(st.integers(min_value=1, max_value=4))
    n_rows = draw(st.integers(min_value=1, max_value=12))
    data = {}
    for i in range(n_columns):
        data[f"c{i}"] = draw(
            st.lists(cell_values, min_size=n_rows, max_size=n_rows)
        )
    return DataFrame.from_dict(data)


@settings(max_examples=40, deadline=None)
@given(frames())
def test_csv_roundtrip_is_idempotent(frame):
    """One write/read pass normalizes; further passes are lossless.

    Type-inferring CSV is legitimately lossy on the first pass for strings
    that *look* like numbers/booleans/nulls ("007" -> 7, "t" -> True), so
    the invariant is: after one normalization pass the representation is a
    fixpoint, and shape/missing-structure are always preserved.
    """
    normalized = read_csv_text(to_csv_text(frame))
    assert normalized.shape == frame.shape
    twice = read_csv_text(to_csv_text(normalized))
    assert twice == normalized


@settings(max_examples=40, deadline=None)
@given(frames())
def test_csv_roundtrip_preserves_numbers_and_missing(frame):
    """Numeric cells and missing cells survive the first pass exactly."""
    again = read_csv_text(to_csv_text(frame))
    for name in frame.column_names:
        for row in range(frame.num_rows):
            original = frame.at(row, name)
            restored = again.at(row, name)
            if original is None:
                assert restored is None
            elif isinstance(original, (int, float)) and not isinstance(
                original, bool
            ):
                assert restored is not None
                assert abs(float(restored) - float(original)) <= 1e-9 * max(
                    1.0, abs(float(original))
                )


@settings(max_examples=40, deadline=None)
@given(frames())
def test_json_roundtrip(frame):
    """Rows sent as a REST response body read back as records."""
    wire = Response(body=frame.to_records()).to_bytes()
    again = DataFrame.from_records(json.loads(wire))
    assert again.shape == frame.shape


@settings(max_examples=40, deadline=None)
@given(frames(), st.integers(min_value=0, max_value=11))
def test_take_then_at_matches_source(frame, row_seed):
    row = row_seed % frame.num_rows
    taken = frame.take([row])
    for name in frame.column_names:
        assert taken.at(0, name) == frame.at(row, name) or (
            taken.at(0, name) is None and frame.at(row, name) is None
        )


@settings(max_examples=40, deadline=None)
@given(frames())
def test_copy_equality_and_independence(frame):
    clone = frame.copy()
    assert clone == frame
    name = frame.column_names[0]
    before = frame.at(0, name)
    clone.set_at(0, name, "sentinel-value")
    # Mutating the clone never leaks into the original.
    assert frame.at(0, name) == before or (
        before is None and frame.at(0, name) is None
    )


@settings(max_examples=40, deadline=None)
@given(frames())
def test_missing_cells_match_missing_count(frame):
    assert len(frame.missing_cells()) == frame.missing_count()
