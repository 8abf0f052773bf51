"""CSV and JSON-records serialization tests."""

import io
import json

import pytest

from repro.api.http import Response
from repro.dataframe import (
    DataFrame,
    read_csv,
    read_csv_stream,
    read_csv_text,
    to_csv_text,
    write_csv,
)


class TestCSV:
    def test_roundtrip_preserves_values(self, mixed_frame):
        again = read_csv_text(to_csv_text(mixed_frame))
        assert again == mixed_frame

    def test_missing_cells_roundtrip(self):
        frame = DataFrame.from_dict({"a": [1, None], "b": [None, "x"]})
        again = read_csv_text(to_csv_text(frame))
        assert again.at(1, "a") is None
        assert again.at(0, "b") is None

    def test_null_tokens_parsed(self):
        frame = read_csv_text("a,b\nNA,1\n?,2\n")
        assert frame.column("a").missing_count() == 2

    def test_header_required(self):
        with pytest.raises(ValueError):
            read_csv_text("")

    def test_duplicate_header_raises_like_chunked_reader(self):
        # Every reader runs one kernel, so none keeps only the last
        # of two same-named columns.
        def read_stream(text):
            return read_csv_stream(io.StringIO(text))

        for read in (read_csv_text, read_stream):
            with pytest.raises(ValueError, match="duplicate column 'a'"):
                read("a,a\n1,2\n")

    def test_file_roundtrip(self, tmp_path, mixed_frame):
        path = tmp_path / "sub" / "data.csv"
        write_csv(mixed_frame, path)
        assert read_csv(path) == mixed_frame

    def test_tsv_delimiter(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("a\tb\n1\tx\n", encoding="utf-8")
        frame = read_csv(path, delimiter="\t")
        assert frame.at(0, "b") == "x"

    def test_quoted_commas(self):
        frame = read_csv_text('a,b\n"x,y",1\n')
        assert frame.at(0, "a") == "x,y"

    def test_dtype_override(self):
        frame = read_csv_text("zip\n01234\n", dtypes={"zip": "string"})
        assert frame.column("zip").dtype == "string"


def json_roundtrip(frame):
    """Rows out as the REST app sends them, back in as it ingests them."""
    wire = Response(body=frame.to_records()).to_bytes()
    return DataFrame.from_records(json.loads(wire))


class TestJSON:
    def test_roundtrip(self, mixed_frame):
        again = json_roundtrip(mixed_frame)
        assert again.to_dict() == mixed_frame.to_dict()

    def test_none_survives(self):
        frame = DataFrame.from_dict({"a": [None, 2]})
        again = json_roundtrip(frame)
        assert again.at(0, "a") is None
