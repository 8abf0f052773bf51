"""Every ingest takes one path: CSV lines parsed once on their way to disk.

A ``csv_text`` body, an upload and a CSV file stream their text as is;
``records``, preloaded data, SQL tables and ``DataLens.ingest_frame``
stream their frame's CSV, rendered a slice at a time. The differential
test pins each route's session frame to the ingested frame rendered to
CSV and parsed back, and the call counts pin the passes.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from repro.api import TestClient, create_app
from repro.api.http import Response
from repro.core import DataLens
from repro.dataframe import DataFrame, to_csv_text, write_csv
from repro.dataframe import io as csv_io
from repro.ingestion import nasa

from csv_helpers import csv_tables, read_csv_text, render, snapshot


def _two_pass(frame: DataFrame) -> DataFrame:
    """``frame`` rendered to CSV and parsed back: the session frame every
    route must give."""
    return read_csv_text(to_csv_text(frame))


@settings(max_examples=50, deadline=None)
@given(table=csv_tables())
def test_every_route_gives_the_two_pass_session_frame(tmp_path_factory, table):
    text = render(*table)
    root = tmp_path_factory.mktemp("ingest")
    source = root / "upload.csv"
    source.write_text(text, encoding="utf-8", newline="")
    lens = DataLens(root / "workspace")

    def from_file():
        with open(source, newline="", encoding="utf-8") as handle:
            return lens.ingest_csv_stream("file", handle)

    try:
        parsed = read_csv_text(text)
    except (ValueError, OverflowError) as error:
        # The routes fail as the first parse did, and commit nothing.
        def from_text():
            return lens.ingest_csv_stream("text", io.StringIO(text))

        for ingest in (from_file, from_text):
            with pytest.raises(type(error)) as raised:
                ingest()
            assert str(raised.value) == str(error)
        assert lens.list_datasets() == []
        return
    expected = snapshot(_two_pass(parsed))
    records = json.loads(Response(body=parsed.to_records()).to_bytes())
    router = create_app(lens, workers=1)
    try:
        client = TestClient(router)
        response = client.post("/datasets", {"name": "text", "csv_text": text})
        assert response.status == 200, response.body
        if records:
            body = {"name": "records", "records": records}
            response = client.post("/datasets", body)
            assert response.status == 200, response.body
    finally:
        router.job_queue.shutdown()
    from_file()
    lens.ingest_frame("frame", parsed)
    for name in ("text", "file", "frame"):
        assert snapshot(lens.session(name).frame) == expected, name
    if records:
        assert snapshot(lens.session("records").frame) == snapshot(
            _two_pass(DataFrame.from_records(records))
        )
    # Each upload version holds its session's frame.
    for name in lens.list_datasets():
        session = lens.session(name)
        assert snapshot(session.delta.read(0)) == snapshot(session.frame), name


@contextmanager
def _counted_passes(monkeypatch):
    """Count calls of the parse kernel and of the render kernel."""
    calls = Counter()
    with monkeypatch.context() as patch:
        for attr, kind in (("_parse_csv", "parse"), ("_render_csv", "render")):
            original = getattr(csv_io, attr)

            def counted(*args, original=original, kind=kind, **kwargs):
                calls[kind] += 1
                return original(*args, **kwargs)

            patch.setattr(csv_io, attr, counted)
        yield calls


class TestOneParse:
    """Text is parsed once and never rendered; a frame is rendered once
    and parsed once. No ingest re-reads the file it wrote."""

    @pytest.fixture
    def client(self, tmp_path):
        router = create_app(DataLens(tmp_path / "workspace"), workers=1)
        yield TestClient(router)
        router.job_queue.shutdown()

    def test_csv_text_parses_once(self, client, monkeypatch):
        text = to_csv_text(nasa(40))
        with _counted_passes(monkeypatch) as calls:
            response = client.post("/datasets", {"name": "d", "csv_text": text})
        assert response.status == 200
        assert calls == {"parse": 1}

    def test_upload_parses_once(self, client, monkeypatch):
        text = to_csv_text(nasa(40))
        with _counted_passes(monkeypatch) as calls:
            assert client.post_csv("/datasets/d/upload", text).status == 200
        assert calls == {"parse": 1}

    def test_file_parses_once(self, tmp_path, monkeypatch):
        lens = DataLens(tmp_path / "workspace")
        write_csv(nasa(40), tmp_path / "nasa.csv")
        with _counted_passes(monkeypatch) as calls:
            with open(tmp_path / "nasa.csv", newline="", encoding="utf-8") as handle:
                session = lens.ingest_csv_stream("nasa", handle)
        assert calls == {"parse": 1}
        assert session.frame == nasa(40)

    def test_records_render_and_parse_once(self, client, monkeypatch):
        records = nasa(40).to_records()
        with _counted_passes(monkeypatch) as calls:
            response = client.post("/datasets", {"name": "d", "records": records})
        assert response.status == 200
        assert calls == {"render": 1, "parse": 1}

    def test_frame_renders_and_parses_once(self, tmp_path, monkeypatch):
        lens = DataLens(tmp_path / "workspace")
        frame = nasa(40)
        with _counted_passes(monkeypatch) as calls:
            session = lens.ingest_frame("d", frame)
        assert calls == {"render": 1, "parse": 1}
        assert session.frame == frame
        assert session.workspace.dirty_path.read_text(encoding="utf-8") == (
            to_csv_text(frame)
        )

    def test_reopen_parses_the_newest_version_once(self, tmp_path, monkeypatch):
        DataLens(tmp_path / "workspace").ingest_frame("d", nasa(40))
        with _counted_passes(monkeypatch) as calls:
            DataLens(tmp_path / "workspace").session("d")
        assert calls == {"parse": 1}
