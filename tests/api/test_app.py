"""REST endpoint tests against the DataLens controller."""

import pytest

from repro.api import TestClient, create_app
from repro.core import DataLens


@pytest.fixture
def client(tmp_path, nasa_dirty):
    lens = DataLens(tmp_path / "workspace", seed=0)
    lens.ingest_frame("nasa", nasa_dirty.dirty)
    return TestClient(create_app(lens))


class TestDatasets:
    def test_health(self, client):
        response = client.get("/health")
        assert response.status == 200
        assert response.body["datasets"] == ["nasa"]

    def test_preview(self, client):
        response = client.get("/datasets/nasa", query={"limit": "5"})
        assert response.status == 200
        assert response.body["num_rows"] == 1503
        assert len(response.body["rows"]) == 5

    def test_unknown_dataset_404(self, client):
        assert client.get("/datasets/ghost").status == 404

    def test_ingest_records(self, client):
        response = client.post(
            "/datasets",
            {"name": "tiny", "records": [{"a": 1}, {"a": 2}]},
        )
        assert response.status == 200
        assert response.body["shape"] == [2, 1]

    def test_ingest_csv_text(self, client):
        response = client.post(
            "/datasets", {"name": "csvd", "csv_text": "a,b\n1,x\n"}
        )
        assert response.body["shape"] == [1, 2]

    def test_ingest_csv_text_duplicate_header_400(self, client):
        response = client.post(
            "/datasets", {"name": "dup", "csv_text": "a,b,a\n1,x,2\n"}
        )
        assert response.status == 400
        assert response.body == {"detail": "duplicate column 'a'"}
        assert "dup" not in client.get("/datasets").body["datasets"]

    def test_ingest_preloaded(self, client):
        response = client.post(
            "/datasets", {"name": "h", "preloaded": "hospital"}
        )
        assert response.body["dataset"] == "hospital"

    def test_ingest_requires_payload(self, client):
        assert client.post("/datasets", {"name": "x"}).status == 422


class TestPipelineEndpoints:
    def test_profile(self, client):
        response = client.get("/datasets/nasa/profile")
        assert response.status == 200
        assert response.body["overview"]["rows"] == 1503

    def test_quality(self, client):
        response = client.get("/datasets/nasa/quality")
        assert 0.0 <= response.body["overall"] <= 1.0

    def test_detect_then_detections(self, client):
        response = client.post(
            "/datasets/nasa/detect", {"tools": ["iqr", "mv_detector"]}
        )
        assert response.status == 200
        assert response.body["num_cells"] > 0
        listing = client.get("/datasets/nasa/detections")
        assert listing.body["num_cells"] == response.body["num_cells"]
        assert "iqr" in listing.body["summary"]

    def test_detections_payload_matches_reference(self, tmp_path, nasa_dirty):
        """Listing and summary equal a plain sort and per-column count."""
        lens = DataLens(tmp_path / "workspace", seed=0)
        lens.ingest_frame("nasa", nasa_dirty.dirty)
        client = TestClient(create_app(lens))
        tagged = nasa_dirty.dirty.at(3, "Chord Length")
        client.post("/datasets/nasa/tags", {"value": tagged})
        client.post("/datasets/nasa/detect", {"tools": ["iqr", "mv_detector"]})
        session = lens.session("nasa")
        cells = session.detected_cells
        n_rows = session.frame.num_rows
        summary = {
            tool: {
                column: len([c for c in result.cells if c[1] == column]) / n_rows
                for column in session.frame.column_names
            }
            for tool, result in session.detection_results.items()
        }
        assert list(summary) == ["iqr", "mv_detector", "user_tags"]
        assert summary["user_tags"]["Chord Length"] > 0
        assert summary["user_tags"]["Angle"] == 0.0
        for limit, query in [
            (200, None),
            (0, {"limit": "0"}),
            (0, {"limit": "-3"}),
            (1, {"limit": "1"}),
            (37, {"limit": "37"}),
            (len(cells) + 5, {"limit": str(len(cells) + 5)}),
        ]:
            body = client.get("/datasets/nasa/detections", query=query).body
            assert body == {
                "num_cells": len(cells),
                "cells": [
                    {"row": row, "column": column}
                    for row, column in sorted(cells)[:limit]
                ],
                "summary": summary,
            }

    def test_detections_view_is_computed_once_per_detection_state(
        self, client, monkeypatch
    ):
        """Repeated GETs share one ordered listing and one summary; a new
        detect and a restore each change the next body."""
        from repro.core import controller

        calls = []
        summarize = controller.summarize_by_column

        def counted(*args):
            calls.append(args)
            return summarize(*args)

        monkeypatch.setattr(controller, "summarize_by_column", counted)
        client.post("/datasets/nasa/detect", {"tools": ["mv_detector"]})
        bodies = [
            client.get("/datasets/nasa/detections", query=query).body
            for query in (None, None, {"limit": "5"}, None, {"limit": "0"})
        ]
        assert len(calls) == 1
        first = bodies[0]
        assert bodies[1] == bodies[3] == first
        assert bodies[2]["cells"] == first["cells"][:5]
        assert bodies[4]["cells"] == []
        client.post("/datasets/nasa/detect", {"tools": ["iqr"]})
        second = client.get("/datasets/nasa/detections").body
        assert len(calls) == 2
        assert set(second["summary"]) == {"mv_detector", "iqr"}
        assert second["num_cells"] > first["num_cells"]
        client.post("/datasets/nasa/versions/restore", {"version": 0})
        restored = client.get("/datasets/nasa/detections").body
        assert restored == {"num_cells": 0, "cells": [], "summary": {}}

    def test_detect_requires_tools(self, client):
        assert client.post("/datasets/nasa/detect", {}).status == 422

    def test_repair_flow(self, client):
        client.post("/datasets/nasa/detect", {"tools": ["mv_detector"]})
        response = client.post(
            "/datasets/nasa/repair", {"tool": "standard_imputer"}
        )
        assert response.status == 200
        assert response.body["version_after_repair"] == 1

    def test_repair_without_detection_400(self, client):
        assert client.post("/datasets/nasa/repair", {}).status == 400

    def test_datasheet(self, client):
        client.post("/datasets/nasa/detect", {"tools": ["iqr"]})
        response = client.get("/datasets/nasa/datasheet")
        assert response.body["dataset"]["name"] == "nasa"
        assert response.body["detection"]["num_erroneous_cells"] > 0


class TestRulesAndLabels:
    def test_rule_discovery_and_listing(self, client):
        response = client.post(
            "/datasets/nasa/rules/discover", {"algorithm": "approximate"}
        )
        assert response.status == 200
        listing = client.get("/datasets/nasa/rules")
        assert listing.status == 200

    def test_custom_rule_via_put(self, client):
        response = client.put(
            "/datasets/nasa/rules",
            {"determinants": ["Frequency"], "dependent": "Angle"},
        )
        assert response.status == 200
        assert response.body["status"] == "confirmed"

    @pytest.mark.parametrize("status", ["confirmed", "rejected"])
    def test_put_status_reviews_discovered_rule(self, client, status):
        records = [
            {"zip": z, "city": c}
            for z, c in [(1, "x"), (2, "y"), (1, "x"), (3, "y"), (2, "y")]
        ]
        client.post("/datasets", {"name": "zips", "records": records})
        discovered = client.post(
            "/datasets/zips/rules/discover", {"algorithm": "approximate"}
        )
        rule = {"determinants": ["zip"], "dependent": "city"}
        assert rule in discovered.body["rules"]
        response = client.put("/datasets/zips/rules", {**rule, "status": status})
        assert response.status == 200
        assert response.body == {"rule": rule, "status": status}
        listing = client.get("/datasets/zips/rules").body["rules"]
        assert [m["status"] for m in listing if m["rule"] == rule] == [status]

    def test_label_endpoint(self, client):
        response = client.put(
            "/datasets/nasa/labels",
            {"row": 0, "column": "Angle", "is_dirty": True},
        )
        assert response.body["labels"] == 1

    def test_label_bad_cell(self, client):
        response = client.put(
            "/datasets/nasa/labels",
            {"row": 10**6, "column": "Angle", "is_dirty": True},
        )
        assert response.status == 404

    def test_tag_endpoint(self, client):
        response = client.post("/datasets/nasa/tags", {"value": 99999})
        assert "99999" in response.body["tagged_values"]


class TestVersions:
    def test_restore_parses_one_csv_and_renders_none(self, client, monkeypatch):
        """The route reads the source version once and commits a log entry
        naming its data file."""
        from repro.versioning import table

        client.post("/datasets/nasa/detect", {"tools": ["mv_detector"]})
        client.post("/datasets/nasa/repair", {"tool": "standard_imputer"})
        calls = {"read_csv": 0, "write_csv": 0}
        for name in calls:
            original = getattr(table, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(table, name, counted)
        response = client.post("/datasets/nasa/versions/restore", {"version": 0})
        assert response.status == 200
        assert response.body == {"restored_from": 0, "new_version": 2}
        assert calls == {"read_csv": 1, "write_csv": 0}
        versions = client.get("/datasets/nasa/versions").body["versions"]
        assert [v["operation"] for v in versions] == ["upload", "repair", "restore"]
        assert versions[2]["data_file"] == versions[0]["data_file"]
        assert versions[2]["metadata"] == {"restored_from": 0}
        preview = client.get("/datasets/nasa", query={"limit": "3"}).body
        assert preview["num_rows"] == versions[0]["num_rows"]

    def test_version_listing_and_restore(self, client):
        client.post("/datasets/nasa/detect", {"tools": ["mv_detector"]})
        client.post("/datasets/nasa/repair", {"tool": "standard_imputer"})
        versions = client.get("/datasets/nasa/versions")
        assert len(versions.body["versions"]) == 2
        response = client.post(
            "/datasets/nasa/versions/restore", {"version": 0}
        )
        assert response.body["new_version"] == 2
