"""Lineage tracking for join-derived outputs: runs record which inputs
and keys produced a joined frame, and failures mark the run."""

from __future__ import annotations

import json

import pytest

from repro.dataframe import DataFrame, join
from repro.tracking import FAILED, FINISHED, TrackingClient


@pytest.fixture
def client(tmp_path):
    return TrackingClient(tmp_path / "mlruns")


@pytest.fixture
def tables():
    left = DataFrame.from_dict({"k": [1, 2, 2], "a": ["x", "y", "z"]})
    right = DataFrame.from_dict({"k": [2, 3], "b": [0.5, 1.5]})
    return left, right


class TestJoinLineage:
    def test_run_records_join_lineage(self, client, tables):
        left, right = tables
        with client.start_run("Joins", "orders⋈customers") as run:
            joined = join(left, right, ["k"], how="inner")
            client.log_params({"how": "inner", "on": ["k"]})
            client.log_metric("left_rows", float(left.num_rows))
            client.log_metric("right_rows", float(right.num_rows))
            client.log_metric("output_rows", float(joined.num_rows))
            lineage = {
                "inputs": [
                    {"name": "orders", "rows": left.num_rows},
                    {"name": "customers", "rows": right.num_rows},
                ],
                "output_columns": joined.column_names,
            }
            path = client.log_text_artifact(
                "lineage.json", json.dumps(lineage)
            )
        assert run.status == FINISHED
        assert run.params["on"] == ["k"]
        assert run.metrics["output_rows"] == [(0, 2.0)]
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert stored["output_columns"] == ["k", "a", "b"]
        found = client.search_runs("Joins", status=FINISHED)
        assert [r.name for r in found] == ["orders⋈customers"]

    def test_failed_join_marks_run_failed(self, client):
        left = DataFrame.from_dict({"k": [1], "a": [1]})
        right = DataFrame.from_dict({"k": [1], "a": [2], "a_right": [3]})
        with pytest.raises(ValueError, match="colliding"):
            with client.start_run("Joins", "bad-suffix") as run:
                join(left, right, ["k"], how="inner")
        assert run.status == FAILED
        assert client.search_runs("Joins", status=FAILED)[0].name == "bad-suffix"

    def test_logging_outside_run_raises(self, client):
        with pytest.raises(RuntimeError, match="no active run"):
            client.log_param("on", ["k"])
        with pytest.raises(RuntimeError, match="no active run"):
            client.log_metric("rows", 1.0)

    def test_search_runs_unknown_experiment_is_empty(self, client):
        assert client.search_runs("NoSuchExperiment") == []
