"""CLI tests (python -m repro ...)."""

import json

import pytest

from repro.cli import main
from repro.dataframe import (
    JOIN_STRATEGIES,
    SORT_STRATEGIES,
    DataFrame,
    read_csv,
    write_csv,
)
from repro.ingestion import make_dirty


@pytest.fixture
def dirty_csv(tmp_path):
    bundle = make_dirty("nasa", seed=3)
    path = tmp_path / "nasa.csv"
    write_csv(bundle.dirty, path)
    return path


class TestProfileCommand:
    def test_human_readable(self, dirty_csv, capsys):
        assert main(["profile", str(dirty_csv)]) == 0
        out = capsys.readouterr().out
        assert "rows=1503" in out
        assert "Frequency" in out

    def test_json_output(self, dirty_csv, capsys):
        assert main(["profile", str(dirty_csv), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overview"]["rows"] == 1503

    def test_preloaded_name(self, capsys):
        assert main(["profile", "beers"]) == 0
        assert "abv" in capsys.readouterr().out


class TestDetectCommand:
    def test_detect_prints_per_tool(self, dirty_csv, capsys):
        assert main(
            ["detect", str(dirty_csv), "--tools", "iqr", "mv_detector"]
        ) == 0
        out = capsys.readouterr().out
        assert "iqr" in out
        assert "consolidated" in out

    def test_detect_writes_cells(self, dirty_csv, tmp_path, capsys):
        out_path = tmp_path / "cells.json"
        main(
            [
                "detect", str(dirty_csv),
                "--tools", "mv_detector",
                "--output", str(out_path),
            ]
        )
        cells = json.loads(out_path.read_text(encoding="utf-8"))
        assert cells
        assert {"row", "column"} == set(cells[0])


class TestRepairCommand:
    def test_repair_roundtrip(self, dirty_csv, tmp_path, capsys):
        out_path = tmp_path / "repaired.csv"
        assert main(
            [
                "repair", str(dirty_csv),
                "--tools", "mv_detector",
                "--repairer", "standard_imputer",
                "--output", str(out_path),
            ]
        ) == 0
        repaired = read_csv(out_path)
        assert repaired.missing_count() == 0


class TestRefcheckCommand:
    @pytest.fixture
    def tables(self, tmp_path):
        """Child keys 7 and 9 are orphans; the null key asserts nothing."""
        child = tmp_path / "child.csv"
        parent = tmp_path / "parent.csv"
        write_csv(
            DataFrame.from_dict(
                {
                    "k": [1, 2, 7, None, 2, 9],
                    "v": ["a", "b", "c", "d", "e", "f"],
                }
            ),
            child,
        )
        write_csv(DataFrame.from_dict({"k": [1, 2, 3]}), parent)
        return str(child), str(parent)

    def _violations(self, tables, tmp_path, *extra):
        out_path = tmp_path / "violations.json"
        child, parent = tables
        assert main(
            ["refcheck", child, parent, "--on", "k", "--output", str(out_path),
             *extra]
        ) == 0
        return json.loads(out_path.read_text(encoding="utf-8"))

    def test_strict_exits_one_on_orphan_key(self, tables, capsys):
        child, parent = tables
        assert main(["refcheck", child, parent, "--on", "k"]) == 0
        assert main(["refcheck", child, parent, "--on", "k", "--strict"]) == 1
        assert "2 violating row(s)" in capsys.readouterr().out

    def test_partitioned_reports_same_rows_as_default(self, tables, tmp_path):
        default = self._violations(tables, tmp_path)
        partitioned = self._violations(
            tables, tmp_path, "--strategy", "partitioned"
        )
        assert default == [
            {"row": 2, "column": "k"},
            {"row": 5, "column": "k"},
        ]
        assert partitioned == default

    def test_retired_strategy_is_rejected(self, tables, capsys):
        child, parent = tables
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["refcheck", child, parent, "--on", "k",
                 "--strategy", "sortmerge"]
            )
        assert exit_info.value.code == 2
        assert "invalid choice: 'sortmerge'" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", JOIN_STRATEGIES)
    def test_every_strategy_reports_same_rows_on_spilled_inputs(
        self, tables, tmp_path, strategy
    ):
        violations = self._violations(
            tables, tmp_path,
            "--strategy", strategy, "--chunk-size", "2", "--spill-budget", "1k",
        )
        assert violations == [
            {"row": 2, "column": "k"},
            {"row": 5, "column": "k"},
        ]

    def test_parent_on_pairs_keys_by_position(self, tables, tmp_path, capsys):
        child, _ = tables
        parent = tmp_path / "renamed_parent.csv"
        write_csv(DataFrame.from_dict({"id": [1, 2, 9]}), parent)
        assert main(
            ["refcheck", child, str(parent), "--on", "k",
             "--parent-on", "id", "--strict"]
        ) == 1
        assert "1 violating row(s)" in capsys.readouterr().out


class TestSortCommand:
    @pytest.fixture
    def table(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        write_csv(
            DataFrame.from_dict(
                {"k": [3, 1, None, 2, 1, 3], "v": [f"v{i}" for i in range(6)]}
            ),
            path,
        )
        return str(path)

    def _sorted(self, table, tmp_path, *extra):
        out_path = tmp_path / "sorted.csv"
        assert main(
            ["sort", table, "--by", "k", "--output", str(out_path), *extra]
        ) == 0
        frame = read_csv(out_path)
        return frame.column("k").values(), frame.column("v").values()

    @pytest.mark.parametrize("strategy", SORT_STRATEGIES)
    def test_every_strategy_writes_same_order(self, table, tmp_path, strategy):
        assert self._sorted(table, tmp_path, "--strategy", strategy) == (
            [1, 1, 2, 3, 3, None],
            ["v1", "v4", "v3", "v0", "v5", "v2"],
        )

    def test_descending_keeps_ties_in_input_order(self, table, tmp_path):
        # Descending reverses the whole order, so missing keys lead.
        assert self._sorted(table, tmp_path, "--descending") == (
            [None, 3, 3, 2, 1, 1],
            ["v2", "v0", "v5", "v3", "v1", "v4"],
        )

    def test_spilled_input_sorts_out_of_core(self, table, tmp_path):
        assert self._sorted(
            table, tmp_path, "--chunk-size", "2", "--spill-budget", "1k"
        ) == ([1, 1, 2, 3, 3, None], ["v1", "v4", "v3", "v0", "v5", "v2"])

    def test_preview_without_output(self, table, capsys):
        assert main(["sort", table, "--by", "k", "--descending"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sorted 6 rows by ['k'] (descending)"
        assert out[1:] == [
            "k,v", ",v2", "3,v0", "3,v5", "2,v3", "1,v1", "1,v4",
        ]

    def test_join_strategy_is_not_a_sort_strategy(self, table, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sort", table, "--by", "k", "--strategy", "partitioned"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'partitioned'" in capsys.readouterr().err


class TestRulesCommand:
    def test_rules_on_hospital(self, tmp_path, capsys):
        from repro.ingestion import hospital

        path = tmp_path / "hospital.csv"
        write_csv(hospital(200), path)
        assert main(["rules", str(path), "--max-lhs", "1"]) == 0
        out = capsys.readouterr().out
        assert "[ZipCode] -> City" in out


class TestDatasheetCommand:
    def test_replay(self, dirty_csv, tmp_path, capsys):
        from repro.core import DataSheet

        sheet = DataSheet(
            dataset_name="nasa",
            detection_tools=[{"name": "mv_detector", "config": {}}],
            repair_tools=[{"name": "standard_imputer", "config": {}}],
        )
        sheet_path = sheet.save(tmp_path / "sheet.json")
        out_path = tmp_path / "fixed.csv"
        assert main(
            [
                "datasheet", "replay", str(sheet_path), str(dirty_csv),
                "--output", str(out_path),
            ]
        ) == 0
        assert read_csv(out_path).missing_count() == 0


def test_datasets_listing(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("nasa", "beers", "hospital", "adult"):
        assert name in out


class TestServeCommand:
    def test_smoke_boots_and_answers_health(self, tmp_path, capsys):
        workspace = tmp_path / "workspace"
        code = main(
            [
                "serve", str(workspace),
                "--port", "0",
                "--workers", "2",
                "--smoke-test",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving DataLens workspace" in out
        assert "smoke test passed" in out

    def test_serve_accepts_scale_options(self, tmp_path, capsys):
        code = main(
            [
                "serve", str(tmp_path / "w"),
                "--port", "0",
                "--chunk-size", "257",
                "--spill-budget", "64k",
                "--smoke-test",
            ]
        )
        assert code == 0
        assert "smoke test passed" in capsys.readouterr().out
