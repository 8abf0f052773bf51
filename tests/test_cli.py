"""CLI tests (python -m repro ...)."""

import json
import os

import pytest

from repro.cli import main
from repro.dataframe import DataFrame, joins, read_csv, sort, write_csv
from repro.ingestion import make_dirty

#: Residency legs of the frame-loading commands: scale flags, the
#: environment they run under, and whether the loaded frames spill.
RESIDENCY = {
    "resident": ((), {}, False),
    "chunked": (("--chunk-size", "2"), {}, False),
    "spilled": (("--chunk-size", "2", "--spill-budget", "1k"), {}, True),
    "spilled-by-env": (
        ("--chunk-size", "2"), {"DATALENS_SPILL_BUDGET": "1k"}, True,
    ),
}


@pytest.fixture
def dirty_csv(tmp_path):
    bundle = make_dirty("nasa", seed=3)
    path = tmp_path / "nasa.csv"
    write_csv(bundle.dirty, path)
    return path


@pytest.fixture(params=list(RESIDENCY))
def residency(request, monkeypatch, tmp_path):
    """One residency leg: its flags and spill expectation, with exactly
    its variables set (CI legs export others)."""
    flags, environment, spilled = RESIDENCY[request.param]
    for key in list(os.environ):
        if key.startswith("DATALENS_"):
            monkeypatch.delenv(key)
    monkeypatch.setenv("DATALENS_SPILL_DIR", str(tmp_path / "spill"))
    for key, value in environment.items():
        monkeypatch.setenv(key, value)
    return flags, spilled


@pytest.fixture
def plans(monkeypatch):
    """Every join plan the planner picks, and ``external`` for every
    external sort. Both seams are looked up by module-level name at
    call time, so wrapping them records what the commands run."""
    recorded = []
    resolve = joins.resolve_join_strategy
    external_sort_by = sort.external_sort_by

    def record_join(left, right):
        recorded.append(resolve(left, right))
        return recorded[-1]

    def record_sort(*args, **kwargs):
        recorded.append("external")
        return external_sort_by(*args, **kwargs)

    monkeypatch.setattr(joins, "resolve_join_strategy", record_join)
    monkeypatch.setattr(sort, "external_sort_by", record_sort)
    return recorded


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

    def test_every_residency_reports_same_rows(
        self, tables, tmp_path, residency, plans, built_stores
    ):
        """Each leg reports the resident rows, through the plan its
        residency picks; a spilled leg loads both tables into one store
        and stays within its 1 KiB budget."""
        flags, spilled = residency
        assert self._violations(tables, tmp_path, *flags) == [
            {"row": 2, "column": "k"},
            {"row": 5, "column": "k"},
        ]
        assert plans == ["partitioned" if spilled else "memory"]
        assert len(built_stores) == (1 if spilled else 0)
        for store in built_stores:
            assert 0 < store.stats()["peak_resident_bytes"] <= 1024

    def test_spilled_inputs_share_one_budget(self, tmp_path, built_stores):
        """Two inputs that each fill most of a 4 KiB budget peak within
        it together: the command has one store, not one per input."""
        child = tmp_path / "child.csv"
        parent = tmp_path / "parent.csv"
        write_csv(DataFrame.from_dict({"k": list(range(2000))}), child)
        write_csv(DataFrame.from_dict({"k": list(range(0, 2000, 2))}), parent)
        assert main(
            ["refcheck", str(child), str(parent), "--on", "k",
             "--chunk-size", "64", "--spill-budget", "4k"]
        ) == 0
        [store] = built_stores
        assert store.budget_bytes == 4096
        assert 0 < store.stats()["peak_resident_bytes"] <= 4096

    def test_strategy_flag_is_gone(self, tables, capsys):
        child, parent = tables
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["refcheck", child, parent, "--on", "k",
                 "--strategy", "partitioned"]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --strategy" in capsys.readouterr().err

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

    def test_descending_keeps_ties_in_input_order(self, table, tmp_path):
        # Descending reverses the whole order, so missing keys lead.
        assert self._sorted(table, tmp_path, "--descending") == (
            [None, 3, 3, 2, 1, 1],
            ["v2", "v0", "v5", "v3", "v1", "v4"],
        )

    def test_every_residency_writes_same_order(
        self, table, tmp_path, residency, plans
    ):
        """Each leg writes the resident order; spilled legs sort
        externally, resident ones in memory."""
        flags, spilled = residency
        assert self._sorted(table, tmp_path, *flags) == (
            [1, 1, 2, 3, 3, None],
            ["v1", "v4", "v3", "v0", "v5", "v2"],
        )
        assert plans == (["external"] if spilled else [])

    def test_spilled_input_sorts_out_of_core(self, table, tmp_path, monkeypatch):
        """The external sort runs in the input's store, within its budget."""
        stores = []
        external_sort_by = sort.external_sort_by

        def record_store(*args, store, **kwargs):
            stores.append(store)
            return external_sort_by(*args, store=store, **kwargs)

        monkeypatch.setattr(sort, "external_sort_by", record_store)
        assert self._sorted(
            table, tmp_path, "--chunk-size", "2", "--spill-budget", "1k"
        ) == ([1, 1, 2, 3, 3, None], ["v1", "v4", "v3", "v0", "v5", "v2"])
        [store] = stores
        assert store.budget_bytes == 1024
        assert 0 < store.stats()["peak_resident_bytes"] <= 1024

    def test_preview_without_output(self, table, capsys):
        assert main(["sort", table, "--by", "k", "--descending"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sorted 6 rows by ['k'] (descending)"
        assert out[1:] == [
            "k,v", ",v2", "3,v0", "3,v5", "2,v3", "1,v1", "1,v4",
        ]

    def test_strategy_flag_is_gone(self, table, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sort", table, "--by", "k", "--strategy", "external"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --strategy" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "plan, message",
        [
            ("site=artifact.*,error=fault", "matches no injection site"),
            ("site=spill.read,error=nope", "malformed fault rule"),
        ],
    )
    def test_bad_fault_plan_fails_before_serving(
        self, tmp_path, capsys, monkeypatch, plan, message
    ):
        """The plan is checked before the server binds, so a bad one exits
        non-zero with its error instead of killing every response."""
        monkeypatch.setenv("DATALENS_FAULT_INJECT", plan)
        code = main(["serve", str(tmp_path / "w"), "--port", "0", "--smoke-test"])
        assert code == 2
        captured = capsys.readouterr()
        assert "serving DataLens workspace" not in captured.out
        assert message in captured.err
        assert "DATALENS_FAULT_INJECT" in captured.err
        assert not (tmp_path / "w").exists()
