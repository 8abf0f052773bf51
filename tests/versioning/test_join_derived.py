"""Versioning of join-derived frames: time travel and restore around
outputs of the chunk-native join operators (null-bearing left/outer
results included)."""

from __future__ import annotations

import pytest

from repro.dataframe import DataFrame, join
from repro.versioning import DeltaTable, VersionNotFoundError


@pytest.fixture
def tables():
    child = DataFrame.from_dict(
        {"k": [1, 2, 2, 3, None], "v": ["a", "b", "c", "d", "e"]}
    )
    parent = DataFrame.from_dict({"k": [2, 3, 9], "w": [0.5, 1.5, 2.5]})
    return child, parent


class TestJoinDerivedVersions:
    def test_join_output_round_trips_through_versions(self, tmp_path, tables):
        child, parent = tables
        table = DeltaTable(tmp_path / "t")
        v0 = table.write(child, operation="upload")
        joined = join(child, parent, ["k"], how="left")
        v1 = table.write(
            joined,
            operation="join",
            metadata={"how": "left", "on": ["k"], "base_version": v0},
        )
        restored = table.read(v1)
        assert restored.column_names == joined.column_names
        assert restored.column("w").values() == joined.column("w").values()
        assert restored.column("w").values()[0] is None  # unmatched row
        commit = table.commit_for(v1)
        assert commit.operation == "join"
        assert commit.metadata["on"] == ["k"]
        assert commit.num_rows == joined.num_rows

    def test_restore_after_join_derived_write(self, tmp_path, tables):
        child, parent = tables
        table = DeltaTable(tmp_path / "t")
        table.write(child, operation="upload")
        joined = join(child, parent, ["k"], how="outer")
        table.write(joined, operation="join")
        v2 = table.restore(0)
        assert v2 == 2
        assert table.read().column_names == child.column_names
        assert table.read().num_rows == child.num_rows
        commit = table.commit_for(v2)
        assert commit.operation == "restore"
        assert commit.metadata == {"restored_from": 0}
        # The join-derived snapshot is still addressable (history is
        # append-only) even though the restore rolled past it.
        assert table.read(1).num_rows == joined.num_rows
        assert table.versions() == [0, 1, 2]
        assert len(table) == 3

    def test_unknown_version_raises(self, tmp_path, tables):
        child, _ = tables
        table = DeltaTable(tmp_path / "t")
        with pytest.raises(VersionNotFoundError):
            table.read()
        table.write(child)
        with pytest.raises(VersionNotFoundError):
            table.read(7)
        with pytest.raises(VersionNotFoundError):
            table.restore(7)
        with pytest.raises(VersionNotFoundError):
            table.commit_for(7)

    def test_exists_reflects_commits(self, tmp_path, tables):
        child, _ = tables
        root = tmp_path / "t"
        assert not DeltaTable.exists(root)
        table = DeltaTable(root)
        assert not DeltaTable.exists(root)  # directories alone don't count
        table.write(child)
        assert DeltaTable.exists(root)
