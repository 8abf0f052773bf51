"""Referential-integrity detector: the first consumer of the
chunk-native join operators (semi join under the hood)."""

from __future__ import annotations

import pytest

from repro.core import DataLens, make_detector
from repro.dataframe import DataFrame, SpillStore, spill_frame
from repro.detection import DetectionContext, ReferentialIntegrityDetector


@pytest.fixture
def orders_and_customers():
    orders = DataFrame.from_dict(
        {
            "order_id": [1, 2, 3, 4, 5, 6],
            "cust": [10, 11, 99, None, 10, 98],
            "amount": [5.0, 6.5, 2.0, 9.9, 1.0, 3.3],
        }
    )
    customers = DataFrame.from_dict(
        {"cust": [10, 11, 12], "name": ["a", "b", "c"]}
    )
    return orders, customers


class TestReferentialIntegrityDetector:
    def test_flags_unmatched_child_keys(self, orders_and_customers):
        orders, customers = orders_and_customers
        detector = ReferentialIntegrityDetector(on=["cust"], parent=customers)
        result = detector.detect(orders, DetectionContext())
        assert result.cells == {(2, "cust"), (5, "cust")}
        assert result.scores[(2, "cust")] == 1.0
        assert result.metadata["violating_rows"] == 2
        assert result.metadata["checked_rows"] == 5  # row 3 has a null key
        assert result.metadata["parent_rows"] == 3

    def test_missing_key_is_not_a_violation(self, orders_and_customers):
        orders, customers = orders_and_customers
        detector = ReferentialIntegrityDetector(on=["cust"], parent=customers)
        result = detector.detect(orders, DetectionContext())
        assert (3, "cust") not in result.cells

    def test_parent_on_renames_keys(self, orders_and_customers):
        orders, _ = orders_and_customers
        parent = DataFrame.from_dict(
            {"customer_id": [10, 11, 99, 98], "name": ["a", "b", "c", "d"]}
        )
        detector = ReferentialIntegrityDetector(
            on=["cust"], parent=parent, parent_on=["customer_id"]
        )
        result = detector.detect(orders, DetectionContext())
        assert result.cells == set()

    def test_composite_key_reports_all_key_cells(self):
        child = DataFrame.from_dict(
            {"a": [1, 1, 2], "b": ["x", "y", "x"], "v": [0.0, 1.0, 2.0]}
        )
        parent = DataFrame.from_dict({"a": [1, 2], "b": ["x", "x"]})
        detector = ReferentialIntegrityDetector(on=["a", "b"], parent=parent)
        result = detector.detect(child, DetectionContext())
        assert result.cells == {(1, "a"), (1, "b")}

    def test_spilled_inputs_stay_spilled(self, orders_and_customers):
        orders, customers = orders_and_customers
        store = SpillStore(budget_bytes=512)
        spilled_orders = spill_frame(orders, store, chunk_size=2)
        detector = ReferentialIntegrityDetector(on=["cust"], parent=customers)
        result = detector.detect(spilled_orders, DetectionContext())
        assert result.cells == {(2, "cust"), (5, "cust")}
        for name in spilled_orders.column_names:
            assert spilled_orders.column(name).spilled, name
        assert store.stats()["peak_resident_bytes"] <= 512

    def test_requires_parent_and_keys(self, orders_and_customers):
        orders, customers = orders_and_customers
        with pytest.raises(ValueError, match="parent"):
            ReferentialIntegrityDetector(on=["cust"]).detect(orders)
        with pytest.raises(ValueError, match="key columns"):
            ReferentialIntegrityDetector(parent=customers).detect(orders)

    def test_registry_constructs_and_configures(self, orders_and_customers):
        orders, customers = orders_and_customers
        detector = make_detector(
            "referential_integrity", on=["cust"], parent=customers
        )
        assert detector.name == "referential_integrity"
        assert detector.config["on"] == ["cust"]
        result = detector.detect(orders, DetectionContext())
        assert result.metadata["violating_rows"] == 2

    def test_takes_no_plan_option(self, orders_and_customers):
        """The semi join plans from residency, so neither the detector
        nor its config carries a join strategy."""
        _, customers = orders_and_customers
        with pytest.raises(TypeError, match="strategy"):
            ReferentialIntegrityDetector(
                on=["cust"], parent=customers, strategy="partitioned"
            )
        with pytest.raises(TypeError, match="strategy"):
            make_detector(
                "referential_integrity", on=["cust"], parent=customers,
                strategy="memory",
            )
        detector = ReferentialIntegrityDetector(on=["cust"], parent=customers)
        assert detector.config == {"on": ["cust"], "parent_on": None}


class TestSessionWiring:
    def test_check_referential_integrity_records_detection(
        self, tmp_path, orders_and_customers
    ):
        orders, customers = orders_and_customers
        lens = DataLens(tmp_path / "workspace", seed=0)
        session = lens.ingest_frame("orders", orders)
        session.run_detection(
            [ReferentialIntegrityDetector(on=["cust"], parent=customers)]
        )
        result = session.detection_results["referential_integrity"]
        assert result.metadata["violating_rows"] == 2
        assert "referential_integrity" in session.detection_results
        assert {(2, "cust"), (5, "cust")} <= session.detected_cells
        runs = lens.tracking.search_runs("Detection")
        assert any(run.name == "orders:referential_integrity" for run in runs)
