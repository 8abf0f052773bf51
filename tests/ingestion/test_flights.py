"""Flights dataset tests."""

from repro.fd import FunctionalDependency
from repro.ingestion import dataset_task, flights, make_dirty


class TestFlights:
    def test_shape_and_columns(self):
        frame = flights()
        assert frame.num_rows == 800
        assert set(frame.column_names) == {
            "flight", "airline", "origin", "destination",
            "scheduled_dep", "actual_dep", "delay_minutes",
        }

    def test_schedule_fds_hold(self):
        frame = flights(400)
        for dependent in ("scheduled_dep", "origin", "destination", "airline"):
            assert not FunctionalDependency(("flight",), dependent).violations(frame)

    def test_delay_non_negative(self):
        assert min(flights().column("delay_minutes").non_missing()) >= 0.0

    def test_origin_destination_differ(self):
        frame = flights(300)
        for row in frame.iter_rows():
            assert row["origin"] != row["destination"]

    def test_registered_as_regression(self):
        assert dataset_task("flights") == ("regression", "delay_minutes")

    def test_dirty_bundle(self):
        bundle = make_dirty("flights", seed=1)
        assert bundle.error_rate > 0.02
        assert FunctionalDependency(("flight",), "scheduled_dep").violations(
            bundle.dirty
        )

    def test_deterministic(self):
        assert flights(seed=19) == flights(seed=19)
