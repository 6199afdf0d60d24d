"""check_frontier_floors: the recall gate holds in both directions."""

from repro.serve.frontier import check_frontier_floors


def payload(*points, config=None):
    return {
        "config": config or {"vocab_size": 8000},
        "points": [
            {"label": label, "recall_at_k": recall, "recall_floor": floor}
            for label, recall, floor in points
        ],
    }


class TestCheckFrontierFloors:
    def test_fresh_sweep_meeting_its_floors_passes(self):
        recorded = payload(("exact", 1.0, 0.95), ("ivf", 0.9, 0.85))
        fresh = payload(("exact", 1.0, 0.95), ("ivf", 0.86, 0.81))
        assert check_frontier_floors(fresh, recorded) == []

    def test_every_direction_of_drift_is_a_violation(self):
        recorded = payload(("exact", 1.0, 0.95), ("ivf", 0.9, 0.85), ("gone", 1.0, 0.95))
        fresh = payload(("exact", 1.0, 0.95), ("ivf", 0.8, 0.75), ("new", 0.5, 0.45))
        assert check_frontier_floors(fresh, recorded) == [
            "gone: point missing from fresh sweep",
            "ivf: recall@k 0.800 fell below recorded floor 0.850",
            "new: no recorded floor",
        ]

    def test_a_point_recorded_without_a_floor_is_unfloored(self):
        recorded = payload(("exact", 1.0, None))
        assert check_frontier_floors(payload(("exact", 1.0, 0.95)), recorded) == [
            "exact: no recorded floor"
        ]

    def test_config_mismatch_short_circuits(self):
        violations = check_frontier_floors(
            payload(("exact", 1.0, 0.95), config={"vocab_size": 10}),
            payload(("exact", 1.0, 0.95)),
        )
        assert len(violations) == 1 and "config mismatch" in violations[0]
