import pytest

from knotid import engine
from util import disjoint_two_cycles_schedule, knot_churn_schedule


@pytest.fixture
def churn_schedule():
    return knot_churn_schedule()


@pytest.fixture
def disjoint_schedule():
    return disjoint_two_cycles_schedule()


@pytest.fixture
def detections(monkeypatch):
    """The seeds of each call the engine makes to knot detection, in
    order."""
    calls = []
    detect = engine.knots_from_adjacency

    def recorded(seeds, *rest):
        calls.append(seeds)
        return detect(seeds, *rest)

    monkeypatch.setattr(engine, "knots_from_adjacency", recorded)
    return calls
