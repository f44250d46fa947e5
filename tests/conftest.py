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
    """Arguments of every call the engine makes to knot detection, in order."""
    calls = []
    detect = engine.knots_from_adjacency

    def counted(*args):
        calls.append(args)
        return detect(*args)

    monkeypatch.setattr(engine, "knots_from_adjacency", counted)
    return calls
