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
    """One ``(seeds, region)`` pair per call the engine makes to knot
    detection, in order: ``region`` lists the nodes whose predecessors the
    search asked for."""
    calls = []
    detect = engine.knots_from_adjacency

    def recorded(seeds, preds, *rest):
        region = []
        calls.append((seeds, region))

        def recording(v):
            region.append(v)
            return preds(v)

        return detect(seeds, recording, *rest)

    monkeypatch.setattr(engine, "knots_from_adjacency", recorded)
    return calls
