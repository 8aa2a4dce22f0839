import functools

import numpy as np
import pytest

from driftcorner.planner import plan_pretrajectory
from driftcorner.track import build_library_track

from corners import build_task, deploy_cell


@pytest.fixture(scope="session")
def uturn():
    return build_library_track("uturn")


@pytest.fixture(scope="session")
def right_angle():
    return build_library_track("right_angle")


@pytest.fixture(scope="session")
def all_tracks(uturn, right_angle):
    return {
        "uturn": uturn,
        "right_angle": right_angle,
        "turn_135": build_library_track("turn_135"),
    }


@pytest.fixture(scope="session")
def uturn_pretraj(uturn):
    return plan_pretrajectory(uturn)


@pytest.fixture(scope="session")
def library_tasks(uturn, uturn_pretraj, right_angle):
    """(track, plan, 8 m/s tracker preview) of each deploy-corpus task."""
    return {"uturn": build_task(uturn, uturn_pretraj, track_id="uturn"),
            "right_angle": build_task(right_angle, track_id="right_angle")}


@pytest.fixture(scope="session")
def uturn_preview8(library_tasks):
    """Non-drift preview: path tracker capped at 8 m/s, matched plant."""
    return library_tasks["uturn"][2]


@pytest.fixture(scope="session")
def deploy_cells(library_tasks):
    """run(task, mu, mass, mode): one corpus cell's traced deploy, run once a session.
    Tests share it (its tick log is read-only and none writes to its trace);
    a test that patches the program runs its own."""
    return functools.cache(
        lambda task, mu, mass, mode: deploy_cell(library_tasks[task], mu, mass, mode))


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
