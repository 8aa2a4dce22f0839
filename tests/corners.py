"""Corners the deploy and corpus tests share; the corpus recorders, run
as scripts, import it too.  A task is (track, plan, preview), the
preview being the path tracker's rollout, capped at PREVIEW_SPEED, in
the matched plant.  A deploy cell drives a task's preview, in one of
`fusion.MODES`, on a plant of another friction and mass."""

import dataclasses
import json
from pathlib import Path

import numpy as np

from driftcorner.baseline import BaselineTracker
from driftcorner.fusion import DeploymentSpec, deploy_run, generate_preview
from driftcorner.planner import plan_pretrajectory
from driftcorner.plant import TireParams, VehicleParams
from driftcorner.track import LIBRARY_KINDS

PREVIEW_SPEED = 8.0  # m/s, tracker speed cap and entry speed
DEPLOY_CORPUS = Path(__file__).parent / "data" / "deploy_corpus.json"
CORPUS_CELLS = json.loads(DEPLOY_CORPUS.read_text())["cells"] if DEPLOY_CORPUS.exists() else {}


def build_task(track, pre=None, v_ini=PREVIEW_SPEED, track_id="custom", checksum=None):
    """(track, plan, preview): `pre` or else a plan of `track`, and the tracker's
    rollout on it from `v_ini`, with `checksum` standing in for a policy's."""
    pre = plan_pretrajectory(track) if pre is None else pre
    tracker = BaselineTracker(
        track, dataclasses.replace(pre, v_d=np.minimum(pre.v_d, PREVIEW_SPEED)))
    if checksum is not None:
        tracker.checksum = checksum
    return track, pre, generate_preview(tracker, VehicleParams(), TireParams(), track,
                                        pre, v_ini=v_ini, track_id=track_id)


def cell_id(task: str, mu: float, mass: float, mode: str) -> str:
    return f"{task}-mu{mu:.2f}-m{mass:.1f}-{mode}"


def deploy_cell(task, mu: float, mass: float, mode: str):
    """The traced deploy of a task's preview at friction `mu` and mass scale `mass`."""
    track, pre, preview = task
    dep_params, dep_tires = DeploymentSpec(mu=mu, mass_scale=mass).apply(
        VehicleParams(), TireParams())
    return deploy_run(preview, track, pre, VehicleParams(), dep_params, dep_tires,
                      mode=mode, record_trace=True)


def generated_corners():
    """The plan corpus's 60 corners, drawn with seed 2026."""
    rng = np.random.default_rng(2026)
    for i in range(60):
        yield {
            "kind": LIBRARY_KINDS[i % len(LIBRARY_KINDS)],
            "radius": float(rng.uniform(8.0, 20.0)),
            "width": float(rng.uniform(4.0, 8.0)),
            "entry_len": float(rng.uniform(10.0, 40.0)),
            "exit_len": float(rng.uniform(20.0, 70.0)),
        }
