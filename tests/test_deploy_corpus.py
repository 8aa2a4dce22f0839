"""Deploy corpus: deploy runs over a plant-mismatch grid stay put.

`tests/data/deploy_corpus.json` holds one cell per task (U-turn, right
angle), friction mu (0.95, 0.85, 0.75, 0.65, 0.55), mass scale (x1.0,
x1.1) and controller mode: `fused` (preview replay plus MPC
correction), `mpc_only` (primary channel off, the MPC with its
feedforward drives) and `replay` (MPC off).  Every run drives the
8 m/s path-tracker preview of its task, generated in the matched
plant.  Per cell it keeps the episode status, the tick count, t_f,
s_final, the largest |l| of the c.g., the largest rear side-slip, and
the sum and the maximum of each applied input channel.

The tests require the status and the tick count to match exactly,
every float to stay within ATOL, and every tracking QP to converge.
By default these run: the matched cells, the fused cells that crash
where the plain replay completes (`KNOWN_BAD`), and the fused U-turn at
mu 0.75 with mass x1.1, a mismatch that the fusion completes
(`uturn-mu0.75-m1.1-fused`).  The rest run under `-m nightly`.  Re-record,
only when deploy runs are meant to change, with
`PYTHONPATH=src python tests/test_deploy_corpus.py`; it prints every
cell that moved, with its old and new values.  Given an output path, it
writes there and leaves the committed file alone, so that two commits'
recordings can be compared byte for byte (`cmp`) on one host; the last
bits of some floats differ between hosts.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from driftcorner.baseline import BaselineTracker
from driftcorner.envs import TRACE_COLUMNS
from driftcorner.fusion import DeploymentSpec, deploy_run, generate_preview
from driftcorner.planner import plan_pretrajectory
from driftcorner.plant import TireParams, VehicleParams
from driftcorner.track import build_library_track

CORPUS = Path(__file__).parent / "data" / "deploy_corpus.json"
TASKS = ("uturn", "right_angle")
MUS = (0.95, 0.85, 0.75, 0.65, 0.55)
MASSES = (1.0, 1.1)
MODES = {
    "fused": {},
    "mpc_only": {"primary_enabled": False},
    "replay": {"mpc_enabled": False},
}
PREVIEW_SPEED = 8.0  # m/s, tracker speed cap and entry speed
ATOL = 1e-8
FLOATS = ("t_f", "s_final", "max_abs_l", "max_beta", "applied_sum", "applied_max")
# fused runs that crash where the plain replay of the same preview completes
KNOWN_BAD = (
    ("right_angle", 0.75, 1.0), ("right_angle", 0.75, 1.1),
    ("right_angle", 0.65, 1.1), ("uturn", 0.65, 1.1),
)
# a fused cell with less grip and more mass than the preview's plant,
# which completes
MISMATCH = ("uturn", 0.75, 1.1)


def cell_id(task: str, mu: float, mass: float, mode: str) -> str:
    return f"{task}-mu{mu:.2f}-m{mass:.1f}-{mode}"


def grid():
    for task in TASKS:
        for mu in MUS:
            for mass in MASSES:
                for mode in MODES:
                    yield task, mu, mass, mode


def tier1(task: str, mu: float, mass: float, mode: str) -> bool:
    matched = (mu, mass) == (TireParams().mu, 1.0)
    return matched or (mode == "fused" and (task, mu, mass) in (*KNOWN_BAD, MISMATCH))


def build_task(kind: str):
    """Track, plan and 8 m/s tracker preview of one library corner."""
    track = build_library_track(kind)
    pre = plan_pretrajectory(track)
    slow = dataclasses.replace(pre, v_d=np.minimum(pre.v_d, PREVIEW_SPEED))
    preview = generate_preview(BaselineTracker(track, slow), VehicleParams(),
                               TireParams(), track, pre, v_ini=PREVIEW_SPEED,
                               track_id=kind)
    return track, pre, preview


def deploy_cell(task, mu: float, mass: float, mode: str):
    track, pre, preview = task
    dep_params, dep_tires = DeploymentSpec(mu=mu, mass_scale=mass).apply(
        VehicleParams(), TireParams())
    return deploy_run(preview, track, pre, VehicleParams(), dep_params, dep_tires,
                      record_trace=True, **MODES[mode])


def cell_metrics(res) -> dict:
    applied = np.array([r.applied for r in res.records])
    return {
        "status": res.episode.status,
        "ticks": len(res.records),
        "t_f": res.episode.t_f,
        "s_final": res.episode.s_final,
        "max_abs_l": float(np.max(np.abs(res.episode.trace[:, TRACE_COLUMNS.index("l")]))),
        "max_beta": res.episode.max_beta,
        "applied_sum": applied.sum(axis=0).tolist(),
        "applied_max": applied.max(axis=0).tolist(),
    }


def _float_gap(old: dict, new: dict) -> float:
    return max(float(np.max(np.abs(np.subtract(old[k], new[k])))) for k in FLOATS)


def record(out: Path = CORPUS) -> None:
    """Run the whole grid, print every cell that moved from the committed
    corpus, and write the result to `out`."""
    old = json.loads(CORPUS.read_text())["cells"] if CORPUS.exists() else {}
    tasks = {kind: build_task(kind) for kind in TASKS}
    cells = {}
    for task, mu, mass, mode in grid():
        name = cell_id(task, mu, mass, mode)
        new = cells[name] = cell_metrics(deploy_cell(tasks[task], mu, mass, mode))
        prev = old.get(name)
        if prev == new:
            continue
        if prev is None:
            print(f"{name}: new, {new['status']} after {new['ticks']} ticks")
            continue
        print(f"{name}: largest float change {_float_gap(prev, new):.3g}")
        for key, value in new.items():
            if prev.get(key) != value:
                print(f"  {key}: {prev.get(key)} -> {value}")
    out.write_text(json.dumps({
        "grid": "tasks x mu x mass scale x mode; 8 m/s tracker previews, "
                "matched-plant controller model",
        "metrics": "status, ticks, t_f (s), s_final (m), max_abs_l (m, c.g.), "
                   "max_beta (rad, rear side-slip), applied_sum and applied_max "
                   "per channel (delta_f rad, T_rt N*m, P_b MPa)",
        "cells": cells,
    }, indent=1) + "\n")


_cells = json.loads(CORPUS.read_text())["cells"] if CORPUS.exists() else {}


@pytest.fixture(scope="module")
def tasks():
    return {kind: build_task(kind) for kind in TASKS}


def _params(select):
    return [pytest.param(*c, id=cell_id(*c)) for c in grid() if select(*c)]


@pytest.mark.parametrize("task,mu,mass,mode", _params(tier1))
def test_deploy_cell_matches_corpus(task, mu, mass, mode, tasks):
    want = _cells[cell_id(task, mu, mass, mode)]
    res = deploy_cell(tasks[task], mu, mass, mode)
    assert res.qp_failures == 0  # every tracking QP of the corpus converges
    # a preview ends one tick before its rollout finished, so a run that
    # completes may outrun it for one tick
    assert res.preview_exhausted <= (res.episode.status == "completed")
    got = cell_metrics(res)
    assert (got["status"], got["ticks"]) == (want["status"], want["ticks"])
    for key in FLOATS:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=ATOL, err_msg=key)


@pytest.mark.nightly
@pytest.mark.parametrize("task,mu,mass,mode",
                         _params(lambda *c: not tier1(*c)))
def test_deploy_cell_matches_corpus_nightly(task, mu, mass, mode, tasks):
    test_deploy_cell_matches_corpus(task, mu, mass, mode, tasks)


def test_known_bad_cells_crash_fused_and_complete_as_replay():
    # the corpus itself: the cells tier-1 watches for the fusion's failure
    for task, mu, mass in KNOWN_BAD:
        assert _cells[cell_id(task, mu, mass, "fused")]["status"] == "crashed"
        assert _cells[cell_id(task, mu, mass, "replay")]["status"] == "completed"


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS)
