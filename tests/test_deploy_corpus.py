"""Deploy corpus: deploy runs over a plant-mismatch grid stay put.

`tests/data/deploy_corpus.json` holds one cell per task (U-turn, right
angle), friction mu (0.95, 0.85, 0.75, 0.65, 0.55), mass scale (x1.0,
x1.1) and controller mode, one of `fusion.MODES`, passed to
`deploy_run` by name: `fused` (preview replay plus MPC correction),
`mpc_only` (primary channel off, the MPC with its feedforward drives)
and `replay` (MPC off).  Every run drives the 8 m/s path-tracker
preview of its task, generated in the matched plant, from the nominal
start (`seed=None`).  Per cell it keeps the episode status, the tick
count, t_f, s_final, the largest |l| of the c.g., the largest rear
side-slip, and the sum and the maximum of each applied input channel.

The tests require the status and the tick count to match exactly,
every float to stay within ATOL, and every tracking QP to converge.
By default these run: the six matched cells (two tasks, three modes),
the fused cells that crash where the plain replay completes
(`KNOWN_BAD`), and the fused U-turn at mu 0.75 with mass x1.1, a
mismatch that the fusion completes (`uturn-mu0.75-m1.1-fused`).  The
rest run under `-m nightly`.  `deploy_cell` and the task builder live in
`corners.py`; a session runs each cell once (`conftest.deploy_cells`),
for these tests and for `test_fusion.py`.  Re-record,
only when deploy runs are meant to change, with
`PYTHONPATH=src python tests/test_deploy_corpus.py`; it prints every
cell that moved, with its old and new values.  Given an output path, it
writes there and leaves the committed file alone, so that two commits'
recordings can be compared byte for byte (`cmp`) on one host; the last
bits of some floats differ between hosts.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from driftcorner.envs import TRACE_COLUMNS
from driftcorner.fusion import MODES
from driftcorner.plant import TireParams
from driftcorner.track import build_library_track

from corners import CORPUS_CELLS, DEPLOY_CORPUS, build_task, cell_id, deploy_cell

TASKS = ("uturn", "right_angle")
MUS = (0.95, 0.85, 0.75, 0.65, 0.55)
MASSES = (1.0, 1.1)
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
GRID = tuple(itertools.product(TASKS, MUS, MASSES, MODES))


def tier1(task: str, mu: float, mass: float, mode: str) -> bool:
    matched = (mu, mass) == (TireParams().mu, 1.0)
    return matched or (mode == "fused" and (task, mu, mass) in (*KNOWN_BAD, MISMATCH))


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


def record(out: Path = DEPLOY_CORPUS) -> None:
    """Run the whole grid, print every cell that moved from the committed
    corpus, and write the result to `out`."""
    tasks = {kind: build_task(build_library_track(kind), track_id=kind) for kind in TASKS}
    cells = {}
    for task, mu, mass, mode in GRID:
        name = cell_id(task, mu, mass, mode)
        new = cells[name] = cell_metrics(deploy_cell(tasks[task], mu, mass, mode))
        prev = CORPUS_CELLS.get(name)
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


def _params(select):
    return [pytest.param(*c, id=cell_id(*c)) for c in GRID if select(*c)]


@pytest.mark.parametrize("task,mu,mass,mode", _params(tier1))
def test_deploy_cell_matches_corpus(task, mu, mass, mode, deploy_cells):
    want = CORPUS_CELLS[cell_id(task, mu, mass, mode)]
    res = deploy_cells(task, mu, mass, mode)
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
def test_deploy_cell_matches_corpus_nightly(task, mu, mass, mode, deploy_cells):
    test_deploy_cell_matches_corpus(task, mu, mass, mode, deploy_cells)


def test_known_bad_cells_crash_fused_and_complete_as_replay():
    # the corpus itself: the cells tier-1 watches for the fusion's failure
    for task, mu, mass in KNOWN_BAD:
        assert CORPUS_CELLS[cell_id(task, mu, mass, "fused")]["status"] == "crashed"
        assert CORPUS_CELLS[cell_id(task, mu, mass, "replay")]["status"] == "completed"


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else DEPLOY_CORPUS)
