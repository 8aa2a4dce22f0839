"""Plan corpus: free-end plans stay bit-identical.

`tests/data/plan_corpus.json` holds the sha256 digest of (l, v_d, t_ref)
of `plan_pretrajectory(track)` for the three library tracks and for a
seeded family of generated corners (all three kinds, radius 8-20 m,
width 4-8 m, entry 10-40 m, exit 20-70 m).  The library tracks and the
first TIER1_CORNERS corners run by default; the rest run under
`-m nightly`.  Re-record, only when plans are meant to change, with
`PYTHONPATH=src python tests/test_plan_corpus.py`.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from driftcorner.planner import plan_pretrajectory
from driftcorner.track import LIBRARY_KINDS, build_library_track

CORPUS = Path(__file__).parent / "data" / "plan_corpus.json"
SEED = 2026
N_CORNERS = 60
TIER1_CORNERS = 6


def plan_digest(track) -> str:
    pre = plan_pretrajectory(track)
    raw = pre.l.tobytes() + pre.v_d.tobytes() + np.float64(pre.t_ref).tobytes()
    return hashlib.sha256(raw).hexdigest()


def generated_corners():
    rng = np.random.default_rng(SEED)
    for i in range(N_CORNERS):
        yield {
            "kind": LIBRARY_KINDS[i % len(LIBRARY_KINDS)],
            "radius": float(rng.uniform(8.0, 20.0)),
            "width": float(rng.uniform(4.0, 8.0)),
            "entry_len": float(rng.uniform(10.0, 40.0)),
            "exit_len": float(rng.uniform(20.0, 70.0)),
        }


def record() -> None:
    corners = [
        {**spec, "digest": plan_digest(build_library_track(**spec))}
        for spec in generated_corners()
    ]
    corpus = {
        "digest": "sha256 of l, v_d (float64 bytes) and t_ref (float64)",
        "library": {k: plan_digest(build_library_track(k)) for k in LIBRARY_KINDS},
        "corners": corners,
    }
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")


def _corner_params(corners):
    return [
        pytest.param(c, id=f"corner{i:02d}-{c['kind']}") for i, c in corners
    ]


_corpus = json.loads(CORPUS.read_text()) if CORPUS.exists() else None
_corners = list(enumerate(_corpus["corners"])) if _corpus else []


@pytest.mark.parametrize("kind", LIBRARY_KINDS)
def test_library_plan_matches_corpus(kind):
    assert plan_digest(build_library_track(kind)) == _corpus["library"][kind]


@pytest.mark.parametrize("corner", _corner_params(_corners[:TIER1_CORNERS]))
def test_generated_plan_matches_corpus(corner):
    spec = {k: v for k, v in corner.items() if k != "digest"}
    assert plan_digest(build_library_track(**spec)) == corner["digest"]


@pytest.mark.nightly
@pytest.mark.parametrize("corner", _corner_params(_corners[TIER1_CORNERS:]))
def test_generated_plan_matches_corpus_nightly(corner):
    test_generated_plan_matches_corpus(corner)


if __name__ == "__main__":
    record()
