"""Plan corpus: free-end plans stay bit-identical.

`tests/data/plan_corpus.json` holds the sha256 digest of (l, v_d, t_ref)
of `plan_pretrajectory(track)` for the three library tracks and for a
seeded family of generated corners (`corners.generated_corners`: all
three kinds, radius 8-20 m, width 4-8 m, entry 10-40 m, exit 20-70 m).
Beside each digest it keeps t_ref, the integral of squared curvature,
max |l| and whether the refinement converged, so a re-recording shows
what moved; the tests compare digests only.  The library tracks and the TIER1_CORNERS run by
default; the rest run under `-m nightly`.  Re-record, only when plans
are meant to change, with `PYTHONPATH=src python tests/test_plan_corpus.py`;
it prints every entry whose digest changed, with its old and new values.
Given an output path, it writes there and leaves the committed file
alone, so that two commits' recordings can be compared with `cmp`.

Every corpus plan, and the centerline plan of each library track, also
survives a save and a load bit for bit: the file holds the spline and
mu, and the load rebuilds every sample and t_ref from them.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from driftcorner.planner import (
    curvature_objective,
    load_pretrajectory,
    plan_pretrajectory,
    save_pretrajectory,
)
from driftcorner.track import LIBRARY_KINDS, build_library_track

from corners import generated_corners

CORPUS = Path(__file__).parent / "data" / "plan_corpus.json"
# the first corners, and corner 37: a right angle whose plan left the
# corridor margin when a second start could win on its integral of kappa^2
TIER1_CORNERS = (0, 1, 2, 3, 4, 5, 37)
SPEC_KEYS = ("kind", "radius", "width", "entry_len", "exit_len")
METRICS = ("t_ref", "curvature_objective", "max_abs_l", "converged")


def _digest(pre) -> str:
    raw = pre.l.tobytes() + pre.v_d.tobytes() + np.float64(pre.t_ref).tobytes()
    return hashlib.sha256(raw).hexdigest()


def plan_digest(track) -> str:
    return _digest(plan_pretrajectory(track))


def plan_entry(track) -> dict:
    """The digest of a plan and the metrics that explain a change of it."""
    pre = plan_pretrajectory(track)
    s = np.linspace(0.0, track.s_max, 4000)
    return {
        "digest": _digest(pre),
        "t_ref": pre.t_ref,
        "curvature_objective": curvature_objective(pre.path, track),
        "max_abs_l": float(np.max(np.abs(pre.path(s)))),
        "converged": pre.path.converged,
    }


def _print_if_changed(name: str, old: dict | None, new: dict) -> None:
    old = old or {}
    if old.get("digest") == new["digest"]:
        return
    print(f"{name}: digest {old.get('digest', '-')[:16]} -> {new['digest'][:16]}")
    for key in METRICS:
        print(f"  {key}: {old.get(key, '-')} -> {new[key]}")


def record(out: Path = CORPUS) -> None:
    """Re-plan the corpus, print the entries whose digest changed from
    the committed corpus, and write the result to `out`."""
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    library = {k: plan_entry(build_library_track(k)) for k in LIBRARY_KINDS}
    corners = [{**spec, **plan_entry(build_library_track(**spec))}
               for spec in generated_corners()]
    for kind, entry in library.items():
        _print_if_changed(kind, old.get("library", {}).get(kind), entry)
    old_corners = old.get("corners", [])
    for i, entry in enumerate(corners):
        prev = old_corners[i] if i < len(old_corners) else None
        _print_if_changed(f"corner{i:02d}-{entry['kind']}", prev, entry)
    corpus = {
        "digest": "sha256 of l, v_d (float64 bytes) and t_ref (float64)",
        "metrics": "t_ref (s), curvature_objective (integral of kappa^2, 1/m), "
                   "max_abs_l (m, over 4000 samples), converged",
        "library": library,
        "corners": corners,
    }
    out.write_text(json.dumps(corpus, indent=1) + "\n")


def _corner_params(corners):
    return [
        pytest.param(c, id=f"corner{i:02d}-{c['kind']}") for i, c in corners
    ]


_corpus = json.loads(CORPUS.read_text()) if CORPUS.exists() else None
_corners = list(enumerate(_corpus["corners"])) if _corpus else []


@pytest.mark.parametrize("kind", LIBRARY_KINDS)
def test_library_plan_matches_corpus(kind):
    assert plan_digest(build_library_track(kind)) == _corpus["library"][kind]["digest"]


@pytest.mark.parametrize(
    "corner", _corner_params([c for c in _corners if c[0] in TIER1_CORNERS]))
def test_generated_plan_matches_corpus(corner):
    spec = {k: corner[k] for k in SPEC_KEYS}
    assert plan_digest(build_library_track(**spec)) == corner["digest"]


@pytest.mark.nightly
@pytest.mark.parametrize(
    "corner", _corner_params([c for c in _corners if c[0] not in TIER1_CORNERS]))
def test_generated_plan_matches_corpus_nightly(corner):
    test_generated_plan_matches_corpus(corner)


def assert_round_trip(track, tmp_path, use_centerline=False):
    """Every field of a plan, and of its path, comes back from its file."""
    pre = plan_pretrajectory(track, use_centerline=use_centerline)
    save_pretrajectory(pre, tmp_path / "pre.txt")
    back = load_pretrajectory(tmp_path / "pre.txt", track)
    for old, new in [(pre, back), (pre.path, back.path)]:
        for f in dataclasses.fields(old):
            a, b = getattr(old, f.name), getattr(new, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
            elif f.name != "path":  # floats, flag and pins: repr is exact
                assert repr(a) == repr(b), f.name


@pytest.mark.parametrize("use_centerline", [False, True], ids=["planned", "centerline"])
@pytest.mark.parametrize("kind", LIBRARY_KINDS)
def test_library_plan_survives_its_file(kind, use_centerline, tmp_path):
    assert_round_trip(build_library_track(kind), tmp_path, use_centerline)


@pytest.mark.parametrize(
    "corner", _corner_params([c for c in _corners if c[0] in TIER1_CORNERS]))
def test_generated_plan_survives_its_file(corner, tmp_path):
    assert_round_trip(build_library_track(**{k: corner[k] for k in SPEC_KEYS}), tmp_path)


@pytest.mark.nightly
@pytest.mark.parametrize(
    "corner", _corner_params([c for c in _corners if c[0] not in TIER1_CORNERS]))
def test_generated_plan_survives_its_file_nightly(corner, tmp_path):
    test_generated_plan_survives_its_file(corner, tmp_path)


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS)
