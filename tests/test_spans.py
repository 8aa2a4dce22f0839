"""The traced benchmark run (perfbench/spans.py) wraps functions by
replacing module attributes; every attribute it patches must exist."""

import importlib.util
from pathlib import Path

from driftcorner import envs, fusion, kernels, plant, track

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    bindings = [(fusion, "to_frenet"), (plant, "to_frenet"), (envs, "to_frenet"),
                (plant, "detect_termination"), (envs, "detect_termination"),
                (kernels, "integrate")]
    before = [getattr(owner, attr) for owner, attr in bindings]
    tracer = _load_spans().Tracer()
    tracer.install()  # KeyError if a binding it patches is gone
    try:
        for (owner, attr), original in zip(bindings, before):
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(bindings, before):
        assert getattr(owner, attr) is original
    assert fusion.to_frenet is track.to_frenet
