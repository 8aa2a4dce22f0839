"""The traced benchmark run (perfbench/spans.py) wraps functions by
replacing module attributes; every attribute it patches must exist."""

import importlib.util
from pathlib import Path

import numpy as np

from driftcorner import envs, fusion, kernels, nets, plant, replay, td3, track

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    bindings = [(fusion, "to_frenet"), (plant, "to_frenet"), (envs, "to_frenet"),
                (plant, "detect_termination"), (envs, "detect_termination"),
                (kernels, "integrate"), (nets.Adam, "step"),
                (replay.ReplayBuffer, "sample"), (replay.ReplayBuffer, "add")]
    # the learner layers: `td3` calls the nets functions through its own
    # bindings, so a traced train run times them only if both are patched
    for fn in ("mlp_forward", "mlp_backward", "clip_gradients", "soft_update"):
        bindings += [(nets, fn), (td3, fn)]
    for fn in ("compute_target", "update_critics", "update_actor_and_targets",
               "select_action", "train"):
        bindings.append((td3, fn))
    before = [getattr(owner, attr) for owner, attr in bindings]
    tracer = _load_spans().Tracer()
    tracer.install()  # KeyError if a binding it patches is gone
    try:
        for (owner, attr), original in zip(bindings, before):
            assert getattr(owner, attr) is not original
        # one learner step reaches every learner layer through them
        state = td3.td3_init(2, np.array([-1.0]), np.array([1.0]),
                             td3.Td3Hyperparams(hidden=(8,), batch_size=4), 0)
        rng = np.random.default_rng(0)
        for _ in range(4):
            state.buffer.add(rng.normal(size=2), rng.uniform(-1, 1, 1),
                             1.0, rng.normal(size=2), 0.0)
        batch = state.buffer.sample(4, state.rng)
        td3.update_critics(state, batch, td3.compute_target(batch, state, state.hp))
        td3.update_actor_and_targets(state, batch)
        assert {"nets.mlp_forward", "nets.mlp_backward", "nets.clip_gradients",
                "nets.Adam.step", "nets.soft_update", "td3.compute_target",
                "td3.update_critics", "td3.update_actor_and_targets",
                "replay.ReplayBuffer.sample", "replay.ReplayBuffer.add"} <= set(tracer.name)
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(bindings, before):
        assert getattr(owner, attr) is original
    assert fusion.to_frenet is track.to_frenet
    assert td3.mlp_backward is nets.mlp_backward
