"""Actor-critic learner: update rules, determinism, toy-task learning."""

import hashlib
import json
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from driftcorner import td3
from driftcorner.baseline import BaselineTracker
from driftcorner.envs import (ACTION_HIGH, ACTION_LOW, OBS_DIM, DriftEnv, FrenetObservation,
                              episode, run_episode)
from driftcorner.nets import mlp_backward, mlp_forward
from driftcorner.td3 import (
    Policy,
    Td3Hyperparams,
    behavior_clone,
    compute_target,
    policy_from_checkpoint,
    save_checkpoint,
    select_action,
    td3_init,
    train,
    update_actor_and_targets,
    update_critics,
)


@dataclass
class ToyResult:
    chi: int
    status: str
    t_f: float
    s_final: float
    total_reward: float
    r_p_sum: float = 0.0
    r_s_sum: float = 0.0
    r_m_sum: float = 0.0
    r_t: float = 0.0
    max_beta: float = 0.0
    max_speed: float = 0.0


class ReachObs(NamedTuple):
    p: float
    v: float

    def vector(self) -> np.ndarray:
        return np.array([self.p, self.v])


class ReachEnv:
    """1-D double integrator: drive position and velocity to the origin.

    Observation (p, v), acceleration command in [-1, 1], 0.1 s steps.
    Success = |p| < 0.1 and |v| < 0.2 within the horizon.  Follows the
    `DriftEnv` contract that `train` relies on.
    """

    action_low = np.array([-1.0])
    action_high = np.array([1.0])
    scales = np.array([2.0, 2.0])
    horizon = 60
    dt = 0.1

    def reset(self, seed=None, v0=None):
        self.p = (1.2 if seed is None
                  else float(np.random.default_rng(seed).uniform(-1.5, 1.5)))
        self.v = 0.0 if v0 is None else v0
        self.k = 0
        self.ret = 0.0
        return ReachObs(self.p, self.v)

    @property
    def state(self):
        return ReachObs(self.p, self.v)

    def step(self, action):
        a = float(np.clip(action[0], -1.0, 1.0))
        self.v += a * self.dt
        self.p += self.v * self.dt
        self.k += 1
        hit = abs(self.p) < 0.1 and abs(self.v) < 0.2
        rew = -abs(self.p) - 0.1 * abs(self.v) + (10.0 if hit else 0.0)
        self.ret += rew
        result = None
        if hit or self.k >= self.horizon:
            result = ToyResult(
                chi=int(hit), status="completed" if hit else "timeout",
                t_f=self.k * self.dt, s_final=-abs(self.p),
                total_reward=self.ret)
        return ReachObs(self.p, self.v), rew, result


TOY_HP = Td3Hyperparams(warmup=1000, batch_size=128, hidden=(64, 64),
                        buffer_size=50_000)


# -- update-rule unit checks -------------------------------------------


def _toy_state(seed=0, **hp_kw):
    hp = Td3Hyperparams(**{"hidden": (16, 16), "batch_size": 32, **hp_kw})
    return td3_init(2, np.array([-1.0]), np.array([1.0]), hp, seed)


def _fake_batch(state, n=32):
    rng = np.random.default_rng(9)
    obs = rng.normal(size=(n, 2))
    act = rng.uniform(-1, 1, size=(n, 1))
    rew = rng.normal(size=n)
    obs_next = rng.normal(size=(n, 2))
    done = (rng.random(n) < 0.2).astype(float)
    for row in zip(obs, act, rew, obs_next, done):
        state.buffer.add(*row)
    return obs, act, rew, obs_next, done


def test_target_uses_minimum_of_twin_critics(monkeypatch):
    monkeypatch.setattr(td3, "SIGMA_TARGET", 1e-12)  # disable smoothing noise
    state = _toy_state()
    batch = _fake_batch(state)
    y = compute_target(batch, state, state.hp)
    obs, act, rew, obs_next, done = batch
    # the reference runs on the same float32 targets the learner computes on
    a_next, _ = mlp_forward(state.target_actor, obs_next)
    x = np.concatenate([obs_next, 2 * (a_next - state.low)
                        / (state.high - state.low) - 1], axis=-1)
    q1, _ = mlp_forward(state.target_critic1, x)
    q2, _ = mlp_forward(state.target_critic2, x)
    want = rew + td3.GAMMA * (1 - done) * np.minimum(q1[:, 0], q2[:, 0])
    np.testing.assert_allclose(y, want, atol=1e-12)
    # the minimum actually binds on some rows in both directions
    assert np.any(q1[:, 0] < q2[:, 0]) and np.any(q2[:, 0] < q1[:, 0])


def test_target_smoothing_noise_is_clipped(monkeypatch):
    state, base_state = _toy_state(), _toy_state()
    batch = _fake_batch(state)
    monkeypatch.setattr(td3, "SIGMA_TARGET", 10.0)
    monkeypatch.setattr(td3, "NOISE_CLIP", 0.01)
    y_noisy = compute_target(batch, state, state.hp)
    monkeypatch.setattr(td3, "SIGMA_TARGET", 1e-12)
    y_clean = compute_target(batch, base_state, base_state.hp)
    # huge sigma but tight clip: targets stay close to the clean ones
    assert np.max(np.abs(y_noisy - y_clean)) < 0.5


@pytest.mark.parametrize("delay", [1, 2, 3])
def test_policy_delay_counts_exactly(delay):
    state = _toy_state(policy_delay=delay)
    batch = _fake_batch(state)
    for _ in range(12):
        y = compute_target(batch, state, state.hp)
        update_critics(state, batch, y)
        if state.critic_updates % state.hp.policy_delay == 0:
            update_actor_and_targets(state, batch)
    assert state.critic_updates == 12
    assert state.actor_updates == 12 // delay


def test_critic_update_reduces_its_loss():
    state = _toy_state()
    batch = _fake_batch(state)
    y = compute_target(batch, state, state.hp)
    l1a, l2a = update_critics(state, batch, y)
    for _ in range(50):
        update_critics(state, batch, y)
    l1b, l2b = update_critics(state, batch, y)
    assert l1b < l1a and l2b < l2a


def test_actor_update_increases_value():
    state = _toy_state()
    batch = _fake_batch(state)
    obs = batch[0]

    def mean_q():
        a, _ = mlp_forward(state.actor, obs)
        x = np.concatenate([obs, 2 * (a - state.low)
                            / (state.high - state.low) - 1], axis=-1)
        q, _ = mlp_forward(state.critic1, x)
        return float(np.mean(q))

    before = mean_q()
    for _ in range(25):
        update_actor_and_targets(state, batch)
    assert mean_q() > before


def test_targets_blend_from_the_online_mirrors_in_float32():
    # each target moves by tau towards its online network's mirror, the
    # actor's refreshed after its Adam step, in float32 arithmetic
    state = _toy_state()
    batch = _fake_batch(state)
    update_critics(state, batch, compute_target(batch, state, state.hp))
    old = {name: getattr(state, f"target_{name}").flat.copy() for name in td3._ONLINE}
    actor_before = state.mirror["actor"].flat.copy()
    update_actor_and_targets(state, batch)
    assert not np.array_equal(state.mirror["actor"].flat, actor_before)
    for name in td3._ONLINE:
        target, mirror = getattr(state, f"target_{name}"), state.mirror[name]
        want = np.float32(1.0 - td3.TAU) * old[name] + np.float32(td3.TAU) * mirror.flat
        assert target.flat.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(target.flat, want)


def test_select_action_respects_bounds_and_noise():
    state = _toy_state()
    rng = np.random.default_rng(0)
    obs = np.array([0.3, -0.2])
    det = select_action(state.actor, obs, 0.0, rng)
    det2 = select_action(state.actor, obs, 0.0, rng)
    np.testing.assert_array_equal(det, det2)
    noisy = [select_action(state.actor, obs, 0.5, rng) for _ in range(50)]
    assert np.all([(-1 <= a) & (a <= 1) for a in noisy])
    assert np.std([a[0] for a in noisy]) > 0.0


def test_behavior_clone_fits_linear_demonstrator():
    state = _toy_state()
    rng = np.random.default_rng(1)
    obs = rng.uniform(-1, 1, size=(4000, 2))
    act = np.clip(-0.8 * obs[:, :1] - 0.5 * obs[:, 1:], -1, 1)
    mse = behavior_clone(state, 3000, dataset=(obs, act))
    assert mse < 5e-3
    out, _ = mlp_forward(state.actor, obs[:200])
    assert float(np.mean((out - act[:200]) ** 2)) < 5e-3


def test_behavior_clone_counts_its_gradient_clips(monkeypatch):
    monkeypatch.setattr(td3, "GRAD_CLIP", 1e-9)
    state = _toy_state()
    obs = np.random.default_rng(1).uniform(-1, 1, size=(64, 2))
    behavior_clone(state, 3, dataset=(obs, 0.5 * obs[:, :1]))
    assert state.clip_events == 3


@pytest.mark.parametrize("fields, message", [
    ({"batch_size": 0}, "batch_size must be >= 1"),
    # a buffer smaller than a batch never yields one: no critic update runs
    ({"hidden": (8,), "batch_size": 32, "buffer_size": 16, "warmup": 0},
     "buffer_size must be >= batch_size"),
    ({"warmup": -1}, "warmup must be >= 0"),
    ({"hidden": (16, 0)}, "every hidden width must be >= 1"),
])
def test_hyperparams_are_validated(fields, message):
    with pytest.raises(ValueError, match=message):
        Td3Hyperparams(**fields)


# -- training loop -----------------------------------------------------


def test_zero_episodes_returns_initial_policy():
    policy, tlog, state = train(ReachEnv, TOY_HP, episodes=0, seed=3)
    fresh = td3_init(2, np.array([-1.0]), np.array([1.0]), TOY_HP, 3,
                     np.array([2.0, 2.0]))
    assert policy.checksum() == fresh.actor.checksum()
    assert tlog.rows == []


def test_train_refuses_a_checkpoint_period_below_one(tmp_path):
    # it divided by zero after the first episode had run
    def no_env():
        raise AssertionError("an environment was built")

    for every in (0, -1):
        with pytest.raises(ValueError, match="checkpoint_every must be at least 1"):
            train(no_env, TOY_HP, episodes=3, seed=0, out_dir=tmp_path,
                  checkpoint_every=every)
    assert not any(tmp_path.iterdir())


def test_train_resets_once_per_episode():
    class CountingReachEnv(ReachEnv):
        resets = 0

        def reset(self, seed=None, v0=None):
            self.resets += 1
            return super().reset(seed, v0)

    env = CountingReachEnv()
    train(lambda: env, TOY_HP, episodes=2, seed=0)
    assert env.resets == 2


def test_training_is_seed_deterministic():
    p1, log1, _ = train(ReachEnv, TOY_HP, episodes=12, seed=11)
    p2, log2, _ = train(ReachEnv, TOY_HP, episodes=12, seed=11)
    assert p1.checksum() == p2.checksum()
    assert log1.rows == log2.rows
    p3, _, _ = train(ReachEnv, TOY_HP, episodes=12, seed=12)
    assert p3.checksum() != p1.checksum()


# The TD3 goldens, recorded with the numpy-indexing plant kernel (numpy
# 2.4, OpenBLAS); `PYTHONPATH=src python tests/test_td3.py` prints what
# this build computes for each, to re-record them.
UTURN_GOLDEN = (532, 45.11710890767277)  # env steps, checksum
DEMONSTRATION_GOLDEN = (2400, 60.96444777062908)  # env steps, checksum
# actor updates, clip events, checksum, digest
FULL_SIZE_GOLDEN = (120, 45, 148.56545188334184, "3385b55570eae56e")


def uturn_run(uturn, uturn_pretraj):
    """Six 1.5 s episodes on the U-turn (300 random warm-up steps, then
    learning): pin the whole loop: plant, projection, reward, replay and
    updates."""
    hp = Td3Hyperparams(warmup=300, batch_size=64, hidden=(32, 32))
    _, _, state = train(lambda: DriftEnv(uturn, uturn_pretraj, time_cap=1.5),
                        hp, episodes=6, seed=3)
    return state.env_steps, state.checksum()


def demonstration_run(uturn, uturn_pretraj):
    """Two demonstrated episodes, the first cloning fit, the DAgger
    episodes with their top-up fits, then learning with the actor
    frozen: pin the demonstrator's labels and every draw of the
    imitation path."""
    hp = Td3Hyperparams(warmup=300, batch_size=64, hidden=(32, 32))
    demo = BaselineTracker(uturn, uturn_pretraj, speed_factor=0.88)
    _, _, state = train(lambda: DriftEnv(uturn, uturn_pretraj, time_cap=1.5),
                        hp, episodes=16, seed=3, demo_policy=demo,
                        demo_episodes=2)
    return state.env_steps, state.checksum()


def _full_size_state():
    """The benchmark's learner shape, default hidden (256, 256) and batch
    256, with 2048 seeded transitions in its replay buffer."""
    state = td3_init(OBS_DIM, ACTION_LOW, ACTION_HIGH, Td3Hyperparams(buffer_size=4096),
                     seed=17)
    rng = np.random.default_rng(18)
    n = 2048
    obs = rng.normal(size=(n, OBS_DIM))
    act = rng.uniform(ACTION_LOW, ACTION_HIGH, size=(n, len(ACTION_LOW)))
    rew = rng.normal(0.0, 3.0, n)
    obs_next = rng.normal(size=(n, OBS_DIM))
    done = (rng.random(n) < 0.05).astype(float)
    for row in zip(obs, act, rew, obs_next, done):
        state.buffer.add(*row)
    return state, (obs, act)


def full_size_run():
    """A short behavior-cloning fit of the full-size learner, then 240
    learning steps whose reward scale clips some of the gradients.  The
    checksum is a sum, blind to last-bit changes of single weights, so a
    digest of every parameter and Adam moment pins the state bit for
    bit."""
    state, demos = _full_size_state()
    hp = state.hp
    behavior_clone(state, 8, dataset=demos)
    for _ in range(240):
        batch = state.buffer.sample(hp.batch_size, state.rng)
        y = compute_target(batch, state, hp)
        update_critics(state, batch, y)
        if state.critic_updates % hp.policy_delay == 0:
            update_actor_and_targets(state, batch)
    digest = hashlib.sha256()
    for net in (state.actor, state.critic1, state.critic2, state.target_actor,
                state.target_critic1, state.target_critic2):
        digest.update(net.flat.tobytes())
    for key in ("m", "v"):
        for opt in (state.opt_actor, state.opt_critic1, state.opt_critic2):
            digest.update(getattr(opt, key).tobytes())
    return (state.actor_updates, state.clip_events, state.checksum(),
            digest.hexdigest()[:16])


def test_seeded_uturn_training_matches_recorded_checksum(uturn, uturn_pretraj):
    assert uturn_run(uturn, uturn_pretraj) == UTURN_GOLDEN


def test_seeded_demonstration_training_matches_recorded_checksum(uturn,
                                                                 uturn_pretraj):
    assert demonstration_run(uturn, uturn_pretraj) == DEMONSTRATION_GOLDEN


def test_full_size_learner_matches_recorded_checksum():
    assert full_size_run() == FULL_SIZE_GOLDEN


def _assert_mirrors_equal_masters(state):
    for name in td3._ONLINE:
        master, mirror = getattr(state, name), state.mirror[name]
        assert mirror.flat.dtype == np.float32
        np.testing.assert_array_equal(mirror.flat, master.flat.astype(np.float32))
        if master.head == "bounded":
            np.testing.assert_array_equal(mirror.low, master.low.astype(np.float32))
            np.testing.assert_array_equal(mirror.high, master.high.astype(np.float32))


def test_mirrors_equal_their_masters_after_training_and_loading(monkeypatch,
                                                                tmp_path):
    obs = np.random.default_rng(1).uniform(-1, 1, size=(64, 2))
    state = _toy_state()
    behavior_clone(state, 3, dataset=(obs, 0.5 * obs[:, :1]))
    _assert_mirrors_equal_masters(state)
    # demonstrations, the cloning fits, DAgger, the actor freeze and then
    # actor updates: every path that writes a master
    monkeypatch.setattr(td3, "DAGGER_EPISODES", 2)
    monkeypatch.setattr(td3, "BC_STEPS", 40)
    monkeypatch.setattr(td3, "ACTOR_FREEZE", 30)
    hp = Td3Hyperparams(warmup=100, batch_size=32, hidden=(16, 16), buffer_size=5000)
    _, _, state = train(ReachEnv, hp, episodes=10, seed=2,
                        demo_policy=lambda obs, _: np.clip(
                            -0.8 * obs.vector()[:1] - 0.5 * obs.vector()[1:], -1.0, 1.0),
                        demo_episodes=2)
    assert 0 < state.actor_updates < state.critic_updates // hp.policy_delay
    _assert_mirrors_equal_masters(state)
    path = tmp_path / "ck.npz"
    save_checkpoint(state, path)
    back = policy_from_checkpoint(path).actor
    assert back.flat.dtype == np.float64
    np.testing.assert_array_equal(back.flat, state.actor.flat)
    np.testing.assert_array_equal(back.flat.astype(np.float32), state.mirror["actor"].flat)


def test_the_demonstrator_reads_the_envs_observation(monkeypatch, uturn, uturn_pretraj):
    returned = []  # every observation the env handed out

    class RecordingEnv(DriftEnv):
        def reset(self, *args):
            returned.append(super().reset(*args))
            return returned[-1]

        def step(self, action):
            out = super().step(action)
            returned.append(out[0])
            return out

    seen = []
    tracker = BaselineTracker(uturn, uturn_pretraj, speed_factor=0.88)

    def demo(obs, state):
        seen.append(obs)
        return tracker(obs, state)

    monkeypatch.setattr(td3, "DAGGER_EPISODES", 1)
    monkeypatch.setattr(td3, "BC_STEPS", 4)
    hp = Td3Hyperparams(warmup=10, batch_size=8, hidden=(8, 8), buffer_size=100)
    train(lambda: RecordingEnv(uturn, uturn_pretraj, time_cap=0.1), hp, episodes=2,
          seed=0, demo_policy=demo, demo_episodes=1)
    assert len(seen) == 20  # two episodes of ten ticks
    assert all(type(obs) is FrenetObservation for obs in seen)
    handed_out = {id(obs) for obs in returned}
    assert all(id(obs) in handed_out for obs in seen)


def test_float32_gradients_agree_with_the_float64_masters(monkeypatch):
    # the gradients the learner hands Adam, against the same gradients
    # computed on the float64 masters: within 64 float32 epsilons of the
    # largest entry (a seeded full-size batch reads 2 to 4)
    grads = []
    monkeypatch.setattr(td3.Adam, "step", lambda opt, param, grad: grads.append(grad.copy()))
    monkeypatch.setattr(td3, "GRAD_CLIP", np.inf)
    state, _ = _full_size_state()
    batch = state.buffer.sample(state.hp.batch_size, state.rng)
    update_critics(state, batch, batch[2])
    update_actor_and_targets(state, batch)

    obs, act, rew = (b.astype(float) for b in batch[:3])
    n, span = len(obs), state.high - state.low
    x = np.concatenate([obs, 2.0 * (act - state.low) / span - 1.0], axis=1)
    want = []
    for critic in (state.critic1, state.critic2):
        q, cache = mlp_forward(critic, x)
        mlp_backward(critic, cache, (2.0 * (q[:, 0] - rew) / n)[:, None], inputs=False)
        want.append(critic.grad)
    a, cache_a = mlp_forward(state.actor, obs)
    x = np.concatenate([obs, 2.0 * (a - state.low) / span - 1.0], axis=1)
    _, cache_q = mlp_forward(state.critic1, x)
    _, _, g_in = mlp_backward(state.critic1, cache_q, np.full((n, 1), -1.0 / n),
                              params=False)
    mlp_backward(state.actor, cache_a, g_in[:, OBS_DIM:] * (2.0 / span), inputs=False)
    want.append(state.actor.grad)

    assert len(grads) == 3
    tol = 64 * np.finfo(np.float32).eps
    for got, ref in zip(grads, want):
        assert got.dtype == np.float32 and ref.dtype == np.float64
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


def test_toy_reach_task_learned_within_200_episodes():
    policy, tlog, state = train(ReachEnv, TOY_HP, episodes=200, seed=0)
    env = ReachEnv()
    wins = sum(run_episode(policy, env, trial).chi for trial in range(100))
    assert wins > 95


def test_checkpoint_round_trip(tmp_path):
    _, _, state = train(ReachEnv, TOY_HP, episodes=5, seed=4)
    path = tmp_path / "ck.npz"
    save_checkpoint(state, path)
    back = policy_from_checkpoint(path)
    assert back.checksum() == state.actor.checksum()
    np.testing.assert_array_equal(back.actor.flat, state.actor.flat)
    np.testing.assert_array_equal(back.actor.low, state.low)
    np.testing.assert_array_equal(back.actor.high, state.high)
    np.testing.assert_array_equal(back.obs_scale, state.obs_scale)
    obs = ReachObs(0.4, -0.1)
    np.testing.assert_array_equal(back(obs, None), Policy(state.actor, state.obs_scale)(obs, None))


def test_a_full_size_checkpoint_is_the_policy(uturn, uturn_pretraj, tmp_path):
    # the benchmark's learner shape: the file holds its actor alone, and
    # the policy loaded acts bit for bit as the one in memory, on seeded
    # observations and through a U-turn rollout, a preview's computation
    state, (obs, _) = _full_size_state()
    behavior_clone(state, 2, dataset=(obs, np.zeros((len(obs), len(ACTION_LOW)))))
    path = tmp_path / "ck.npz"
    save_checkpoint(state, path)
    assert path.stat().st_size <= 600_000
    back, policy = policy_from_checkpoint(path), Policy(state.actor, state.obs_scale)
    assert back.checksum() == policy.checksum()
    for row in obs[:64]:
        raw = SimpleNamespace(vector=lambda row=row: row)
        np.testing.assert_array_equal(back(raw, None), policy(raw, None))
    rollouts = [[(*st, *act) for _, st, act, *_ in episode(p, DriftEnv(uturn, uturn_pretraj))]
                for p in (back, policy)]
    assert len(rollouts[0]) > 1
    np.testing.assert_array_equal(*rollouts)


def test_checkpoint_layout_is_flat(tmp_path):
    # since version 5 a checkpoint is a policy: the actor's flat float64
    # parameters, the action bounds and the observation scales
    state = _toy_state()
    batch = _fake_batch(state)
    update_critics(state, batch, compute_target(batch, state, state.hp))
    update_actor_and_targets(state, batch)
    path = tmp_path / "ck.npz"
    save_checkpoint(state, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays.pop("meta")).decode())
    # weights 2·16 + 16·16 + 16·1, then biases 16 + 16 + 1
    assert {k: (a.shape, a.dtype) for k, a in arrays.items()} == {
        "actor": ((337,), np.float64), "low": ((1,), np.float64),
        "high": ((1,), np.float64), "obs_scale": ((2,), np.float64)}
    np.testing.assert_array_equal(arrays["actor"], state.actor.flat)
    assert meta == {"version": 5, "sizes": [2, 16, 16, 1],
                    "checksum": state.actor.checksum(), "digest": meta["digest"]}


def test_load_checkpoint_rejects_other_versions(tmp_path):
    # version 1 stored every layer and moment as an array of its own,
    # version 2 kept no digest of the arrays, version 3 kept the targets
    # and the moments in float64, and version 4 held the whole learner
    path = tmp_path / "ck.npz"
    save_checkpoint(_toy_state(), path)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    for version, message in (*((v, f"{path}: a version {v} checkpoint, which this version "
                                   "no longer reads; re-create it with `driftcorner train`")
                               for v in (1, 2, 3, 4)),
                             (6, f"{path}: checkpoint version 6, this program reads version 5"),
                             (None, f"{path}: checkpoint version None")):
        meta["version"] = version
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=re.escape(message)):
            policy_from_checkpoint(path)


def test_load_checkpoint_checks_the_stored_checksum(tmp_path):
    path = tmp_path / "ck.npz"
    save_checkpoint(_toy_state(), path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["actor"][5] += 1.0
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=re.escape(f"{path}: parameters sum to")):
        policy_from_checkpoint(path)


def _rewrite(path, **changes):
    """Re-save a checkpoint with some of its arrays replaced."""
    with np.load(path) as data:
        arrays = dict(data)
    arrays.update(changes)
    np.savez(path, **arrays)


def test_load_checkpoint_checks_the_stored_digest(tmp_path):
    # values that keep every shape and the parameters' sum: scaled
    # observation scales, moved action bounds, two swapped weights
    state = _toy_state()
    path = tmp_path / "ck.npz"
    save_checkpoint(state, path)
    swapped = state.actor.flat.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert swapped[0] != swapped[1]
    for key, new in (("obs_scale", 7.0 * state.obs_scale),
                     ("low", state.low - 0.5), ("high", state.high + 0.5),
                     ("actor", swapped)):
        _rewrite(path, **{key: new})
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: stored arrays do not match the checkpoint's SHA-256 digest")):
            policy_from_checkpoint(path)
        save_checkpoint(state, path)
    policy_from_checkpoint(path)


def test_load_checkpoint_checks_the_bounds_and_scales(tmp_path):
    # the toy actor maps 2 observations to 1 action through 337 parameters
    path = tmp_path / "ck.npz"
    state = _toy_state()
    save_checkpoint(state, path)
    for key, size in (("low", 1), ("high", 1), ("obs_scale", 2), ("actor", 337)):
        _rewrite(path, **{key: np.ones(size + 1)})
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {key} has shape ({size + 1},), expected ({size},)")):
            policy_from_checkpoint(path)
        save_checkpoint(state, path)


def test_train_writes_its_run_directory(tmp_path):
    # one evaluation period with two periodic checkpoints; the warm-up
    # outlasts the budget, so no update runs
    hp = Td3Hyperparams(warmup=10_000, batch_size=32, hidden=(16, 16), buffer_size=5000)
    train(ReachEnv, hp, episodes=td3.EVAL_EVERY, out_dir=tmp_path, checkpoint_every=25)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint_ep00025.npz", "checkpoint_ep00050.npz", "policy.npz",
        "policy_best.npz", "train.log"]
    assert len((tmp_path / "train.log").read_text().splitlines()) == td3.EVAL_EVERY
    # no update ran, so every policy file holds the initial actor
    initial = td3_init(2, ReachEnv.action_low, ReachEnv.action_high, hp).actor.checksum()
    for name in ("checkpoint_ep00025.npz", "policy.npz", "policy_best.npz"):
        assert policy_from_checkpoint(tmp_path / name).checksum() == initial


def test_policy_best_ranks_completions_by_time_and_the_rest_by_progress(monkeypatch,
                                                                      tmp_path):
    # the rank was (chi, -t_f), so a crash at 0.3 s beat a timeout that
    # got further; each evaluation here ends as scripted
    def ended(chi, t_f, s_final):
        return ToyResult(chi=chi, status="completed" if chi else "crashed", t_f=t_f,
                         s_final=s_final, total_reward=0.0)

    evals = [ended(0, 6.0, -0.05), ended(0, 0.3, -1.4), ended(1, 5.0, 0.0),
             ended(1, 4.0, 0.0), ended(1, 4.5, 0.0), ended(0, 6.0, -0.01)]
    done, best = [], []

    def evaluate(policy, env):
        done.append(evals[len(done)])
        return done[-1]

    def save(state, path):
        if path.name == "policy_best.npz":
            best.append(len(done))

    monkeypatch.setattr(td3, "EVAL_EVERY", 1)
    monkeypatch.setattr(td3, "run_episode", evaluate)
    monkeypatch.setattr(td3, "save_checkpoint", save)
    hp = Td3Hyperparams(warmup=10_000, batch_size=32, hidden=(16, 16), buffer_size=5000)
    train(ReachEnv, hp, episodes=len(evals), out_dir=tmp_path, checkpoint_every=len(evals))
    assert best == [1, 3, 4]  # the first, the first completion, the fastest


def test_resume_matches_uninterrupted_run():
    # 12 episodes straight == 6 episodes, then 6 more on the same state:
    # training continues in memory, as the benchmark's train workload
    # runs it, one episode per call; learning starts in the first half
    hp = Td3Hyperparams(warmup=100, batch_size=32, hidden=(16, 16), buffer_size=5000)
    p_full, log_full, full = train(ReachEnv, hp, episodes=12, seed=5)
    _, log_a, st = train(ReachEnv, hp, episodes=6, seed=5)
    assert st.actor_updates > 0
    p_res, log_b, st = train(ReachEnv, hp, episodes=6, seed=5, state=st)
    assert p_res.checksum() == p_full.checksum()
    assert st.checksum() == full.checksum()
    assert log_a.reward + log_b.reward == log_full.reward
    assert (st.env_steps, st.critic_updates, st.actor_updates) == (
        full.env_steps, full.critic_updates, full.actor_updates)


if __name__ == "__main__":
    from driftcorner.planner import plan_pretrajectory
    from driftcorner.track import build_library_track

    geometry = build_library_track("uturn")
    pretraj = plan_pretrajectory(geometry)
    for name, recorded, run in (
            ("UTURN_GOLDEN", UTURN_GOLDEN, lambda: uturn_run(geometry, pretraj)),
            ("DEMONSTRATION_GOLDEN", DEMONSTRATION_GOLDEN,
             lambda: demonstration_run(geometry, pretraj)),
            ("FULL_SIZE_GOLDEN", FULL_SIZE_GOLDEN, full_size_run)):
        print(f"{name} = {run()!r}  # recorded {recorded!r}")
