"""Twin-delayed deterministic actor-critic learner.

Twin critics bootstrapped through the element-wise minimum of their
target copies, target-policy smoothing noise, delayed actor/target
updates, and a ring replay buffer.  Everything runs on the explicit
numpy networks in `nets`, so training is deterministic under a fixed
seed for a given numpy and BLAS build.

Each learner quantity is stored once, in the precision it is used in.
The three online networks (actor and twin critics) are float64 masters,
which acting, evaluation, the policy and the checkpoints read, and each
has a float32 mirror.  The batch updates (`compute_target`,
`update_critics`, `update_actor_and_targets` and `behavior_clone`)
compute in float32 on the mirrors, whose float32 gradients Adam takes
into float32 moments and the float64 masters.  Every write to a master
is followed, in the same function, by one cast of it into its mirror,
so a mirror always equals its master cast to float32.  The three target
networks are read only by the float32 batch arithmetic, so they are
float32 networks, blended from the online mirrors.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .envs import episode, run_episode
from .nets import (Adam, Mlp, clip_gradients, float32_mirror, layer_views, mlp_backward,
                   mlp_forward, mlp_init, soft_update)
from .replay import ReplayBuffer

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 4
# The update rule of Fujimoto, van Hoof and Meger (2018): discount,
# target blend, one Adam step size for the actor and both critics, the
# exploration and target-smoothing noise and the smoothing clip (each a
# fraction of the action range), and the global gradient-norm clip.
GAMMA = 0.99
TAU = 0.005
LR = 3e-4
SIGMA_EXPLORE = 0.1
SIGMA_TARGET = 0.2
NOISE_CLIP = 0.5
GRAD_CLIP = 10.0
DAGGER_EPISODES = 12  # episodes the cloned actor drives after the demos
BC_STEPS = 4000  # supervised batches of the first behavior-cloning fit
BC_BATCH = 256  # labels per behavior-cloning batch
ACTOR_FREEZE = 10000  # critic updates with the actor held after imitation
EVAL_EVERY = 50  # episodes between greedy evaluation rollouts
# the online networks and then their targets, by their `Td3State` field names
_ONLINE = ("actor", "critic1", "critic2")
_NETS = (*_ONLINE, *(f"target_{name}" for name in _ONLINE))


@dataclass(frozen=True)
class Td3Hyperparams:
    policy_delay: int = 2
    batch_size: int = 256
    buffer_size: int = 500_000
    warmup: int = 5000  # random-action steps before learning
    hidden: tuple[int, ...] = (256, 256)

    def __post_init__(self):
        if self.policy_delay < 1:
            raise ValueError("policy_delay must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.buffer_size < self.batch_size:
            raise ValueError("buffer_size must be >= batch_size, or no batch "
                             "is ever drawn")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if any(width < 1 for width in self.hidden):
            raise ValueError("every hidden width must be >= 1")


@dataclass
class Td3State:
    """The learner: the three float64 online networks and their
    optimizers, the three float32 target networks, the replay buffer,
    the generator and the counters.  `mirror` maps each online network's
    name to its float32 mirror, built with the state; it is not stored
    in checkpoints nor summed by `checksum()`."""

    actor: Mlp
    critic1: Mlp
    critic2: Mlp
    target_actor: Mlp
    target_critic1: Mlp
    target_critic2: Mlp
    buffer: ReplayBuffer
    hp: Td3Hyperparams
    low: np.ndarray
    high: np.ndarray
    obs_scale: np.ndarray
    rng: np.random.Generator
    opt_actor: Adam = field(default_factory=lambda: Adam(LR))
    opt_critic1: Adam = field(default_factory=lambda: Adam(LR))
    opt_critic2: Adam = field(default_factory=lambda: Adam(LR))
    critic_updates: int = 0
    actor_updates: int = 0
    env_steps: int = 0
    clip_events: int = 0
    mirror: dict[str, Mlp] = field(init=False, repr=False)

    def __post_init__(self):
        self.mirror = {name: float32_mirror(getattr(self, name)) for name in _ONLINE}

    def checksum(self) -> float:
        return (self.actor.checksum() + self.critic1.checksum()
                + self.critic2.checksum() + self.target_actor.checksum()
                + self.target_critic1.checksum()
                + self.target_critic2.checksum())


def td3_init(
    obs_dim: int,
    low: np.ndarray,
    high: np.ndarray,
    hp: Td3Hyperparams = Td3Hyperparams(),
    seed: int = 0,
    obs_scale: np.ndarray | None = None,
) -> Td3State:
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    act_dim = len(low)
    rng = np.random.default_rng(seed)
    actor = mlp_init([obs_dim, *hp.hidden, act_dim], rng, "bounded", low, high)
    critic1 = mlp_init([obs_dim + act_dim, *hp.hidden, 1], rng)
    critic2 = mlp_init([obs_dim + act_dim, *hp.hidden, 1], rng)
    return Td3State(
        actor=actor, critic1=critic1, critic2=critic2,
        target_actor=float32_mirror(actor), target_critic1=float32_mirror(critic1),
        target_critic2=float32_mirror(critic2),
        buffer=ReplayBuffer(hp.buffer_size, obs_dim, act_dim),
        hp=hp, low=low, high=high,
        obs_scale=(np.ones(obs_dim) if obs_scale is None
                   else np.asarray(obs_scale, dtype=float)),
        rng=rng,
    )


def _act_norm(a: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Map actions into [-1, 1] for the critic input."""
    return 2.0 * (a - low) / (high - low) - 1.0


def _critic_input(obs: np.ndarray, act: np.ndarray, low, high) -> np.ndarray:
    """The float32 critic input of observations and actions."""
    return np.concatenate([obs, _act_norm(act, low, high)], axis=-1, dtype=np.float32)


def _refresh(state: Td3State, name: str) -> None:
    """Cast the named master network into its float32 mirror."""
    state.mirror[name].flat[...] = getattr(state, name).flat


def select_action(
    actor: Mlp,
    obs: np.ndarray,
    noise_sigma: np.ndarray | float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deterministic policy output plus Gaussian exploration noise,
    clamped to the action bounds.  obs must already be normalized."""
    a, _ = mlp_forward(actor, np.asarray(obs, dtype=float))
    if np.any(np.asarray(noise_sigma) > 0.0):
        a = a + rng.normal(0.0, 1.0, a.shape) * noise_sigma
    return np.clip(a, actor.low, actor.high)


def compute_target(batch, state: Td3State, hp: Td3Hyperparams) -> np.ndarray:
    """Bootstrap targets: smoothed target-policy action, then the
    element-wise minimum of the two float32 target critics.  `hp` is
    unused."""
    _, _, rew, obs_next, done = batch
    a_next, _ = mlp_forward(state.target_actor, obs_next)
    span = state.high - state.low
    noise = np.clip(
        state.rng.normal(0.0, 1.0, a_next.shape) * (SIGMA_TARGET * span),
        -NOISE_CLIP * span, NOISE_CLIP * span,
    )
    a_next = np.clip(a_next + noise, state.low, state.high)
    x = _critic_input(obs_next, a_next, state.low, state.high)
    q1, _ = mlp_forward(state.target_critic1, x)
    q2, _ = mlp_forward(state.target_critic2, x)
    q_min = np.minimum(q1[:, 0], q2[:, 0])
    return rew + GAMMA * (1.0 - done) * q_min


def _clip(state: Td3State, grad: np.ndarray) -> None:
    """Clip one network's flat gradient to `GRAD_CLIP` in place, counting
    each clip in `state.clip_events` and logging one in every 1000."""
    norm = clip_gradients(grad, GRAD_CLIP)
    if norm > GRAD_CLIP:
        state.clip_events += 1
        if state.clip_events % 1000 == 1:
            log.warning("gradient norm %.2f clipped to %.2f "
                        "(%d clip events so far)",
                        norm, GRAD_CLIP, state.clip_events)


def update_critics(state: Td3State, batch, y: np.ndarray) -> tuple[float, float]:
    """One mean-squared-error gradient step per critic."""
    obs, act = batch[0], batch[1]
    x = _critic_input(obs, act, state.low, state.high)
    n = len(y)
    losses = []
    for name, opt in (("critic1", state.opt_critic1),
                      ("critic2", state.opt_critic2)):
        critic = state.mirror[name]
        q, cache = mlp_forward(critic, x)
        err = q[:, 0] - y
        losses.append(float(np.mean(err * err)))
        mlp_backward(critic, cache, (2.0 * err / n)[:, None], inputs=False)
        _clip(state, critic.grad)
        opt.step(getattr(state, name).flat, critic.grad)
        _refresh(state, name)
    state.critic_updates += 1
    return losses[0], losses[1]


def update_actor_and_targets(state: Td3State, batch) -> None:
    """Actor ascent on the first critic's value, then soft updates of
    each target from its online network's mirror."""
    obs = batch[0]
    n = len(obs)
    actor, critic1 = state.mirror["actor"], state.mirror["critic1"]
    a, cache_a = mlp_forward(actor, obs)
    _, cache_q = mlp_forward(critic1, _critic_input(obs, a, state.low, state.high))
    # Maximize mean Q: push -dQ/da back through the actor.
    _, _, g_in = mlp_backward(critic1, cache_q, np.full((n, 1), -1.0 / n),
                              params=False)
    g_a = g_in[:, obs.shape[1]:] * (2.0 / (state.high - state.low))
    mlp_backward(actor, cache_a, g_a, inputs=False)
    _clip(state, actor.grad)
    state.opt_actor.step(state.actor.flat, actor.grad)
    state.actor_updates += 1
    _refresh(state, "actor")
    for name in _ONLINE:
        soft_update(getattr(state, f"target_{name}"), state.mirror[name], TAU)


def behavior_clone(state: Td3State, steps: int, dataset) -> float:
    """Supervised actor regression onto demonstrated actions.

    Fits the actor to `dataset`, an ``(obs, act)`` array pair, in
    batches of `BC_BATCH`.  Used to pull the freshly initialized actor
    into the demonstration tube before value-driven updates start;
    returns the last batch MSE.  The target actor is hard-synced
    afterwards, from the actor's mirror, so smoothing noise is applied
    around the cloned policy.
    """
    mse = float("nan")
    span = state.high - state.low
    actor = state.mirror["actor"]
    for _ in range(steps):
        idx = state.rng.integers(0, len(dataset[0]), BC_BATCH)
        obs, act = dataset[0][idx], dataset[1][idx]
        out, cache = mlp_forward(actor, obs)
        # regress in normalized action space so no dimension's physical
        # units dominate the loss (or the gradient clip)
        err = (out - act) * (2.0 / span)
        mse = float(np.mean(err**2))
        mlp_backward(actor, cache, err * (2.0 / span) * (2.0 / len(err)),
                     inputs=False)
        _clip(state, actor.grad)
        state.opt_actor.step(state.actor.flat, actor.grad)
        _refresh(state, "actor")
    state.target_actor.flat[...] = actor.flat
    return mse


# -- deployment-side policy wrapper -----------------------------------


@dataclass
class Policy:
    """Deterministic actor over raw (unnormalized) observations, as a
    controller that reads `obs.vector()`."""

    actor: Mlp
    obs_scale: np.ndarray

    def __call__(self, obs, state) -> np.ndarray:
        out, _ = mlp_forward(self.actor, obs.vector() / self.obs_scale)
        return out

    def checksum(self) -> float:
        return self.actor.checksum()


# -- checkpoints ------------------------------------------------------


_OPTS = ("opt_actor", "opt_critic1", "opt_critic2")
_ARRAYS = (*_NETS, *(f"{name}_{moment}" for name in _OPTS for moment in "mv"),
           "low", "high", "obs_scale")


def _arrays_digest(arrays) -> str:
    """SHA-256 over the stored arrays: each one's name, dtype, shape and
    bytes, in the order of _ARRAYS."""
    h = hashlib.sha256()
    for name in _ARRAYS:
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def save_checkpoint(state: Td3State, path) -> None:
    """Binary dump of all parameters, optimizer moments, hyperparams,
    counters, and the RNG state; round-trips exactly.

    Each network is stored as its flat parameter vector, float64 for an
    online network and float32 for a target, and each optimizer as its
    flat `m` and `v` (empty before its first step, then float32); the
    metadata holds the parameters' sum and a SHA-256 digest of every
    stored array."""
    arrays = {name: getattr(state, name).flat for name in _NETS}
    for name in _OPTS:
        opt = getattr(state, name)
        arrays[f"{name}_m"], arrays[f"{name}_v"] = opt.m, opt.v
    arrays["low"] = state.low
    arrays["high"] = state.high
    arrays["obs_scale"] = state.obs_scale
    meta = {
        "version": CHECKPOINT_VERSION,
        "hp": {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in vars(state.hp).items()},
        "sizes": state.actor.sizes,
        "critic_sizes": state.critic1.sizes,
        "counters": {
            "critic_updates": state.critic_updates,
            "actor_updates": state.actor_updates,
            "env_steps": state.env_steps,
        },
        "opt_t": [getattr(state, name).t for name in _OPTS],
        "rng_state": state.rng.bit_generator.state,
        "checksum": state.checksum(),
        "digest": _arrays_digest(arrays),
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, default=str).encode(), dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)


def _checkpoint_meta(data, path) -> dict:
    """The metadata entry of a `save_checkpoint` file; a ValueError
    naming `path` for any other .npz or another checkpoint version."""
    try:
        meta = json.loads(bytes(data["meta"]).decode())
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: not a driftcorner checkpoint") from exc
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {meta.get('version')!r}, "
                         f"this program reads version {CHECKPOINT_VERSION}")
    return meta


def load_checkpoint(path, buffer: ReplayBuffer | None = None) -> Td3State:
    """Rebuild a learner state from `save_checkpoint` output.

    The replay buffer contents are not stored; pass one in to resume
    training, or leave it empty for deployment-only use.  Parameters
    that do not sum to the stored checksum, action bounds or observation
    scales not sized for the stored actor, optimizer moments neither
    empty nor sized for their network, arrays that do not match the
    stored digest, and metadata or arrays missing or not of this
    program's learner are each a ValueError naming the file."""
    if Path(path).is_file() and not zipfile.is_zipfile(path):
        # numpy would try the file as a pickle and refuse it
        raise ValueError(f"{path}: not a driftcorner checkpoint")
    try:
        with np.load(path) as data:
            meta = _checkpoint_meta(data, path)
            digest = _arrays_digest(data)
            hp_d = dict(meta["hp"])
            hp_d["hidden"] = tuple(hp_d["hidden"])
            hp = Td3Hyperparams(**hp_d)
            low, high = data["low"], data["high"]
            sizes = meta["sizes"]
            for name, size in (("low", sizes[-1]), ("high", sizes[-1]),
                               ("obs_scale", sizes[0])):
                _check_shape(path, name, data[name], (size,))
            nets = {}
            for name in _NETS:
                flat = data[name]  # float64 for an online network, float32 for a target
                if "actor" in name:
                    views = layer_views(flat, sizes)
                    nets[name] = Mlp(*views, "bounded", low.astype(flat.dtype),
                                     high.astype(flat.dtype))
                else:
                    nets[name] = Mlp(*layer_views(flat, meta["critic_sizes"]))
            state = Td3State(
                **nets,
                buffer=(buffer if buffer is not None
                        else ReplayBuffer(hp.buffer_size, sizes[0], len(low))),
                hp=hp, low=low.copy(), high=high.copy(),
                obs_scale=data["obs_scale"].copy(),
                rng=np.random.default_rng(),
                **meta["counters"],
            )
            try:
                state.rng.bit_generator.state = meta["rng_state"]
            except ValueError as exc:  # numpy's refusal of another generator's state
                raise ValueError(f"{path}: malformed checkpoint (rng_state: {exc})") from exc
            if len(meta["opt_t"]) != len(_OPTS):
                raise ValueError(f"{path}: malformed checkpoint (opt_t holds {len(meta['opt_t'])} "
                                 f"step counts for {len(_OPTS)} optimizers)")
            for name, t in zip(_OPTS, meta["opt_t"]):
                opt = getattr(state, name)
                opt.m, opt.v, opt.t = data[f"{name}_m"], data[f"{name}_v"], t
                flat = getattr(state, name.removeprefix("opt_")).flat.shape
                _check_shape(path, f"{name}_m", opt.m, (0,), flat)
                _check_shape(path, f"{name}_v", opt.v, (0,), flat)
        if (got := state.checksum()) != meta["checksum"]:
            raise ValueError(f"{path}: parameters sum to {got!r}, "
                             f"the checkpoint records {meta['checksum']!r}")
        if digest != meta["digest"]:
            raise ValueError(f"{path}: stored arrays do not match the checkpoint's "
                             "SHA-256 digest")
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        # metadata or arrays that this program cannot use
        raise ValueError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    return state


def _check_shape(path, name: str, array: np.ndarray, *shapes) -> None:
    if array.shape not in shapes:
        raise ValueError(f"{path}: {name} has shape {array.shape}, "
                         f"expected {' or '.join(map(str, shapes))}")


def policy_from_checkpoint(path) -> Policy:
    state = load_checkpoint(path)
    return Policy(state.actor, state.obs_scale)


# -- training loop ----------------------------------------------------


@dataclass
class TrainLog:
    """One row per episode: reward components, completion, timing."""

    rows: list[str] = field(default_factory=list)
    reward: list[float] = field(default_factory=list)
    chi: list[int] = field(default_factory=list)

    def append(self, episode: int, result, steps: int) -> None:
        self.rows.append(
            f"ep={episode} chi={result.chi} status={result.status} "
            f"t_f={result.t_f:.3f} s={result.s_final:.2f} "
            f"R={result.total_reward:.3f} r_p={result.r_p_sum:.3f} "
            f"r_s={result.r_s_sum:.3f} r_m={result.r_m_sum:.3f} "
            f"r_t={result.r_t:.3f} steps={steps}"
        )
        self.reward.append(result.total_reward)
        self.chi.append(result.chi)

    def write(self, path) -> None:
        Path(path).write_text("\n".join(self.rows) + "\n")


def train(
    env_factory,
    hp: Td3Hyperparams = Td3Hyperparams(),
    episodes: int = 5000,
    seed: int = 0,
    out_dir=None,
    checkpoint_every: int = 250,
    state: Td3State | None = None,
    progress: bool = False,
    demo_policy=None,
    demo_episodes: int = 0,
) -> tuple[Policy, TrainLog, Td3State]:
    """Run the full training loop over `episodes` episodes.

    Per environment step: store the transition, then one critic update
    (after warmup) and an actor/target update every `policy_delay`
    critic updates.  Deterministic given the seed: a single generator
    drives initialization, resets, exploration, and batch sampling.

    When `demo_policy` is given, the first `demo_episodes` episodes
    (counted against the budget) are driven by it plus exploration
    noise while the clean demonstrated action for every visited state
    is kept aside; the actor is then behavior-cloned onto those labels
    (`BC_STEPS` supervised batches).  The next `DAGGER_EPISODES`
    episodes are driven by the cloned actor, with every state it
    reaches labeled by the demonstrator and folded back into the
    cloning set, so the imitation data covers the clone's own state
    distribution rather than only the demonstrator's.  After that the
    next `ACTOR_FREEZE` critic updates run with the actor held fixed
    so the value estimate settles before policy-gradient steps resume.
    This is the escape hatch for long-corridor tasks where random
    warmup never sees a completion and the per-step penalties make
    instant termination a local optimum.

    The environment follows the `DriftEnv` contract that `envs.episode`
    drives: `action_low`, `action_high`, observation `scales`, `state`,
    `reset(seed, v0)` and `step(action)` returning observations with
    `.vector()`, the reward, and a result that is None until the last
    step.  Episodes start as the learner's generator draws, evaluations
    at the nominal start, `seed=None`.  `demo_policy(obs, state)` is
    handed the learner's observation vector scaled back to raw units.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be at least 1, not {checkpoint_every}")
    env = env_factory()
    low, high = env.action_low, env.action_high
    obs_scale = env.scales
    if state is None:
        state = td3_init(len(obs_scale), low, high, hp, seed, obs_scale)
    hp = state.hp
    sigma_explore = SIGMA_EXPLORE * (high - low)
    tlog = TrainLog()
    out_dir = Path(out_dir) if out_dir is not None else None
    start = time.time()

    use_demos = demo_policy is not None and demo_episodes > 0
    imitation_end = demo_episodes + DAGGER_EPISODES if use_demos else 0
    bc_obs: list[np.ndarray] = []
    bc_act: list[np.ndarray] = []
    freeze_until = 0
    best_eval = None
    obs = None  # the normalized observation `choose` last saw, for the buffer

    def choose(raw, plant_state):  # demonstrated, cloned, random or explored
        nonlocal obs
        obs = raw.vector() / obs_scale
        if imitating:  # label every state; the demonstrator or the clone drives
            label = np.asarray(demo_policy(obs * obs_scale, plant_state), dtype=float)
            bc_obs.append(obs)
            bc_act.append(label)
            if ep < demo_episodes:
                return np.clip(label + state.rng.normal(0.0, 0.5 * sigma_explore), low, high)
            a, _ = mlp_forward(state.actor, obs)
            return np.clip(a + state.rng.normal(0.0, 0.3 * sigma_explore), low, high)
        if not use_demos and state.env_steps < hp.warmup:
            return state.rng.uniform(low, high)
        return select_action(state.actor, obs, sigma_explore, state.rng)

    for ep in range(episodes):
        if use_demos and demo_episodes <= ep < imitation_end + 1:
            # refit on the aggregated imitation set: the full budget once
            # the demos end, then smaller top-ups after each episode the
            # clone drives itself (its mistakes now carry expert labels)
            rounds = BC_STEPS if ep == demo_episodes else BC_STEPS // 4
            mse = behavior_clone(state, rounds,
                                 dataset=(np.asarray(bc_obs), np.asarray(bc_act)))
            if ep == imitation_end:
                freeze_until = state.critic_updates + ACTOR_FREEZE
            if progress:
                log.info("imitation fit at ep %d: %d batches on %d labels, "
                         "mse %.4f%s", ep, rounds, len(bc_obs), mse,
                         "; actor frozen for %d critic updates"
                         % ACTOR_FREEZE if ep == imitation_end else "")
        imitating = use_demos and ep < imitation_end
        for ep_steps, (_, _, act, rew, nxt, result) in enumerate(
                episode(choose, env, state.rng), 1):
            state.buffer.add(obs, act, rew, nxt.vector() / obs_scale, result is not None)
            state.env_steps += 1
            if (not imitating and state.env_steps >= hp.warmup
                    and len(state.buffer) >= hp.batch_size):
                batch = state.buffer.sample(hp.batch_size, state.rng)
                y = compute_target(batch, state, hp)
                update_critics(state, batch, y)
                if (state.critic_updates % hp.policy_delay == 0
                        and state.critic_updates >= freeze_until):
                    update_actor_and_targets(state, batch)
        tlog.append(ep, result, ep_steps)
        if (progress or out_dir is not None) and (ep + 1) % EVAL_EVERY == 0:
            res = run_episode(Policy(state.actor, obs_scale), env)
            key = (res.chi, -res.t_f)
            if best_eval is None or key > best_eval:
                best_eval = key
                if out_dir is not None:
                    save_checkpoint(state, out_dir / "policy_best.npz")
            if progress:
                log.info(
                    "ep %d/%d R(mean50)=%.1f chi50=%.2f | eval chi=%d "
                    "t_f=%.2f s=%.1f max_beta=%.1fdeg elapsed=%.0fs",
                    ep + 1, episodes, float(np.mean(tlog.reward[-50:])),
                    float(np.mean(tlog.chi[-50:])), res.chi, res.t_f,
                    res.s_final, np.degrees(res.max_beta), time.time() - start)
        if out_dir is not None and (ep + 1) % checkpoint_every == 0:
            save_checkpoint(state, out_dir / f"checkpoint_ep{ep + 1:05d}.npz")
            tlog.write(out_dir / "train.log")
    if out_dir is not None:
        save_checkpoint(state, out_dir / "policy.npz")
        tlog.write(out_dir / "train.log")
    return Policy(state.actor, state.obs_scale), tlog, state
