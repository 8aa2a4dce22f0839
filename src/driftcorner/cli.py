"""Command-line experiment harness.

Subcommands cover the batch workflow end to end: track building,
pre-trajectory planning, TD3 training, preview generation, deployment
runs under plant mismatch, and the comparison tables / plot-data
exports.  Every run writes its resolved configuration, its seed where
one has an effect, and a content hash of its file inputs into the run
directory so results can be reproduced bit-for-bit.  Rollouts start
at the nominal state unless a seed draws the start (`deploy --seed`,
`mu-sweep --seeds` above 1, `train`); `deploy --mode` is `fused`
(preview replay plus MPC), `mpc_only` (the MPC alone) or `replay`.

`build-track`, `plan` and `preview` write the one file --out names.  The
other subcommands write into a run directory, --out or else <name> under
$DRIFTCORNER_OUT (default `runs`):

  train         train_seed<N>/: config.json, train.log and policy files:
                policy.npz (the last), policy_best.npz (the best greedy
                evaluation) and checkpoint_ep<NNNNN>.npz (periodic)
  deploy        deploy/: config.json, deploy.csv (per tick: RL, MPC and
                applied inputs), trace.csv (plant trace), summary.txt
  table1        table1/: config.json, table1.csv
  compare       compare/: config.json, compare.csv (Table III/IV rows)
  mu-sweep      mu_sweep/: config.json, mu_sweep.csv
  export-plots  the panel_*.csv picks of trace.csv and deploy.csv, into
                the run directory it reads

Exit codes: 0 on success, 2 when a result-level assertion fails (a
comparison table violates its expected direction), 3 on configuration
errors (bad arguments, missing or unwritable files).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import td3
from .baseline import BaselineTracker
from .envs import (ACTION_LOW, OBS_DIM, TRACE_COLUMNS, DriftEnv, EpisodeResult, run_episode,
                   summary_line)
from .errors import DriftCornerError
from .fusion import (
    MODES,
    DeploymentSpec,
    completion_degrees,
    deploy_run,
    generate_preview,
    load_preview,
    params_digest,
    pretraj_digest,
    save_preview,
    track_digest,
)
from .planner import V_START, load_pretrajectory, plan_pretrajectory, save_pretrajectory
from .plant import TireParams, VehicleParams
from .td3 import DAGGER_EPISODES, Td3Hyperparams, policy_from_checkpoint, train
from .track import LIBRARY_KINDS, build_library_track, load_track, save_track

TRAINING_MU = TireParams().mu  # the training plant's adhesion, planned for
SWEEP_MUS = (0.95, 0.85, 0.75, 0.65, 0.55)
# the learner's fixed update rule, recorded beside its hyperparameters
TD3_UPDATE_RULE = ("GAMMA", "TAU", "LR", "SIGMA_EXPLORE", "SIGMA_TARGET",
                   "NOISE_CLIP", "GRAD_CLIP")

# Table III/IV column schema, reproduced verbatim.
TABLE_COLUMNS = (
    "Task Completion (deg)",
    "Max. speed (m/s)",
    "Max. side-slip angle (deg)",
    "Total time (s)",
)


def _run_dir(args, name: str, config: dict, inputs=()) -> Path:
    """--out, or else `name` under $DRIFTCORNER_OUT, made and holding the
    run's config.json with a content hash of its file inputs."""
    run_dir = Path(args.out) if args.out else Path(
        os.environ.get("DRIFTCORNER_OUT", "runs")) / name
    run_dir.mkdir(parents=True, exist_ok=True)
    if inputs:
        h = hashlib.sha256()
        for p in sorted(str(p) for p in inputs):
            h.update(p.encode())
            h.update(Path(p).read_bytes())
        config = {**config, "input_hash": h.hexdigest()[:16]}
    (run_dir / "config.json").write_text(json.dumps(config, indent=2, default=str) + "\n")
    return run_dir


def _write_csv(path: Path, header, rows) -> str:
    """A header line, then one line per row with each cell written by
    `str`, then a trailing newline; returns the text without it."""
    text = "\n".join(",".join(map(str, cells)) for cells in [header, *rows])
    path.write_text(text + "\n")
    return text


def _load_track_arg(args) -> tuple:
    """(track, source paths) from either --track <file> or --kind."""
    if args.track:
        path = Path(args.track)
        return load_track(path), [path]
    return build_library_track(args.kind), []


def _track_and_plan(args) -> tuple:
    """(track, pre-trajectory, source paths): the --pretraj file, or else
    a plan at the training adhesion."""
    track, inputs = _load_track_arg(args)
    if args.pretraj:
        path = Path(args.pretraj)
        return track, load_pretrajectory(path, track), [*inputs, path]
    return track, plan_pretrajectory(track, mu=TRAINING_MU), inputs


def _load_policy(path):
    """The policy of checkpoint `path`; a ValueError naming the file
    unless its actor reads the env's observation and gives one value per
    action channel."""
    policy = policy_from_checkpoint(path)
    sizes = policy.actor.sizes
    if (sizes[0], sizes[-1]) != (OBS_DIM, len(ACTION_LOW)):
        raise ValueError(f"{path}: a policy of {sizes[0]} observations and {sizes[-1]} "
                         f"actions, not the env's {OBS_DIM} and {len(ACTION_LOW)}")
    return policy


def _deployment_spec(args) -> DeploymentSpec:
    return DeploymentSpec(
        mu=args.mu_deploy,
        mass_scale=args.mass_scale,
        tire_b_scale=args.tire_b_scale,
        tire_d_scale=args.tire_d_scale,
    )


# -- results table ----------------------------------------------------


def _render_table(header, rows) -> str:
    """The rows under their header as text columns, padded to align."""
    widths = [max(len(str(c)) for c in column) for column in zip(header, *rows)]

    def fmt(cells):
        return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    return "\n".join([fmt(header), "-+-".join("-" * w for w in widths), *map(fmt, rows)])


def _episode_row(name, result: EpisodeResult, achieved, total) -> tuple:
    """Table III/IV row; a run that did not finish (chi == 0) shows its
    status beside the heading swept and N/A as its time."""
    completion = f"{achieved:.0f}/{total:.0f}"
    if not result.chi:
        completion += f" ({result.status})"
    time_cell = f"{result.t_f:.2f}" if result.chi else "N/A"
    return (
        name,
        completion,
        f"{result.max_speed:.2f}",
        f"{math.degrees(result.max_beta):.1f}",
        time_cell,
    )


# -- subcommands ------------------------------------------------------


def cmd_build_track(args) -> int:
    track = build_library_track(
        args.kind, radius=args.radius, width=args.width,
        entry_len=args.entry_len, exit_len=args.exit_len,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_track(track, out)
    print(f"wrote {out} (s_max={track.s_max:.2f} m, half_width={track.half_width} m)")
    return 0


def cmd_plan(args) -> int:
    track, _ = _load_track_arg(args)
    pre = plan_pretrajectory(track, mu=args.mu)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_pretrajectory(pre, out)
    print(f"wrote {out} (t_ref={pre.t_ref:.2f} s, mu={args.mu})")
    return 0


def cmd_train(args) -> int:
    track, pre, inputs = _track_and_plan(args)
    if args.checkpoint_every < 1:  # before the run directory is written
        raise ValueError(f"checkpoint_every must be at least 1, not {args.checkpoint_every}")
    hp = Td3Hyperparams()
    run_dir = _run_dir(args, f"train_seed{args.seed}", {
        "command": "train",
        "kind": args.kind,
        "episodes": args.episodes,
        "seed": args.seed,
        "demo_episodes": args.demo_episodes,
        "checkpoint_every": args.checkpoint_every,
        "hyperparams": dataclasses.asdict(hp),
        "update_rule": {name: getattr(td3, name) for name in TD3_UPDATE_RULE},
        "t_ref": pre.t_ref,
    }, inputs)
    # a conservative demonstrator clones much more reliably than one that
    # rides the friction limit; the learner recovers the pace afterwards
    demo = (BaselineTracker(track, pre, speed_factor=0.88)
            if args.demo_episodes > 0 else None)
    policy, tlog, _ = train(
        lambda: DriftEnv(track, pre),
        hp,
        episodes=args.episodes,
        seed=args.seed,
        out_dir=run_dir,
        checkpoint_every=args.checkpoint_every,
        progress=True,
        demo_policy=demo,
        demo_episodes=args.demo_episodes,
    )
    print(f"trained {args.episodes} episodes -> {run_dir}/policy.npz "
          f"({learner_completion(tlog.chi, args.demo_episodes)})")
    return 0


def learner_completion(chi: list[int], demo_episodes: int) -> str:
    """Completion rate over the last (up to) 100 episodes the learner
    drove itself, after the demonstrator's and the DAgger episodes."""
    own = chi[demo_episodes + DAGGER_EPISODES if demo_episodes > 0 else 0:][-100:]
    if not own:
        return "no learner episodes"
    return (f"completion rate over the learner's last {len(own)} episodes: "
            f"{float(np.mean(own)):.2f}")


def cmd_preview(args) -> int:
    track, pre, _ = _track_and_plan(args)
    policy = _load_policy(args.policy)
    params = VehicleParams()
    preview = generate_preview(
        policy, params, TireParams(), track, pre,
        v_ini=args.v_ini, track_id=args.kind or "custom",
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_preview(preview, out)
    print(f"wrote {out} (t_f={preview.t_f:.2f} s, {len(preview)} ticks)")
    return 0


def cmd_deploy(args) -> int:
    track, pre, inputs = _track_and_plan(args)
    preview_path = Path(args.preview)
    preview = load_preview(preview_path)
    geometry = track_digest(track)
    if preview.track_digest != geometry:
        raise ValueError(f"{preview_path} is a preview of track '{preview.track_id}' "
                         f"(geometry {preview.track_digest}), not of the deploy's "
                         f"track {args.kind or args.track} (geometry {geometry})")
    plan = pretraj_digest(pre)
    if preview.pretraj_digest != plan:
        source = args.pretraj or f"planned at mu {TRAINING_MU}"
        raise ValueError(f"{preview_path} is a preview made on plan {preview.pretraj_digest}, "
                         f"not on the deploy's plan {plan} ({source})")
    params = VehicleParams()
    model = params_digest(params, TireParams())
    if preview.plant_digest != model:
        raise ValueError(f"{preview_path} is a preview made in plant "
                         f"{preview.plant_digest}, not in the controller's "
                         f"model plant {model}")
    spec = _deployment_spec(args)
    dep_params, dep_tires = spec.apply(params, TireParams())
    run_dir = _run_dir(args, "deploy", {
        "command": "deploy",
        "kind": args.kind,
        "seed": args.seed,
        "deployment": dataclasses.asdict(spec),
        "mode": args.mode,
    }, [*inputs, preview_path])
    res = deploy_run(preview, track, pre, params, dep_params, dep_tires,
                     seed=args.seed, mode=args.mode, record_trace=True)
    # per-tick decomposition (Fig. 12-style paired channels)
    _write_csv(run_dir / "deploy.csv", (
        "t", *(f"{name}_{ch}" for name in ("a_rl", "du", "ut", "applied")
               for ch in ("delta", "trt", "pb")),
        "fallback", "compute_ms", "kkt_residual",
    ), ([f"{r.t:.3f}", *(f"{v:.6g}" for v in (*r.a_rl, *r.du_mpc, *r.u_t, *r.applied)),
         int(r.fallback), f"{r.compute_ms:.4f}", f"{r.kkt_residual:.3e}"]
        for r in res.records))
    if res.episode.trace is not None:
        _write_csv(run_dir / "trace.csv", TRACE_COLUMNS,
                   ([f"{v:.6g}" for v in row] for row in res.episode.trace))
    summary = (
        f"{summary_line(res.episode, args.seed)} "
        f"completion={res.completion_deg:.0f}/{res.total_deg:.0f} "
        f"fallback_events={res.fallback_events} "
        f"qp_failures={res.qp_failures} "
        f"preview_exhausted={res.preview_exhausted} "
        f"mean_tick_ms={res.mean_tick_ms:.3f}"
    )
    (run_dir / "summary.txt").write_text(summary + "\n")
    print(summary)
    return 0


def cmd_table1(args) -> int:
    """Cornering time: planned pre-trajectory vs centerline, per track."""
    policy_dir = Path(args.policy_dir) if args.policy_dir else None
    variants = ("centerline", "planned")
    policies = {}  # every checkpoint is loaded before the run directory is made
    if not args.tracker:
        if policy_dir is None:
            raise ValueError(
                "table1 needs --policy-dir with per-variant checkpoints "
                "(or --tracker for the scripted surrogate)"
            )
        for kind in LIBRARY_KINDS:
            for variant in variants:
                ckpt = policy_dir / f"{kind}_{variant}.npz"
                if not ckpt.exists():
                    raise FileNotFoundError(f"missing checkpoint {ckpt}")
                policies[kind, variant] = _load_policy(ckpt)
    rows = []
    violations = 0
    run_dir = _run_dir(args, "table1", {
        "command": "table1",
        "policy_dir": str(policy_dir) if policy_dir else None,
        "tracker": args.tracker,
    }, [policy_dir / f"{kind}_{variant}.npz" for kind, variant in policies])
    for kind in LIBRARY_KINDS:
        track = build_library_track(kind)
        times = {}
        for variant in variants:
            pre = plan_pretrajectory(track, use_centerline=(variant == "centerline"))
            controller = (BaselineTracker(track, pre) if args.tracker
                          else policies[kind, variant])
            res = run_episode(controller, DriftEnv(track, pre))
            times[variant] = res
            rows.append((f"{kind} / {variant}",
                         f"{res.chi}", f"{res.t_f:.2f}", f"{res.s_final:.1f}"))
        if not (times["planned"].chi and
                times["planned"].t_f <= times["centerline"].t_f):
            violations += 1
    print(_write_csv(run_dir / "table1.csv",
                     ("scenario", "completed", "time_s", "s_final_m"), rows))
    if violations:
        print(f"direction violated in {violations} scenario(s): "
              "planned pre-trajectory did not beat the centerline",
              file=sys.stderr)
        return 2
    return 0


def cmd_compare(args) -> int:
    """Four-row policy comparison: RL (training plant), raw RL
    (deployment plant), MPC-only tracking, fused (deployment plant)."""
    track, pre, inputs = _track_and_plan(args)
    policy_path = Path(args.policy)
    policy = _load_policy(policy_path)
    params = VehicleParams()
    spec = _deployment_spec(args)
    dep_params, dep_tires = spec.apply(params, TireParams())
    preview = generate_preview(policy, params, TireParams(), track, pre,
                               v_ini=args.v_ini, track_id=args.kind or "custom")
    run_dir = _run_dir(args, "compare", {
        "command": "compare",
        "kind": args.kind,
        "v_ini": args.v_ini,
        "deployment": dataclasses.asdict(spec),
    }, [*inputs, policy_path])

    rows = []
    # 1) RL policy in its own training plant.
    res = run_episode(policy, DriftEnv(track, pre), v0=args.v_ini)
    rows.append(_episode_row("RL policy (training plant)", res,
                             *completion_degrees(track, res.s_final)))
    # 2) Raw RL in the deployment plant.
    res = run_episode(policy, DriftEnv(track, pre, tires=dep_tires, params=dep_params),
                      v0=args.v_ini)
    rows.append(_episode_row("RL policy (deployment plant)", res,
                             *completion_degrees(track, res.s_final)))
    # 3) MPC-only tracking of the preview (primary input zeroed).
    dres = deploy_run(preview, track, pre, params, dep_params, dep_tires,
                      mode="mpc_only")
    rows.append(_episode_row("MPC tracking (deployment plant)", dres.episode,
                             dres.completion_deg, dres.total_deg))
    # 4) Fused controller.
    dres = deploy_run(preview, track, pre, params, dep_params, dep_tires)
    rows.append(_episode_row("Fused RL+MPC (deployment plant)", dres.episode,
                             dres.completion_deg, dres.total_deg))

    header = ("Policy", *TABLE_COLUMNS)
    _write_csv(run_dir / "compare.csv", header, rows)
    print(_render_table(header, rows))
    return 0


def cmd_mu_sweep(args) -> int:
    """Deployment adhesion sweep for the fused controller."""
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, not {args.seeds}")
    tasks = []
    if args.policy_uturn:
        tasks.append(("uturn", Path(args.policy_uturn)))
    if args.policy_right_angle:
        tasks.append(("right_angle", Path(args.policy_right_angle)))
    if not tasks:
        raise ValueError("mu-sweep needs --policy-uturn and/or --policy-right-angle")
    for _, ckpt in tasks:
        if not ckpt.exists():
            raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    params = VehicleParams()
    previews = []  # every preview is generated before the run directory is made
    for kind, ckpt in tasks:
        track = build_library_track(kind)
        pre = plan_pretrajectory(track)
        previews.append((kind, track, pre, generate_preview(
            _load_policy(ckpt), params, TireParams(), track, pre,
            v_ini=args.v_ini, track_id=kind)))
    run_dir = _run_dir(args, "mu_sweep", {
        "command": "mu-sweep", "seeds": args.seeds, "v_ini": args.v_ini,
        "tasks": [t[0] for t in tasks],
    }, [p for _, p in tasks])

    results: dict[str, dict[float, str]] = {}
    for kind, track, pre, preview in previews:
        results[kind] = {}
        for mu in SWEEP_MUS:
            dep_params, dep_tires = DeploymentSpec(mu=mu).apply(params, TireParams())
            runs = [
                deploy_run(preview, track, pre, params, dep_params, dep_tires,
                           seed=None if args.seeds == 1 else s)
                for s in range(args.seeds)
            ]
            times = sorted(r.episode.t_f for r in runs if r.completed)
            if len(times) > len(runs) // 2:
                cell = f"{times[len(times) // 2]:.2f}"
            else:
                worst = max(runs, key=lambda r: r.completion_deg)
                cell = f"N/A ({worst.completion_deg:.0f}/{worst.total_deg:.0f})"
            results[kind][mu] = cell

    print(_write_csv(run_dir / "mu_sweep.csv", ("mu", *results),
                     ([mu, *(results[k][mu] for k in results)] for mu in SWEEP_MUS)))
    return 0


# Column picks for the per-figure plot data (names refer to trace.csv
# and deploy.csv headers).
_PANELS = {
    "panel_speed_torque.csv": ("trace.csv", ["t", "v_x", "v_y", "t_rt", "p_b"]),
    "panel_steering_yaw.csv": ("trace.csv", ["t", "delta_f", "yaw_rate", "phi"]),
    "panel_sideslip.csv": ("trace.csv", ["t", "beta_r", "a_y"]),
    "panel_rl_vs_corrective.csv": (
        "deploy.csv",
        ["t", "a_rl_delta", "du_delta", "a_rl_trt", "du_trt",
         "a_rl_pb", "du_pb", "fallback"],
    ),
}


def cmd_export_plots(args) -> int:
    run_dir = Path(args.run_dir)
    written = []
    for out_name, (src_name, cols) in _PANELS.items():
        src = run_dir / src_name
        if not src.exists():
            continue
        have, *rows = (line.split(",") for line in src.read_text().strip().splitlines())
        idx = [have.index(c) for c in cols if c in have]
        _write_csv(run_dir / out_name, [have[i] for i in idx],
                   ([row[i] for i in idx] for row in rows))
        written.append(out_name)
    if not written:
        raise FileNotFoundError(f"no trace.csv/deploy.csv under {run_dir}")
    print(f"wrote {', '.join(written)} in {run_dir}")
    return 0


# -- argument parsing -------------------------------------------------


def _add_track_args(p):
    # exactly one: with both, the geometry came from --track while --kind
    # alone was checked against a preview's track
    track = p.add_mutually_exclusive_group(required=True)
    track.add_argument("--track", help="track geometry file")
    track.add_argument("--kind", choices=LIBRARY_KINDS,
                       help="library track (alternative to --track)")


def _add_pretraj_arg(p):
    p.add_argument("--pretraj", help="pre-trajectory file from `driftcorner plan` "
                                     "on the same track (planned if omitted)")


def _add_deploy_args(p):
    p.add_argument("--mu-deploy", type=float, default=None,
                   help="deployment adhesion (default: training value)")
    p.add_argument("--mass-scale", type=float, default=1.0)
    p.add_argument("--tire-b-scale", type=float, default=1.0)
    p.add_argument("--tire-d-scale", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="driftcorner", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-track", help="emit a library track file")
    p.add_argument("--kind", choices=LIBRARY_KINDS, required=True)
    p.add_argument("--radius", type=float, default=11.0)
    p.add_argument("--width", type=float, default=5.5)
    p.add_argument("--entry-len", type=float, default=30.0)
    p.add_argument("--exit-len", type=float, default=70.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_track)

    p = sub.add_parser("plan", help="minimum-curvature pre-trajectory")
    _add_track_args(p)
    p.add_argument("--mu", type=float, default=TRAINING_MU)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("train", help="TD3 training run")
    _add_track_args(p)
    _add_pretraj_arg(p)
    p.add_argument("--episodes", type=int, default=5000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--demo-episodes", type=int, default=50,
                   help="scripted-tracker buffer-priming episodes (0 disables)")
    p.add_argument("--checkpoint-every", type=int, default=250,
                   help="episodes between checkpoint_ep<NNNNN>.npz policy files")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("preview", help="offline preview from a trained policy")
    _add_track_args(p)
    _add_pretraj_arg(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--v-ini", type=float, default=V_START)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preview)

    p = sub.add_parser("deploy", help="fusion deployment run")
    _add_track_args(p)
    _add_pretraj_arg(p)
    p.add_argument("--preview", required=True)
    _add_deploy_args(p)
    p.add_argument("--seed", type=int,
                   help="randomize the initial state from this seed "
                        "(default: the nominal start)")
    p.add_argument("--mode", choices=MODES, default="fused",
                   help="controller: recorded action plus MPC correction (fused), "
                        "MPC tracker alone (mpc_only) or recorded action alone (replay)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("table1", help="planned vs centerline cornering times")
    # the tracker replaces the policies, so a policy directory with it is unread
    controllers = p.add_mutually_exclusive_group()
    controllers.add_argument("--policy-dir",
                             help="directory with <kind>_<variant>.npz checkpoints")
    controllers.add_argument("--tracker", action="store_true",
                             help="use the scripted tracker instead of trained policies")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("compare", help="four-row policy comparison table")
    _add_track_args(p)
    _add_pretraj_arg(p)
    p.add_argument("--policy", required=True)
    _add_deploy_args(p)
    p.add_argument("--v-ini", type=float, default=V_START)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mu-sweep", help="deployment adhesion sweep")
    p.add_argument("--policy-uturn")
    p.add_argument("--policy-right-angle")
    p.add_argument("--v-ini", type=float, default=V_START)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mu_sweep)

    p = sub.add_parser("export-plots", help="tidy per-tick series from a run dir")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_export_plots)

    # whole option names only: "--mu" must not pass for "--mu-deploy"
    for p in sub.choices.values():
        p.allow_abbrev = False
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # INFO progress lines (td3.train) to stderr; does nothing when the
    # calling program has configured logging already
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(asctime)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DriftCornerError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
