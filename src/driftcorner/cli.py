"""Command-line experiment harness.

Subcommands cover the batch workflow end to end: track building,
pre-trajectory planning, TD3 training, preview generation, deployment
runs under plant mismatch, and the comparison tables / plot-data
exports.  Every run writes its resolved configuration, the seed, and a
content hash of its file inputs into the run directory so results can
be reproduced bit-for-bit.

Exit codes: 0 on success, 2 when a result-level assertion fails (a
comparison table violates its expected direction), 3 on configuration
errors (bad arguments, missing files).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .baseline import BaselineTracker
from .envs import TRACE_COLUMNS, DriftEnv, EpisodeResult, run_episode, summary_line
from .errors import DriftCornerError, MissingLog, MissingPolicy
from .fusion import (
    DeploymentSpec,
    DeployResult,
    deploy_run,
    generate_preview,
    load_preview,
    save_preview,
    write_deploy_csv,
)
from .planner import load_pretrajectory, plan_pretrajectory, save_pretrajectory
from .plant import TireParams, VehicleParams
from .td3 import Td3Hyperparams, policy_from_checkpoint, train
from .track import LIBRARY_KINDS, build_library_track, load_track, save_track

TRAINING_MU = 0.85
SWEEP_MUS = (0.95, 0.85, 0.75, 0.65, 0.55)

# Table III/IV column schema, reproduced verbatim.
TABLE_COLUMNS = (
    "Task Completion (deg)",
    "Max. speed (m/s)",
    "Max. side-slip angle (deg)",
    "Total time (s)",
)


def output_root() -> Path:
    return Path(os.environ.get("DRIFTCORNER_OUT", "runs"))


def _hash_inputs(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(str(p) for p in paths):
        h.update(p.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()[:16]


def _write_metadata(run_dir: Path, config: dict, inputs=()) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    resolved = dict(config)
    if inputs:
        resolved["input_hash"] = _hash_inputs(inputs)
    (run_dir / "config.json").write_text(
        json.dumps(resolved, indent=2, default=str) + "\n"
    )


def _load_track_arg(args) -> "tuple":
    """(track, source paths) from either --track <file> or --kind."""
    if getattr(args, "track", None):
        path = Path(args.track)
        if not path.exists():
            raise FileNotFoundError(f"track file not found: {path}")
        return load_track(path), [path]
    kind = getattr(args, "kind", None)
    if kind is None:
        raise ValueError("one of --track or --kind is required")
    return build_library_track(kind), []


def _load_pretraj_arg(args, track):
    if getattr(args, "pretraj", None):
        path = Path(args.pretraj)
        if not path.exists():
            raise FileNotFoundError(f"pre-trajectory file not found: {path}")
        return load_pretrajectory(path), [path]
    return plan_pretrajectory(track, mu=getattr(args, "mu", TRAINING_MU)), []


def _deployment_spec(args) -> DeploymentSpec:
    return DeploymentSpec(
        mu=args.mu_deploy,
        mass_scale=args.mass_scale,
        tire_b_scale=args.tire_b_scale,
        tire_d_scale=args.tire_d_scale,
    )


def _write_trace_csv(result: EpisodeResult, path: Path) -> None:
    if result.trace is None:
        return
    lines = [",".join(TRACE_COLUMNS)]
    for row in result.trace:
        lines.append(",".join(f"{v:.6g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


# -- results table ----------------------------------------------------


@dataclasses.dataclass
class ResultsTable:
    """Rows in the Table III/IV schema; first column names the variant."""

    rows: list

    def render(self) -> str:
        header = ["Policy", *TABLE_COLUMNS]
        widths = [
            max(len(header[i]), *(len(str(r[i])) for r in self.rows))
            for i in range(len(header))
        ] if self.rows else [len(h) for h in header]
        def fmt(cells):
            return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))
        out = [fmt(header), "-+-".join("-" * w for w in widths)]
        out += [fmt(r) for r in self.rows]
        return "\n".join(out)

    def write_csv(self, path: Path) -> None:
        lines = [",".join(["Policy", *TABLE_COLUMNS])]
        for r in self.rows:
            lines.append(",".join(str(c) for c in r))
        path.write_text("\n".join(lines) + "\n")


def _completion_cell(achieved: float, total: float) -> str:
    return f"{achieved:.0f}/{total:.0f}"


def _episode_row(name, result: EpisodeResult, achieved, total) -> tuple:
    time_cell = f"{result.t_f:.2f}" if result.chi else "N/A"
    return (
        name,
        _completion_cell(achieved, total),
        f"{result.max_speed:.2f}",
        f"{math.degrees(result.max_beta):.1f}",
        time_cell,
    )


def _deploy_row(name, res: DeployResult) -> tuple:
    return _episode_row(name, res.episode, res.completion_deg, res.total_deg)


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
    track, inputs = _load_track_arg(args)
    pre = plan_pretrajectory(track, mu=args.mu)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_pretrajectory(pre, out)
    print(f"wrote {out} (t_ref={pre.t_ref:.2f} s, mu={args.mu})")
    return 0


def cmd_train(args) -> int:
    track, inputs = _load_track_arg(args)
    pre, pre_inputs = _load_pretraj_arg(args, track)
    run_dir = Path(args.out) if args.out else output_root() / f"train_seed{args.seed}"
    hp = Td3Hyperparams()
    _write_metadata(run_dir, {
        "command": "train",
        "kind": getattr(args, "kind", None),
        "episodes": args.episodes,
        "seed": args.seed,
        "demo_episodes": args.demo_episodes,
        "hyperparams": dataclasses.asdict(hp),
        "t_ref": pre.t_ref,
    }, inputs + pre_inputs)
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
    chi_tail = float(np.mean(tlog.chi[-100:])) if tlog.chi else 0.0
    print(f"trained {args.episodes} episodes -> {run_dir}/policy.npz "
          f"(completion rate over last 100: {chi_tail:.2f})")
    return 0


def cmd_preview(args) -> int:
    track, inputs = _load_track_arg(args)
    pre, pre_inputs = _load_pretraj_arg(args, track)
    policy_path = Path(args.policy)
    if not policy_path.exists():
        raise MissingPolicy(f"checkpoint not found: {policy_path}")
    policy = policy_from_checkpoint(policy_path)
    params = VehicleParams()
    preview = generate_preview(
        policy, params, TireParams(), track, pre,
        v_ini=args.v_ini, seed=args.seed,
        track_id=args.kind or "custom",
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_preview(preview, out)
    print(f"wrote {out} (t_f={preview.t_f:.2f} s, {len(preview)} ticks)")
    return 0


def cmd_deploy(args) -> int:
    track, inputs = _load_track_arg(args)
    pre, pre_inputs = _load_pretraj_arg(args, track)
    preview_path = Path(args.preview)
    if not preview_path.exists():
        raise FileNotFoundError(f"preview file not found: {preview_path}")
    preview = load_preview(preview_path)
    spec = _deployment_spec(args)
    params = VehicleParams()
    dep_params, dep_tires = spec.apply(params, TireParams())
    run_dir = Path(args.out) if args.out else output_root() / "deploy"
    _write_metadata(run_dir, {
        "command": "deploy",
        "kind": getattr(args, "kind", None),
        "seed": args.seed,
        "deployment": dataclasses.asdict(spec),
        "mpc_enabled": not args.no_mpc,
        "primary_enabled": not args.no_primary,
    }, inputs + pre_inputs + [preview_path])
    res = deploy_run(
        preview, track, pre, params, dep_params, dep_tires,
        seed=args.seed, nominal=not args.randomized,
        mpc_enabled=not args.no_mpc,
        primary_enabled=not args.no_primary,
        record_trace=True,
    )
    write_deploy_csv(res, run_dir / "deploy.csv")
    _write_trace_csv(res.episode, run_dir / "trace.csv")
    summary = (
        f"{summary_line(res.episode, args.seed)} "
        f"completion={res.completion_deg:.0f}/{res.total_deg:.0f} "
        f"fallback_events={res.fallback_events} "
        f"mean_tick_ms={res.mean_tick_ms:.3f}"
    )
    (run_dir / "summary.txt").write_text(summary + "\n")
    print(summary)
    return 0


def cmd_table1(args) -> int:
    """Cornering time: planned pre-trajectory vs centerline, per track."""
    policy_dir = Path(args.policy_dir) if args.policy_dir else None
    rows = []
    violations = 0
    run_dir = Path(args.out) if args.out else output_root() / "table1"
    _write_metadata(run_dir, {
        "command": "table1", "seed": args.seed,
        "policy_dir": str(policy_dir) if policy_dir else None,
        "tracker": args.tracker,
    })
    for kind in LIBRARY_KINDS:
        track = build_library_track(kind)
        times = {}
        for variant in ("centerline", "planned"):
            pre = plan_pretrajectory(track, use_centerline=(variant == "centerline"))
            if args.tracker:
                controller = BaselineTracker(track, pre)
            else:
                if policy_dir is None:
                    raise MissingPolicy(
                        "table1 needs --policy-dir with per-variant checkpoints "
                        "(or --tracker for the scripted surrogate)"
                    )
                ckpt = policy_dir / f"{kind}_{variant}.npz"
                if not ckpt.exists():
                    raise MissingPolicy(f"missing checkpoint {ckpt}")
                controller = policy_from_checkpoint(ckpt)
            res = run_episode(controller, DriftEnv(track, pre),
                              seed=args.seed, nominal=True)
            times[variant] = res
            rows.append((f"{kind} / {variant}",
                         f"{res.chi}", f"{res.t_f:.2f}", f"{res.s_final:.1f}"))
        if not (times["planned"].chi and
                times["planned"].t_f <= times["centerline"].t_f):
            violations += 1
    lines = ["scenario,completed,time_s,s_final_m"]
    lines += [",".join(r) for r in rows]
    (run_dir / "table1.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    if violations:
        print(f"direction violated in {violations} scenario(s): "
              "planned pre-trajectory did not beat the centerline",
              file=sys.stderr)
        return 2
    return 0


def cmd_compare(args) -> int:
    """Four-row policy comparison: RL (training plant), raw RL
    (deployment plant), MPC-only tracking, fused (deployment plant)."""
    track, inputs = _load_track_arg(args)
    pre, pre_inputs = _load_pretraj_arg(args, track)
    policy_path = Path(args.policy)
    if not policy_path.exists():
        raise MissingPolicy(f"checkpoint not found: {policy_path}")
    policy = policy_from_checkpoint(policy_path)
    params = VehicleParams()
    spec = _deployment_spec(args)
    dep_params, dep_tires = spec.apply(params, TireParams())
    run_dir = Path(args.out) if args.out else output_root() / "compare"
    _write_metadata(run_dir, {
        "command": "compare", "seed": args.seed,
        "deployment": dataclasses.asdict(spec),
    }, inputs + pre_inputs + [policy_path])

    preview = generate_preview(policy, params, TireParams(), track, pre,
                               v_ini=args.v_ini, track_id=args.kind or "custom")
    rows = []
    from .fusion import completion_degrees
    # 1) RL policy in its own training plant.
    res = run_episode(policy, DriftEnv(track, pre), seed=args.seed, nominal=True)
    rows.append(_episode_row("RL policy (training plant)", res,
                             *completion_degrees(track, res.s_final)))
    # 2) Raw RL in the deployment plant.
    res = run_episode(policy, DriftEnv(track, pre, tires=dep_tires,
                                       params=dep_params),
                      seed=args.seed, nominal=True)
    rows.append(_episode_row("RL policy (deployment plant)", res,
                             *completion_degrees(track, res.s_final)))
    # 3) MPC-only tracking of the preview (primary input zeroed).
    dres = deploy_run(preview, track, pre, params, dep_params, dep_tires,
                      seed=args.seed, primary_enabled=False)
    rows.append(_deploy_row("MPC tracking (deployment plant)", dres))
    # 4) Fused controller.
    dres = deploy_run(preview, track, pre, params, dep_params, dep_tires,
                      seed=args.seed)
    rows.append(_deploy_row("Fused RL+MPC (deployment plant)", dres))

    table = ResultsTable(rows)
    table.write_csv(run_dir / "compare.csv")
    print(table.render())
    return 0


def cmd_mu_sweep(args) -> int:
    """Deployment adhesion sweep for the fused controller."""
    tasks = []
    if args.policy_uturn:
        tasks.append(("uturn", Path(args.policy_uturn)))
    if args.policy_right_angle:
        tasks.append(("right_angle", Path(args.policy_right_angle)))
    if not tasks:
        raise MissingPolicy("mu-sweep needs --policy-uturn and/or --policy-right-angle")
    params = VehicleParams()
    run_dir = Path(args.out) if args.out else output_root() / "mu_sweep"
    _write_metadata(run_dir, {
        "command": "mu-sweep", "seeds": args.seeds,
        "tasks": [t[0] for t in tasks],
    }, [p for _, p in tasks])

    results: dict[str, dict[float, str]] = {}
    for kind, ckpt in tasks:
        if not ckpt.exists():
            raise MissingPolicy(f"checkpoint not found: {ckpt}")
        policy = policy_from_checkpoint(ckpt)
        track = build_library_track(kind)
        pre = plan_pretrajectory(track)
        preview = generate_preview(policy, params, TireParams(), track, pre,
                                   v_ini=args.v_ini, track_id=kind)
        results[kind] = {}
        for mu in SWEEP_MUS:
            dep_params, dep_tires = DeploymentSpec(mu=mu).apply(params, TireParams())
            runs = [
                deploy_run(preview, track, pre, params, dep_params, dep_tires,
                           seed=s, nominal=(args.seeds == 1))
                for s in range(args.seeds)
            ]
            times = sorted(r.episode.t_f for r in runs if r.completed)
            if len(times) > len(runs) // 2:
                cell = f"{times[len(times) // 2]:.2f}"
            else:
                worst = max(runs, key=lambda r: r.completion_deg)
                cell = f"N/A ({worst.completion_deg:.0f}/{worst.total_deg:.0f})"
            results[kind][mu] = cell

    header = "mu," + ",".join(k for k, _ in tasks)
    lines = [header]
    for mu in SWEEP_MUS:
        lines.append(",".join([f"{mu}"] + [results[k][mu] for k, _ in tasks]))
    (run_dir / "mu_sweep.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
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
        rows = src.read_text().strip().splitlines()
        have = rows[0].split(",")
        idx = [have.index(c) for c in cols if c in have]
        names = [have[i] for i in idx]
        out_lines = [",".join(names)]
        for row in rows[1:]:
            cells = row.split(",")
            out_lines.append(",".join(cells[i] for i in idx))
        (run_dir / out_name).write_text("\n".join(out_lines) + "\n")
        written.append(out_name)
    if not written:
        raise MissingLog(f"no trace.csv/deploy.csv under {run_dir}")
    print(f"wrote {', '.join(written)} in {run_dir}")
    return 0


# -- argument parsing -------------------------------------------------


def _add_track_args(p):
    p.add_argument("--track", help="track geometry file")
    p.add_argument("--kind", choices=LIBRARY_KINDS,
                   help="library track (alternative to --track)")


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
    p.add_argument("--pretraj", help="pre-trajectory file (planned if omitted)")
    p.add_argument("--mu", type=float, default=TRAINING_MU)
    p.add_argument("--episodes", type=int, default=5000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--demo-episodes", type=int, default=50,
                   help="scripted-tracker buffer-priming episodes (0 disables)")
    p.add_argument("--checkpoint-every", type=int, default=250)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("preview", help="offline preview from a trained policy")
    _add_track_args(p)
    p.add_argument("--pretraj")
    p.add_argument("--mu", type=float, default=TRAINING_MU)
    p.add_argument("--policy", required=True)
    p.add_argument("--v-ini", type=float, default=9.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preview)

    p = sub.add_parser("deploy", help="fusion deployment run")
    _add_track_args(p)
    p.add_argument("--pretraj")
    p.add_argument("--mu", type=float, default=TRAINING_MU)
    p.add_argument("--preview", required=True)
    _add_deploy_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--randomized", action="store_true",
                   help="randomize the initial state (default: nominal)")
    p.add_argument("--no-mpc", action="store_true")
    p.add_argument("--no-primary", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("table1", help="planned vs centerline cornering times")
    p.add_argument("--policy-dir",
                   help="directory with <kind>_<variant>.npz checkpoints")
    p.add_argument("--tracker", action="store_true",
                   help="use the scripted tracker instead of trained policies")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("compare", help="four-row policy comparison table")
    _add_track_args(p)
    p.add_argument("--pretraj")
    p.add_argument("--mu", type=float, default=TRAINING_MU)
    p.add_argument("--policy", required=True)
    _add_deploy_args(p)
    p.add_argument("--v-ini", type=float, default=9.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mu-sweep", help="deployment adhesion sweep")
    p.add_argument("--policy-uturn")
    p.add_argument("--policy-right-angle")
    p.add_argument("--v-ini", type=float, default=9.0)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mu_sweep)

    p = sub.add_parser("export-plots", help="tidy per-tick series from a run dir")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_export_plots)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (MissingPolicy, MissingLog, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DriftCornerError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
