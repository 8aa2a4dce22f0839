"""Benchmark of the driftcorner pipeline: deploy and train.

    python3 perfbench/run.py [--workload deploy|train|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in this process.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 the layers are wrapped by a span tracer and the object holds
the per-layer metrics instead.  `--workload all` runs every workload in
a child process of its own, one after another.  The exit code is 1 when
an output check fails and 2 when the package cannot be imported.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("deploy", "train")

# (name, layer, statistic, unit): per-layer metrics of the traced run
PER_LAYER = [
    ("track.to_frenet.calls_per_op", "track.to_frenet", "calls_per_op", "count"),
    ("track.to_frenet.self_ms_per_op", "track.to_frenet", "self_ms_per_op", "ms"),
    ("track.frame_at.calls_per_op", "track.frame_at", "calls_per_op", "count"),
    ("track.to_cartesian.calls_per_plan", "track.to_cartesian", "setup_calls_per_plan",
     "count"),
    ("planner.minimize_curvature.self_ms_per_plan", "planner.minimize_curvature",
     "setup_self_ms_per_plan", "ms"),
    ("planner.plan_speed.self_ms_per_plan", "planner.plan_speed", "setup_self_ms_per_plan",
     "ms"),
    ("planner.build_pretrajectory.self_ms_per_plan", "planner.build_pretrajectory",
     "setup_self_ms_per_plan", "ms"),
    ("plant.step.calls_per_op", "plant.step", "calls_per_op", "count"),
    ("plant.step.self_ms_per_op", "plant.step", "self_ms_per_op", "ms"),
    ("kernels.integrate.self_ms_per_op", "kernels.integrate", "self_ms_per_op", "ms"),
    ("plant.detect_termination.self_ms_per_op", "plant.detect_termination",
     "self_ms_per_op", "ms"),
    ("envs.observe.self_ms_per_op", "envs.observe", "self_ms_per_op", "ms"),
    ("envs.reward_step.self_ms_per_op", "envs.reward_step", "self_ms_per_op", "ms"),
    ("envs.DriftEnv.step.self_ms_per_op", "envs.DriftEnv.step", "self_ms_per_op", "ms"),
    ("envs.DriftEnv.reset.self_ms_per_op", "envs.DriftEnv.reset", "self_ms_per_op", "ms"),
    ("fusion.FusionController.__call__.p50_ms", "fusion.FusionController.__call__",
     "p50_ms", "ms"),
    ("fusion.FusionController.__call__.p99_ms", "fusion.FusionController.__call__",
     "p99_ms", "ms"),
    ("mpc.solve_qp.self_ms_per_op", "mpc.solve_qp", "self_ms_per_op", "ms"),
    ("mpc.solve_box_qp.iterations_per_call", "mpc.solve_box_qp", "iterations_per_call",
     "count"),
    ("mpc.solve_box_qp.enumeration_fallbacks", "mpc.solve_box_qp",
     "enumeration_fallbacks", "count"),
    ("mpc.solve_qp.kkt_residual_max", "mpc.solve_qp", "kkt_residual_max", "1"),
    ("fusion.FusionController.__init__.ms_per_episode", "fusion.FusionController.__init__",
     "ms_per_episode", "ms"),
    ("mpc.discretize_augment.calls_per_episode", "mpc.discretize_augment",
     "calls_per_episode", "count"),
    ("fusion.generate_preview.setup_ms", "fusion.generate_preview", "setup_ms", "ms"),
    ("baseline.BaselineTracker.__call__.self_ms_per_op", "baseline.BaselineTracker.__call__",
     "setup_self_ms_per_call", "ms"),
    ("nets.mlp_forward.calls_per_op", "nets.mlp_forward", "calls_per_op", "count"),
    ("nets.mlp_forward.self_ms_per_op", "nets.mlp_forward", "self_ms_per_op", "ms"),
    ("nets.mlp_backward.self_ms_per_op", "nets.mlp_backward", "self_ms_per_op", "ms"),
    ("nets.Adam.step.self_ms_per_op", "nets.Adam.step", "self_ms_per_op", "ms"),
    ("nets.clip_gradients.self_ms_per_op", "nets.clip_gradients", "self_ms_per_op", "ms"),
    ("nets.soft_update.self_ms_per_op", "nets.soft_update", "self_ms_per_op", "ms"),
    ("td3.compute_target.self_ms_per_op", "td3.compute_target", "self_ms_per_op", "ms"),
    ("td3.update_critics.self_ms_per_op", "td3.update_critics", "self_ms_per_op", "ms"),
    ("td3.update_actor_and_targets.self_ms_per_op", "td3.update_actor_and_targets",
     "self_ms_per_op", "ms"),
    ("td3.select_action.self_ms_per_op", "td3.select_action", "self_ms_per_op", "ms"),
    ("td3.clip_events_per_op", "td3", "clip_events_per_op", "count"),
    ("replay.ReplayBuffer.sample.self_ms_per_op", "replay.ReplayBuffer.sample",
     "self_ms_per_op", "ms"),
    ("replay.ReplayBuffer.add.self_ms_per_op", "replay.ReplayBuffer.add",
     "self_ms_per_op", "ms"),
]


def environment() -> dict:
    import numpy as np
    from driftcorner import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "plant_kernel": "numba" if kernels.NUMBA_ENABLED else "python",
    }


def tail(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile that still has
    ten samples beyond it (reported only from forty samples on)."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    if len(samples) >= 40:
        ordered = sorted(samples)
        k = len(ordered) - 10
        out[f"p{100 * k // len(ordered)}"] = ordered[k - 1]
    return out


def end_to_end(outcome, op_window_ms: float) -> dict:
    return {
        "setup_s": {"value": outcome.setup_end - T_START, "unit": "s"},
        "op_ms": {"value": op_window_ms, "unit": "ms"},
        "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MB"},
    }


def per_layer(tracer, outcome) -> dict:
    from spans import QP_MAX_ITER

    timed = tracer.layer_totals("timed")
    setup = tracer.layer_totals("setup")
    empty = {"calls": 0, "incl": 0.0, "self": 0.0, "durations": []}
    n_ops = max(outcome.ops, 1)
    n_episodes = max(outcome.episodes, 1)
    iterations = tracer.qp_iterations.get("timed", [])
    metrics = {}
    for name, layer, stat, unit in PER_LAYER:
        rec = timed.get(layer, empty)
        if stat == "calls_per_op":
            value = rec["calls"] / n_ops
        elif stat == "self_ms_per_op":
            value = 1e3 * rec["self"] / n_ops
        elif stat in ("p50_ms", "p99_ms"):
            durations = sorted(rec["durations"])
            q = 0.5 if stat == "p50_ms" else 0.99
            value = 1e3 * durations[int(q * (len(durations) - 1))] if durations else 0.0
        elif stat == "ms_per_episode":
            value = 1e3 * rec["incl"] / n_episodes
        elif stat == "calls_per_episode":
            value = rec["calls"] / n_episodes
        elif stat == "setup_calls_per_plan":
            value = setup.get(layer, empty)["calls"] / max(outcome.plans, 1)
        elif stat == "setup_self_ms_per_plan":
            value = 1e3 * setup.get(layer, empty)["self"] / max(outcome.plans, 1)
        elif stat == "setup_ms":
            value = 1e3 * setup.get(layer, empty)["incl"]
        elif stat == "setup_self_ms_per_call":
            srec = setup.get(layer, empty)
            value = 1e3 * srec["self"] / max(srec["calls"], 1)
        elif stat == "iterations_per_call":
            value = sum(iterations) / len(iterations) if iterations else 0.0
        elif stat == "enumeration_fallbacks":
            value = sum(1 for it in iterations if it >= QP_MAX_ITER)
        elif stat == "kkt_residual_max":
            value = tracer.kkt_max.get("timed", 0.0)
        elif stat == "clip_events_per_op":
            value = outcome.clip_events / n_ops
        else:
            raise ValueError(stat)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import driftcorner
    except ImportError as exc:
        print(f"cannot import the driftcorner package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(driftcorner.__file__).resolve().parent.parent != SRC:
        print(f"driftcorner was imported from {driftcorner.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    # the traced run does only each workload's minimum rounds, a fixed
    # amount of work, so that its counts repeat exactly
    seconds = 0.0 if tracer else args.seconds
    outcome = workloads.WORKLOADS[args.workload](args.seed, seconds, tracer)
    op_window, window_medians = workloads.windowed_percentile(
        outcome.op_seconds, outcome.op_stamps, outcome.setup_end)
    if tracer:
        tracer.uninstall()
        metrics = per_layer(tracer, outcome)
    else:
        metrics = end_to_end(outcome, 1e3 * op_window)

    env = environment()
    op_tail = tail(outcome.op_seconds) if outcome.op_seconds else {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment: " + "  ".join(f"{k} {v}" for k, v in env.items()))
    if op_tail:
        print(f"op_ms samples ({outcome.sample_unit}): "
              + "  ".join(f"{k} {v * 1e3 if k != 'n' else v:.4g}" for k, v in op_tail.items()))
    print(f"timed phase: {outcome.ops} ops in {outcome.timed_seconds:.2f} s "
          f"({outcome.ops / outcome.timed_seconds:.4g} ops/s overall), "
          f"setup ended {outcome.setup_end - T_START:.2f} s after start")
    window_ms = sorted(1e3 * m for m in window_medians)
    print(f"op_ms windows: {len(window_ms)} of {workloads.WINDOW_S} s, "
          f"p{workloads.OP_PERCENTILE} {1e3 * op_window:.4g}  quartiles "
          + " ".join(f"{q:.4g}" for q in statistics.quantiles(window_ms, n=4))
          + f"  mean over all samples {1e3 * statistics.fmean(outcome.op_seconds):.4g}")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    for line in outcome.failures:
        print(f"FAILED OPERATION: {line}")
    for line in outcome.problems:
        print(f"CHECK FAILED: {line}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "op_samples": {"unit": outcome.sample_unit, **op_tail},
        "op_window_medians_ms": [1e3 * m for m in window_medians],
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures, "problems": outcome.problems, "notes": outcome.notes,
    }, indent=1))
    if tracer:
        tracer.write(OUT_DIR / f"{stem}-spans.json")

    correct = not outcome.problems
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a child process of its own, one after another."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    if not results:
        return status or 2
    metrics = {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values())
                      and len(results) == len(WORKLOAD_NAMES),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
