"""Command-line runs end to end."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import driftcorner
from driftcorner import cli, td3
from driftcorner.envs import (ACTION_HIGH, ACTION_LOW, OBS_DIM, TRACE_COLUMNS, EpisodeResult,
                             run_episode)
from driftcorner.fusion import (
    DeployResult,
    completion_degrees,
    deploy_run,
    load_preview,
    params_digest,
    pretraj_digest,
    save_preview,
)
from driftcorner.planner import load_pretrajectory, plan_pretrajectory, save_pretrajectory
from driftcorner.plant import TireParams, VehicleParams
from driftcorner.track import LIBRARY_KINDS, build_library_track, load_track, save_track

from corners import build_task


def _save_untrained(path, obs_dim=OBS_DIM, act_dim=len(ACTION_LOW)):
    """Save a small untrained policy, by default of the env's shape."""
    td3.save_checkpoint(td3.td3_init(obs_dim, ACTION_LOW[:act_dim], ACTION_HIGH[:act_dim],
                                     td3.Td3Hyperparams(hidden=(4,), batch_size=1,
                                                        buffer_size=1)), path)


class StubPolicy(SimpleNamespace):
    """A stand-in for a loaded policy: an actor of the env's shape, and
    the behaviour `act` gives it."""

    actor = SimpleNamespace(sizes=[OBS_DIM, 4, len(ACTION_LOW)])

    def __call__(self, obs, state):
        return self.act(obs, state)


def _csv(header, rows) -> str:
    """The text of a comma-separated file: a header line, then one line
    per row of string cells."""
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


@pytest.fixture(scope="module")
def mismatch_run(uturn_preview8, tmp_path_factory):
    """Run directory of a U-turn deploy with less grip and more mass, and
    the `DeployResult` the command wrote it from."""
    tmp = tmp_path_factory.mktemp("mismatch")
    preview = tmp / "preview.txt"
    save_preview(uturn_preview8, preview)
    out = tmp / "deploy"
    results = []

    def keep(*args, **kwargs):
        results.append(deploy_run(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "deploy_run", keep)
        assert cli.main(["deploy", "--kind", "uturn", "--preview", str(preview),
                         "--mu-deploy", "0.75", "--mass-scale", "1.1",
                         "--out", str(out)]) == 0
    [res] = results
    return out, res


def test_deploy_completes_under_mismatch(mismatch_run):
    out, res = mismatch_run
    summary = (out / "summary.txt").read_text()
    assert "chi=1" in summary and "qp_failures=0" in summary
    assert f" preview_exhausted={res.preview_exhausted} " in summary


def test_trace_csv_holds_the_episode_trace(mismatch_run):
    run_dir, res = mismatch_run
    assert (run_dir / "trace.csv").read_text() == _csv(
        TRACE_COLUMNS, ([f"{v:.6g}" for v in row] for row in res.episode.trace))


def test_deploy_csv(mismatch_run):
    run_dir, res = mismatch_run
    text = (run_dir / "deploy.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == (
        "t,a_rl_delta,a_rl_trt,a_rl_pb,du_delta,du_trt,du_pb,"
        "ut_delta,ut_trt,ut_pb,applied_delta,applied_trt,applied_pb,"
        "fallback,compute_ms,kkt_residual")
    assert len(lines) == len(res.records) + 1
    kkt = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert kkt == pytest.approx([r.kkt_residual for r in res.records],
                                rel=1e-3, abs=0.0)
    assert text == _csv(lines[0].split(","), (
        [f"{r.t:.3f}", *(f"{v:.6g}" for v in (*r.a_rl, *r.du_mpc, *r.u_t, *r.applied)),
         str(int(r.fallback)), f"{r.compute_ms:.4f}", f"{r.kkt_residual:.3e}"]
        for r in res.records))


def test_export_plots_writes_every_panel(mismatch_run, capsys):
    run_dir = mismatch_run[0]
    assert cli.main(["export-plots", "--run-dir", str(run_dir)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {', '.join(cli._PANELS)}")
    ticks = len((run_dir / "deploy.csv").read_text().splitlines())
    for name, (source, columns) in cli._PANELS.items():
        lines = (run_dir / name).read_text().splitlines()
        assert lines[0] == ",".join(columns)
        assert len(lines) == ticks
        assert all(len(line.split(",")) == len(columns) for line in lines)
        cells = [line.split(",") for line in (run_dir / source).read_text().splitlines()]
        picks = [cells[0].index(c) for c in columns]
        assert (run_dir / name).read_text() == _csv(
            columns, ([row[i] for i in picks] for row in cells[1:]))


def test_table1_csv_and_stdout_hold_each_run(monkeypatch, tmp_path, capsys):
    runs = []

    def keep(*args, **kwargs):
        runs.append(run_episode(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_episode", keep)
    out = tmp_path / "table1"
    assert cli.main(["table1", "--tracker", "--out", str(out)]) == 0
    scenarios = [f"{kind} / {variant}" for kind in LIBRARY_KINDS
                 for variant in ("centerline", "planned")]
    expected = _csv(["scenario", "completed", "time_s", "s_final_m"], (
        [name, str(r.chi), f"{r.t_f:.2f}", f"{r.s_final:.1f}"]
        for name, r in zip(scenarios, runs, strict=True)))
    assert (out / "table1.csv").read_text() == expected
    assert capsys.readouterr().out == expected


def test_table1_with_policies_writes_six_rows(tmp_path):
    # one untrained actor under every <kind>_<variant>.npz name: each run
    # crashes, and the planned runs crash sooner, so the exit is 2
    policies = tmp_path / "policies"
    for kind in LIBRARY_KINDS:
        for variant in ("centerline", "planned"):
            _save_untrained(policies / f"{kind}_{variant}.npz")
    out = tmp_path / "table1"
    assert cli.main(["table1", "--policy-dir", str(policies), "--out", str(out)]) == 2
    assert (out / "table1.csv").read_text() == _csv(
        ["scenario", "completed", "time_s", "s_final_m"],
        ([f"{kind} / {variant}", "0", t_f, s_final] for kind in LIBRARY_KINDS
         for variant, t_f, s_final in (("centerline", "8.77", "13.7"),
                                       ("planned", "6.42", "10.6"))))


def test_table1_records_a_hash_of_its_policy_files(monkeypatch, tmp_path):
    # the same policy directory, before and after one file changes; a
    # tracker run has no file input, and its config.json stays as it was
    monkeypatch.setattr(cli, "_load_policy", lambda path: None)
    monkeypatch.setattr(cli, "run_episode", lambda *args, **kwargs: _episode(1, "completed", 18.2))
    policies = tmp_path / "policies"
    policies.mkdir()
    for kind in LIBRARY_KINDS:
        for variant in ("centerline", "planned"):
            (policies / f"{kind}_{variant}.npz").write_bytes(b"stub")

    def recorded():
        out = tmp_path / "table1"
        assert cli.main(["table1", "--policy-dir", str(policies), "--out", str(out)]) == 0
        return json.loads((out / "config.json").read_text())

    first = recorded()
    assert recorded() == first
    (policies / "turn_135_planned.npz").write_bytes(b"stub2")
    assert recorded()["input_hash"] != first["input_hash"]
    out = tmp_path / "tracker"
    assert cli.main(["table1", "--tracker", "--out", str(out)]) == 0
    assert (out / "config.json").read_text() == (
        '{\n  "command": "table1",\n  "policy_dir": null,\n  "tracker": true\n}\n')


def test_train_then_table1_on_its_policy(tmp_path):
    # the pipeline's first two steps chained: a one-episode U-turn run
    # writes policy.npz, and table1 deploys it under every task's name
    run = tmp_path / "train"
    assert cli.main(["train", "--kind", "uturn", "--episodes", "1", "--demo-episodes", "0",
                     "--out", str(run)]) == 0
    policies = tmp_path / "policies"
    policies.mkdir()
    for kind in LIBRARY_KINDS:
        for variant in ("centerline", "planned"):
            shutil.copyfile(run / "policy.npz", policies / f"{kind}_{variant}.npz")
    out = tmp_path / "table1"
    assert cli.main(["table1", "--policy-dir", str(policies), "--out", str(out)]) == 2
    header, *rows = (out / "table1.csv").read_text().splitlines()
    assert header == "scenario,completed,time_s,s_final_m"
    assert [row.split(",")[0] for row in rows] == [
        f"{kind} / {variant}" for kind in LIBRARY_KINDS for variant in ("centerline", "planned")]


@pytest.mark.parametrize("argv", [
    ["preview", "--kind", "uturn", "--policy", "{ckpt}", "--out", "{out}/preview.txt"],
    ["table1", "--policy-dir", "{policies}", "--out", "{out}"],
    ["compare", "--kind", "uturn", "--policy", "{ckpt}", "--out", "{out}"],
    ["mu-sweep", "--policy-uturn", "{ckpt}", "--out", "{out}"],
], ids=["preview", "table1", "compare", "mu_sweep"])
def test_a_policy_of_another_shape_is_refused_naming_it(argv, tmp_path, capsys):
    # six 2-to-1 toy policies ran table1 into a numpy broadcast error,
    # after it had written config.json
    policies, out = tmp_path / "policies", tmp_path / "out"
    files = [policies / f"{kind}_{variant}.npz" for kind in LIBRARY_KINDS
             for variant in ("centerline", "planned")]
    for path in files:
        _save_untrained(path, obs_dim=2, act_dim=1)
    ckpt = files[0]
    assert cli.main([arg.format(ckpt=ckpt, policies=policies, out=out) for arg in argv]) == 3
    assert (f"error: {ckpt}: a policy of 2 observations and 1 actions, not the env's "
            f"{OBS_DIM} and {len(ACTION_LOW)}") in capsys.readouterr().err
    assert not out.exists()


def test_build_track_then_plan_on_it(uturn, uturn_pretraj, tmp_path, capsys):
    # a track file and a plan on it, each loading back to what the
    # library track and its plan hold
    track, pretraj = tmp_path / "t" / "uturn.txt", tmp_path / "p" / "uturn.txt"
    assert cli.main(["build-track", "--kind", "uturn", "--out", str(track)]) == 0
    assert cli.main(["plan", "--track", str(track), "--out", str(pretraj)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"wrote {pretraj} (t_ref=")
    back = load_track(track)
    np.testing.assert_array_equal(back.seg_breaks, uturn.seg_breaks)
    np.testing.assert_array_equal(back.seg_kappa, uturn.seg_kappa)
    assert back.half_width == uturn.half_width
    plan = load_pretrajectory(pretraj, back)
    assert plan.t_ref == uturn_pretraj.t_ref and plan.mu == uturn_pretraj.mu
    np.testing.assert_array_equal(plan.l, uturn_pretraj.l)


@pytest.mark.nightly
def test_table1_with_the_tracker_writes_six_rows(tmp_path):
    out = tmp_path / "table1"
    assert cli.main(["table1", "--tracker", "--out", str(out)]) in (0, 2)
    lines = (out / "table1.csv").read_text().splitlines()
    assert lines[0] == "scenario,completed,time_s,s_final_m"
    assert [line.split(",")[0] for line in lines[1:]] == [
        f"{kind} / {variant}" for kind in ("uturn", "right_angle", "turn_135")
        for variant in ("centerline", "planned")]


def test_deploy_rejects_a_non_physical_plant(uturn_preview8, tmp_path, capsys):
    # a zero tire D would divide by zero inside the plant kernel
    preview = tmp_path / "preview.txt"
    save_preview(uturn_preview8, preview)
    out = tmp_path / "deploy"
    assert cli.main(["deploy", "--kind", "uturn", "--preview", str(preview),
                     "--tire-d-scale", "0", "--out", str(out)]) == 3
    assert "d must be finite and positive" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


def test_an_out_path_that_is_a_file_is_a_config_error(tmp_path, capsys):
    # the run directory's mkdir raised FileExistsError: exit 1 with a traceback
    out = tmp_path / "table1"
    out.write_text("")
    assert cli.main(["table1", "--tracker", "--out", str(out)]) == 3
    assert f"error: [Errno 17] File exists: '{out}'" in capsys.readouterr().err


def test_a_preview_path_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    # reading the preview raised IsADirectoryError: exit 1 with a traceback
    out = tmp_path / "deploy"
    assert cli.main(["deploy", "--kind", "uturn", "--preview", str(tmp_path),
                     "--out", str(out)]) == 3
    assert f"error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err
    assert not out.exists()


def _episode(chi, status, t_f):
    return EpisodeResult(chi=chi, t_f=t_f, s_final=94.65, status=status,
                         total_reward=0.0, r_p_sum=0.0, r_s_sum=0.0,
                         r_m_sum=0.0, r_t=0.0, max_beta=0.1, max_speed=9.0)


def test_episode_row_tells_crash_from_finish():
    # a crash on the exit straight has swept the whole corner
    crashed = cli._episode_row("run", _episode(0, "crashed", 12.79), 180.0, 180.0)
    assert crashed[1] == "180/180 (crashed)"
    assert crashed[4] == "N/A"
    finished = cli._episode_row("run", _episode(1, "completed", 18.2), 180.0, 180.0)
    assert finished[1] == "180/180"
    assert finished[4] == "18.20"


def test_train_progress_reaches_stderr(uturn_pretraj, tmp_path):
    # a `driftcorner train` process of its own (the test runner keeps
    # handlers on the root logger, which would hide a missing set-up):
    # one demonstration episode, then the imitation fit logs its INFO
    # progress line; the learner is shrunk so the run takes seconds
    pretraj = tmp_path / "pretraj.txt"
    save_pretrajectory(uturn_pretraj, pretraj)
    script = (
        "import sys\n"
        "from driftcorner import cli, td3\n"
        "cli.Td3Hyperparams = lambda: td3.Td3Hyperparams(hidden=(16, 16),"
        " batch_size=32)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(driftcorner.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "train", "--kind", "uturn",
         "--pretraj", str(pretraj), "--episodes", "2", "--demo-episodes", "1",
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "driftcorner.td3: imitation fit at ep 1" in proc.stderr


@pytest.mark.parametrize("demo, chi, line", [
    # the demonstrator's and the DAgger episodes complete, the learner's crash
    (50, [1] * (50 + td3.DAGGER_EPISODES) + [0] * 20,
     "completion rate over the learner's last 20 episodes: 0.00"),
    # without demonstrations every episode is the learner's; the last 100 count
    (0, [0] * 50 + [1] * 100,
     "completion rate over the learner's last 100 episodes: 1.00"),
    (5, [1] * (5 + td3.DAGGER_EPISODES), "no learner episodes"),
])
def test_train_reports_the_learners_own_completion(demo, chi, line, monkeypatch,
                                                   uturn_pretraj, tmp_path, capsys):
    monkeypatch.setattr(cli, "train",
                        lambda *args, **kwargs: (None, SimpleNamespace(chi=chi), None))
    pretraj = tmp_path / "pretraj.txt"
    save_pretrajectory(uturn_pretraj, pretraj)
    assert cli.main(["train", "--kind", "uturn", "--pretraj", str(pretraj),
                     "--episodes", str(len(chi)), "--demo-episodes", str(demo),
                     "--out", str(tmp_path / "run")]) == 0
    assert f"({line})" in capsys.readouterr().out


def test_train_config_records_every_learner_value(monkeypatch, uturn_pretraj,
                                                 tmp_path):
    monkeypatch.setattr(cli, "train",
                        lambda *args, **kwargs: (None, SimpleNamespace(chi=[1]), None))
    pretraj = tmp_path / "pretraj.txt"
    save_pretrajectory(uturn_pretraj, pretraj)
    out = tmp_path / "run"
    assert cli.main(["train", "--kind", "uturn", "--pretraj", str(pretraj),
                     "--episodes", "1", "--out", str(out)]) == 0
    config = json.loads((out / "config.json").read_text())
    assert config["hyperparams"] == {"policy_delay": 2, "batch_size": 256,
                                     "buffer_size": 500_000, "warmup": 5000,
                                     "hidden": [256, 256]}
    assert config["update_rule"] == {
        "GAMMA": td3.GAMMA, "TAU": td3.TAU, "LR": td3.LR,
        "SIGMA_EXPLORE": td3.SIGMA_EXPLORE, "SIGMA_TARGET": td3.SIGMA_TARGET,
        "NOISE_CLIP": td3.NOISE_CLIP, "GRAD_CLIP": td3.GRAD_CLIP}


def test_deploy_rejects_preview_of_another_track(uturn_preview8, tmp_path,
                                                 capsys):
    preview = tmp_path / "preview.txt"
    save_preview(uturn_preview8, preview)
    out = tmp_path / "deploy"
    assert cli.main(["deploy", "--kind", "right_angle", "--preview",
                     str(preview), "--out", str(out)]) == 3
    assert "'uturn'" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("kind, refused", [("right_angle", True), ("uturn", False)])
def test_deploy_checks_a_preview_against_a_track_file(kind, refused, uturn_preview8,
                                                      monkeypatch, tmp_path, capsys):
    # a U-turn preview on a right-angle track file ran to a crash with exit 0
    monkeypatch.setattr(cli, "deploy_run",
                        lambda *args, **kwargs: _deployed(1, "completed", 18.2, 180.0, 180.0))
    track, preview = tmp_path / f"{kind}.txt", tmp_path / "preview.txt"
    assert cli.main(["build-track", "--kind", kind, "--out", str(track)]) == 0
    save_preview(uturn_preview8, preview)
    out = tmp_path / "deploy"
    code = cli.main(["deploy", "--track", str(track), "--preview", str(preview),
                     "--out", str(out)])
    err = capsys.readouterr().err
    if refused:
        assert code == 3
        assert (f"{preview} is a preview of track 'uturn' (geometry "
                f"{uturn_preview8.track_digest}), not of the deploy's track {track}") in err
        assert not out.exists()
    else:  # the file holds the U-turn's geometry
        assert code == 0 and (out / "summary.txt").exists()


def test_deploy_rejects_preview_made_in_another_plant(uturn_preview8, tmp_path,
                                                     capsys):
    # a preview made at m = 2400 and mu = 0.6 ran to a crash with exit 0
    other = params_digest(dataclasses.replace(VehicleParams(), m=2400.0),
                          dataclasses.replace(TireParams(), mu=0.6))
    preview = tmp_path / "preview.txt"
    save_preview(dataclasses.replace(uturn_preview8, plant_digest=other), preview)
    out = tmp_path / "deploy"
    assert cli.main(["deploy", "--kind", "uturn", "--preview", str(preview),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{preview} is a preview made in plant {other}" in err
    assert params_digest(VehicleParams(), TireParams()) in err
    assert not out.exists()


@pytest.mark.parametrize("preview_plan, deploy_plan", [("mu0.5", None), (None, "mu0.5")])
def test_deploy_rejects_preview_made_on_another_plan(preview_plan, deploy_plan, uturn,
                                                    uturn_preview8, tmp_path, capsys):
    # the env starts each run at l_ref(0) of the deploy's plan, the
    # rollout that made the preview at its own: a preview made on a plan
    # at mu 0.5 against the default plan, and the default plan's preview
    # against a --pretraj file of the mu 0.5 plan
    other = plan_pretrajectory(uturn, mu=0.5)
    plans = {None: pretraj_digest(plan_pretrajectory(uturn, mu=cli.TRAINING_MU)),
             "mu0.5": pretraj_digest(other)}
    preview, pretraj = tmp_path / "preview.txt", tmp_path / "pretraj.txt"
    save_preview(dataclasses.replace(uturn_preview8, pretraj_digest=plans[preview_plan]),
                 preview)
    save_pretrajectory(other, pretraj)
    out = tmp_path / "deploy"
    argv = ["deploy", "--kind", "uturn", "--preview", str(preview), "--out", str(out)]
    assert cli.main(argv + (["--pretraj", str(pretraj)] if deploy_plan else [])) == 3
    err = capsys.readouterr().err
    assert (f"{preview} is a preview made on plan {plans[preview_plan]}, not on the "
            f"deploy's plan {plans[deploy_plan]}") in err
    assert (str(pretraj) if deploy_plan else f"planned at mu {cli.TRAINING_MU}") in err
    assert not out.exists()


@pytest.mark.parametrize("line, value", [("v_ini", "-1.0"), ("v_ini", "nan"),
                                         ("v_ini", "inf"), ("t_f", "nan")])
def test_deploy_rejects_preview_with_impossible_provenance(line, value, uturn_preview8,
                                                          tmp_path, capsys):
    # a U-turn preview edited to v_ini = -1 ran to a timeout with exit 0,
    # and to v_ini = nan to a blowup at t_f = 0; the entry speed is the
    # first row's v_x
    preview = tmp_path / "preview.txt"
    save_preview(uturn_preview8, preview)
    lines = preview.read_text().splitlines()
    if line == "v_ini":
        k = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        cells = lines[k].split()
        assert float(cells[3]) == uturn_preview8.v_ini
        lines[k] = " ".join([*cells[:3], value, *cells[4:]])
    else:
        k = lines.index(f"# {line} = {getattr(uturn_preview8, line)!r}")
        lines[k] = f"# {line} = {value}"
    preview.write_text("\n".join(lines) + "\n")
    out = tmp_path / "deploy"
    assert cli.main(["deploy", "--kind", "uturn", "--preview", str(preview),
                     "--out", str(out)]) == 3
    assert f"{preview}: {line} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fault", ["missing_header_line", "no_rows", "not_a_number"])
def test_deploy_rejects_broken_preview_file(fault, uturn_preview8, tmp_path,
                                            capsys):
    preview = tmp_path / "preview.txt"
    save_preview(uturn_preview8, preview)
    lines = preview.read_text().splitlines()
    if fault == "missing_header_line":
        lines = [ln for ln in lines if not ln.startswith("# t_f =")]
    elif fault == "no_rows":
        lines = [ln for ln in lines if ln.startswith("#")]
    else:
        lines[-1] = lines[-1].replace(" ", " fast ", 1)
    preview.write_text("\n".join(lines) + "\n")
    assert cli.main(["deploy", "--kind", "uturn", "--preview", str(preview),
                     "--out", str(tmp_path / "deploy")]) == 3
    assert str(preview) in capsys.readouterr().err


def _edit_cells(key, edit):
    """A fault that rewrites the comma-separated cells of the `# key = ...`
    line of a saved file as edit(list of cells)."""
    def fault(text):
        lines = text.splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith(f"# {key} = "))
        lines[k] = f"# {key} = " + ",".join(edit(lines[k].partition(" = ")[2].split(",")))
        return "\n".join(lines) + "\n"
    return fault


def _set_cell(key, i, value):
    return _edit_cells(key, lambda cells: [*cells[:i], value, *cells[i + 1:]])


def _swap_cells(cells):
    cells[3], cells[4] = cells[4], cells[3]
    return cells


# fault: (edit of the saved U-turn plan's text, words of the refusal)
PRETRAJ_FAULTS = {
    "pretraj_version_1": (lambda text: text.replace("pretrajectory v2", "pretrajectory v1"),
                          "re-create it with `driftcorner plan`"),
    "pretraj_header_only": (lambda text: text.splitlines()[0] + "\n",
                            "no mu, converged, knots, values header line"),
    "pretraj_a_row": (lambda text: text + "0.0,0.0,0.0,0.0,0.0,9.0\n", "has no rows"),
    "pretraj_not_a_number": (_set_cell("values", 3, "fast"), "could not convert"),
    "pretraj_unknown_converged": (_set_cell("converged", 0, "maybe"),
                                  "not True or False"),
    "pretraj_nan_mu": (_set_cell("mu", 0, "nan"), "mu must be finite and positive"),
    "pretraj_zero_mu": (_set_cell("mu", 0, "0.0"), "mu must be finite and positive"),
    "pretraj_infinite_mu": (_set_cell("mu", 0, "inf"), "mu must be finite and positive"),
    "pretraj_nan_knot": (_set_cell("knots", 3, "nan"), "strictly rising from 0"),
    "pretraj_knots_swapped": (_edit_cells("knots", _swap_cells), "strictly rising from 0"),
    "pretraj_knots_from_one": (_set_cell("knots", 0, "1.0"), "strictly rising from 0"),
    "pretraj_knots_end_short": (_edit_cells("knots", lambda cells: cells[:-1]),
                                "not at the track's s_max"),
    "pretraj_knot_count_differs": (_edit_cells("values", lambda cells: cells[:-1]),
                                   "knots but"),
    "pretraj_value_off_corridor": (_set_cell("values", 3, "1.76"),
                                   "beyond the corridor +-1.75 m"),
    # unchanged, but deployed on the right angle
    "pretraj_of_another_track": (lambda text: text, "not at the track's s_max"),
}
TRACK_FAULTS = {
    "track_version_1": lambda text: (text.replace("track v2", "track v1")
                                     + "s,x,y,heading,curvature\n0.0,0.0,0.0,0.0,0.0\n"),
    "track_nan_curvature": lambda text: text.replace(f":{1 / 11!r};", ":nan;"),
    "track_breaks_not_increasing": lambda text: text.replace(";30.0:", ";300.0:"),
}


@pytest.mark.parametrize("fault", [*PRETRAJ_FAULTS, *TRACK_FAULTS])
def test_broken_track_or_pretrajectory_file_is_a_config_error(
        fault, uturn, uturn_pretraj, tmp_path, capsys):
    if fault in PRETRAJ_FAULTS:
        broken = tmp_path / "pretraj.txt"
        save_pretrajectory(uturn_pretraj, broken)
        edit, words = PRETRAJ_FAULTS[fault]
        kind = "right_angle" if fault == "pretraj_of_another_track" else "uturn"
        argv = ["deploy", "--kind", kind, "--pretraj", str(broken),
                "--preview", str(tmp_path / "preview.txt")]
    else:
        broken = tmp_path / "track.txt"
        save_track(uturn, broken)
        edit, words = TRACK_FAULTS[fault], ""
        argv = ["plan", "--track", str(broken)]
    text = broken.read_text()
    broken.write_text(edit(text))
    assert broken.read_text() != text or fault == "pretraj_of_another_track"
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{broken}: " in err and words in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mu", ["nan", "inf", "0"])
def test_plan_refuses_an_adhesion_outside_zero_to_infinity(mu, tmp_path, capsys):
    # NaN planned NaN speeds and t_ref, and inf a finite t_ref, both exit 0
    out = tmp_path / "plan" / "pre.txt"
    assert cli.main(["plan", "--kind", "uturn", "--mu", mu, "--out", str(out)]) == 3
    assert "mu must be finite and positive" in capsys.readouterr().err
    assert not out.parent.exists()


def test_train_refuses_a_checkpoint_period_below_one(monkeypatch, uturn_pretraj,
                                                     tmp_path, capsys):
    # it ran a whole episode and then divided by zero
    monkeypatch.setattr(cli, "DriftEnv", None)  # building an env would fail
    pretraj = tmp_path / "pretraj.txt"
    save_pretrajectory(uturn_pretraj, pretraj)
    out = tmp_path / "run"
    assert cli.main(["train", "--kind", "uturn", "--pretraj", str(pretraj),
                     "--checkpoint-every", "0", "--out", str(out)]) == 3
    assert "checkpoint_every must be at least 1, not 0" in capsys.readouterr().err
    assert not out.exists()  # not even the run's config.json


def test_mu_sweep_refuses_fewer_than_one_seed(tmp_path, capsys):
    # it took max() of an empty run list after planning and a preview
    ckpt = tmp_path / "policy.npz"
    _save_untrained(ckpt)
    out = tmp_path / "sweep"
    assert cli.main(["mu-sweep", "--policy-uturn", str(ckpt), "--seeds", "0",
                     "--out", str(out)]) == 3
    assert "--seeds must be at least 1, not 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("v_ini", ["-1", "nan"])
@pytest.mark.parametrize("argv", [
    ["preview", "--kind", "uturn", "--policy", "{ckpt}", "--out", "{out}/preview.txt"],
    ["compare", "--kind", "uturn", "--policy", "{ckpt}", "--out", "{out}"],
    ["mu-sweep", "--policy-uturn", "{ckpt}", "--out", "{out}"],
])
def test_an_entry_speed_outside_zero_to_infinity_is_refused(argv, v_ini, tmp_path,
                                                            capsys):
    # -1 started the car rolling backwards and wrote a preview of v_ini -1.0
    ckpt, out = tmp_path / "policy.npz", tmp_path / "out"
    _save_untrained(ckpt)
    argv = [arg.format(ckpt=ckpt, out=out) for arg in argv] + ["--v-ini", v_ini]
    assert cli.main(argv) == 3
    value = float(v_ini)
    assert f"v_ini must be finite and positive, got {value!r}" in capsys.readouterr().err
    assert not out.exists()  # compare and mu-sweep wrote config.json first


def test_pretraj_help_is_the_same_on_every_subcommand():
    sub = cli.build_parser()._subparsers._group_actions[0].choices
    helps = {name: next(a.help for a in p._actions if a.dest == "pretraj")
             for name, p in sub.items() if any(a.dest == "pretraj" for a in p._actions)}
    assert sorted(helps) == ["compare", "deploy", "preview", "train"]
    assert set(helps.values()) == {"pre-trajectory file from `driftcorner plan` "
                                   "on the same track (planned if omitted)"}


def test_deploy_rejects_a_preview_with_a_nan_row(uturn_preview8, tmp_path, capsys):
    # NaN compares false, so it passed the checks of tick spacing and of s
    preview = tmp_path / "preview.txt"
    save_preview(uturn_preview8, preview)
    lines = preview.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 100
    cells = lines[k].split()
    cells[0] = cells[9] = "nan"  # X and s
    lines[k] = " ".join(cells)
    preview.write_text("\n".join(lines) + "\n")
    assert cli.main(["deploy", "--kind", "uturn", "--preview", str(preview),
                     "--out", str(tmp_path / "deploy")]) == 3
    err = capsys.readouterr().err
    assert f"{preview}: preview s, gamma and a_rl must be finite" in err
    assert not (tmp_path / "deploy" / "summary.txt").exists()


@pytest.mark.parametrize("argv", [
    ["preview", "--kind", "uturn", "--out", "{out}"],
    ["compare", "--kind", "uturn", "--out", "{out}"],
])
def test_a_missing_checkpoint_is_refused_naming_it(argv, tmp_path, capsys):
    missing, out = tmp_path / "nowhere.npz", tmp_path / "out"
    argv = [arg.format(out=out) for arg in argv] + ["--policy", str(missing)]
    assert cli.main(argv) == 3
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


def test_preview_rejects_npz_that_is_not_a_checkpoint(tmp_path, capsys):
    junk = tmp_path / "junk.npz"
    np.savez(junk, weights=np.zeros(3))
    assert cli.main(["preview", "--kind", "uturn", "--policy", str(junk),
                     "--out", str(tmp_path / "preview.txt")]) == 3
    assert str(junk) in capsys.readouterr().err
    assert not (tmp_path / "preview.txt").exists()


@pytest.mark.parametrize("edit", [
    lambda meta: meta.pop("sizes"),
    lambda meta: meta.update(sizes=[]),
    lambda meta: meta.update(sizes=[OBS_DIM, 4.0, 3]),
    lambda meta: meta.pop("checksum"),
    lambda meta: meta.pop("digest"),
], ids=["missing_sizes", "empty_sizes", "fractional_size", "missing_checksum",
        "missing_digest"])
def test_preview_rejects_checkpoint_with_malformed_metadata(edit, tmp_path, capsys):
    # the digest covers the arrays, not the metadata: metadata this
    # program cannot use is a configuration error naming the file
    ckpt = tmp_path / "policy.npz"
    _save_untrained(ckpt)
    with np.load(ckpt) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(ckpt, **arrays)
    assert cli.main(["preview", "--kind", "uturn", "--policy", str(ckpt),
                     "--out", str(tmp_path / "preview.txt")]) == 3
    assert f"{ckpt}: malformed checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "preview.txt").exists()


def test_preview_rejects_file_that_is_not_an_archive(tmp_path, capsys):
    junk = tmp_path / "junk.npz"
    junk.write_text("this is not a checkpoint\n")
    assert cli.main(["preview", "--kind", "uturn", "--policy", str(junk),
                     "--out", str(tmp_path / "preview.txt")]) == 3
    err = capsys.readouterr().err
    assert f"{junk}: not a driftcorner checkpoint" in err
    assert not (tmp_path / "preview.txt").exists()


def test_preview_rejects_checkpoint_with_wrong_checksum(tmp_path, capsys):
    ckpt = tmp_path / "policy.npz"
    _save_untrained(ckpt)
    with np.load(ckpt) as data:
        arrays = dict(data)
    arrays["actor"][0] += 1.0
    np.savez(ckpt, **arrays)
    assert cli.main(["preview", "--kind", "uturn", "--policy", str(ckpt),
                     "--out", str(tmp_path / "preview.txt")]) == 3
    assert f"{ckpt}: parameters sum to" in capsys.readouterr().err
    assert not (tmp_path / "preview.txt").exists()


@pytest.mark.parametrize("argv", [["table1", "--tracker"],
                                  ["compare", "--kind", "uturn", "--policy", "p.npz"]])
def test_nominal_only_commands_take_no_seed(argv, capsys):
    # every run of these commands starts from the nominal state, which
    # draws nothing from a generator, so a seed would have no effect
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + ["--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    args = cli.build_parser().parse_args(argv)
    assert not hasattr(args, "seed")


def test_mu_sweep_rejects_missing_checkpoint_before_writing(tmp_path, capsys):
    missing = tmp_path / "nowhere.npz"
    out = tmp_path / "sweep"
    assert cli.main(["mu-sweep", "--policy-uturn", str(missing),
                     "--out", str(out)]) == 3
    assert f"checkpoint not found: {missing}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    (["table1", "--out", "{out}"], "table1 needs --policy-dir"),
    (["table1", "--policy-dir", "{empty}", "--out", "{out}"],
     "missing checkpoint {empty}/uturn_centerline.npz"),
    (["compare", "--kind", "uturn", "--policy", "{ckpt}", "--out", "{out}"],
     "PreviewFailed: policy rollout"),
    (["mu-sweep", "--policy-uturn", "{ckpt}", "--out", "{out}"], "PreviewFailed: policy rollout"),
    (["mu-sweep", "--out", "{out}"], "mu-sweep needs --policy-uturn and/or --policy-right-angle"),
    (["export-plots", "--run-dir", "{empty}"], "no trace.csv/deploy.csv under {empty}"),
], ids=["table1_without_controller", "table1_empty_policy_dir", "compare_crashing_policy",
        "mu_sweep_crashing_policy", "mu_sweep_without_policy", "export_plots_empty_run_dir"])
def test_a_refused_run_leaves_no_run_directory(argv, error, monkeypatch, tmp_path, capsys):
    # each wrote the run's config.json before it was refused; a policy
    # that crashes in its own plant has no preview to deploy
    monkeypatch.setattr(cli, "policy_from_checkpoint", lambda path: StubPolicy(
        act=lambda obs, state: np.array([0.52, 800.0, 0.0])))
    files = {"empty": tmp_path / "policies", "ckpt": tmp_path / "policy.npz",
             "out": tmp_path / "out"}
    files["empty"].mkdir()
    files["ckpt"].write_bytes(b"stub")
    assert cli.main([arg.format(**files) for arg in argv]) == 3
    assert f"error: {error.format(**files)}" in capsys.readouterr().err
    assert not files["out"].exists()
    assert not any(files["empty"].iterdir())


@pytest.mark.parametrize("argv, option", [
    (["train", "--kind", "uturn"], ["--mu", "0.7"]),
    (["preview", "--kind", "uturn", "--policy", "p.npz", "--out", "o.txt"],
     ["--mu", "0.7"]),
    (["deploy", "--kind", "uturn", "--preview", "p.txt"], ["--mu", "0.7"]),
    (["compare", "--kind", "uturn", "--policy", "p.npz"], ["--mu", "0.7"]),
    (["deploy", "--kind", "uturn", "--preview", "p.txt"], ["--randomized"]),
    (["deploy", "--kind", "uturn", "--preview", "p.txt"], ["--mode", "coast"]),
    (["deploy", "--track", "ra.txt", "--preview", "p.txt"], ["--kind", "uturn"]),
    (["table1", "--tracker"], ["--policy-dir", "/nonexistent"]),
])
def test_options_without_effect_are_rejected(argv, option, capsys):
    # --mu set only the planner's adhesion while these commands' plants
    # ran at the training value (and "--mu" must not pass for
    # "--mu-deploy"); a deploy seed means a randomized start by itself;
    # a deploy mode is one of fusion.MODES;
    # --kind beside --track checked a preview against a track it did not
    # load, and the tracker left --policy-dir unread
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + option)
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err


def _deployed(chi, status, t_f, completion_deg, total_deg):
    return DeployResult(episode=_episode(chi, status, t_f), records=[],
                        fallback_events=0, mean_tick_ms=0.0,
                        completion_deg=completion_deg, total_deg=total_deg)


def test_compare_csv_and_table_hold_the_four_rows(monkeypatch, tmp_path, capsys):
    # raw RL completes in the training plant and crashes in the
    # deployment plant; MPC-only runs off the track, the fusion completes
    episodes = iter([_episode(1, "completed", 18.2), _episode(0, "crashed", 12.79)])
    deploys = iter([_deployed(0, "off_corridor", 9.1, 97.3, 180.0),
                    _deployed(1, "completed", 17.5, 180.0, 180.0)])
    monkeypatch.setattr(cli, "policy_from_checkpoint", lambda path: StubPolicy())
    monkeypatch.setattr(cli, "generate_preview", lambda *args, **kwargs: None)
    monkeypatch.setattr(cli, "run_episode", lambda *args, **kwargs: next(episodes))
    monkeypatch.setattr(cli, "deploy_run", lambda *args, **kwargs: next(deploys))
    policy = tmp_path / "policy.npz"
    policy.write_bytes(b"stub")
    out = tmp_path / "compare"
    assert cli.main(["compare", "--kind", "uturn", "--policy", str(policy),
                     "--mu-deploy", "0.75", "--out", str(out)]) == 0
    uturn = build_library_track("uturn")
    rows = [
        cli._episode_row("RL policy (training plant)", _episode(1, "completed", 18.2),
                         *completion_degrees(uturn, 94.65)),
        cli._episode_row("RL policy (deployment plant)", _episode(0, "crashed", 12.79),
                         *completion_degrees(uturn, 94.65)),
        cli._episode_row("MPC tracking (deployment plant)",
                         _episode(0, "off_corridor", 9.1), 97.3, 180.0),
        cli._episode_row("Fused RL+MPC (deployment plant)",
                         _episode(1, "completed", 17.5), 180.0, 180.0),
    ]
    assert (out / "compare.csv").read_text() == _csv(["Policy", *cli.TABLE_COLUMNS], rows)
    assert capsys.readouterr().out == (
        "Policy                          | Task Completion (deg) | Max. speed (m/s) "
        "| Max. side-slip angle (deg) | Total time (s)\n"
        "--------------------------------+-----------------------+------------------"
        "+----------------------------+---------------\n"
        "RL policy (training plant)      | 180/180               | 9.00             "
        "| 5.7                        | 18.20         \n"
        "RL policy (deployment plant)    | 180/180 (crashed)     | 9.00             "
        "| 5.7                        | N/A           \n"
        "MPC tracking (deployment plant) | 97/180 (off_corridor) | 9.00             "
        "| 5.7                        | N/A           \n"
        "Fused RL+MPC (deployment plant) | 180/180               | 9.00             "
        "| 5.7                        | 17.50         \n")


def test_compare_starts_every_row_at_the_entry_speed_given(monkeypatch, tmp_path):
    # rows 1-2 started at planner.V_START while the preview of rows 3-4
    # started at --v-ini; each stub reports the speed its run starts at
    def started(policy, env, seed=None, v0=None):
        env.reset(seed, v0)
        return dataclasses.replace(_episode(1, "completed", 18.2), max_speed=env.state.v_x)

    def deployed(preview, *args, **kwargs):
        res = _deployed(1, "completed", 17.5, 180.0, 180.0)
        return dataclasses.replace(res, episode=dataclasses.replace(
            res.episode, max_speed=preview.v_ini))

    monkeypatch.setattr(cli, "policy_from_checkpoint", lambda path: StubPolicy())
    monkeypatch.setattr(cli, "generate_preview",
                        lambda *args, v_ini, **kwargs: SimpleNamespace(v_ini=v_ini))
    monkeypatch.setattr(cli, "run_episode", started)
    monkeypatch.setattr(cli, "deploy_run", deployed)
    policy = tmp_path / "policy.npz"
    policy.write_bytes(b"stub")
    out = tmp_path / "compare"
    assert cli.main(["compare", "--kind", "uturn", "--policy", str(policy),
                     "--v-ini", "7.0", "--out", str(out)]) == 0
    _, *rows = (line.split(",") for line in (out / "compare.csv").read_text().splitlines())
    assert [row[2] for row in rows] == ["7.00"] * 4


def test_mu_sweep_csv_holds_the_median_time_or_the_furthest_run(monkeypatch, tmp_path,
                                                                capsys):
    # per mu, how many of the five seeds complete (seed < n), each in
    # base + seed / 2 seconds; a run that does not complete sweeps
    # base / 2 + seed * 10 degrees of the task's total
    completes = {0.95: 5, 0.85: 5, 0.75: 3, 0.65: 2, 0.55: 0}
    base = {"uturn": 20.0, "right_angle": 15.0}
    total = {"uturn": 180.0, "right_angle": 90.0}

    def stub(kind, track, pre, params, dep_params, dep_tires, seed):
        assert seed is not None  # more than one seed: randomized starts
        if seed < completes[dep_tires.mu]:
            return _deployed(1, "completed", base[kind] + seed / 2, total[kind], total[kind])
        return _deployed(0, "crashed", 5.0, base[kind] / 2 + seed * 10, total[kind])

    monkeypatch.setattr(cli, "policy_from_checkpoint", lambda path: StubPolicy())
    monkeypatch.setattr(cli, "generate_preview", lambda *args, track_id, **kwargs: track_id)
    monkeypatch.setattr(cli, "deploy_run", stub)
    uturn, right_angle = tmp_path / "uturn.npz", tmp_path / "right_angle.npz"
    uturn.write_bytes(b"stub")
    right_angle.write_bytes(b"stub")
    out = tmp_path / "sweep"
    assert cli.main(["mu-sweep", "--policy-uturn", str(uturn), "--policy-right-angle",
                     str(right_angle), "--out", str(out)]) == 0
    expected = _csv(["mu", "uturn", "right_angle"], [
        ["0.95", "21.00", "16.00"],
        ["0.85", "21.00", "16.00"],
        ["0.75", "20.50", "15.50"],
        ["0.65", "N/A (180/180)", "N/A (90/90)"],
        ["0.55", "N/A (50/180)", "N/A (48/90)"],
    ])
    assert (out / "mu_sweep.csv").read_text() == expected
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("seed_args, seed, nominal_start", [
    ([], None, True),
    (["--seed", "3"], 3, False),
    (["--seed", "0"], 0, False),
])
def test_deploy_seed_means_a_randomized_start(seed_args, seed, nominal_start, monkeypatch,
                                              uturn_preview8, tmp_path):
    # the seed goes to deploy_run as it is; None is the nominal start
    calls = []

    def stub(*args, **kwargs):
        calls.append(kwargs)
        return _deployed(1, "completed", 18.2, 180.0, 180.0)

    monkeypatch.setattr(cli, "deploy_run", stub)
    preview = tmp_path / "preview.txt"
    save_preview(uturn_preview8, preview)
    out = tmp_path / "deploy"
    assert cli.main(["deploy", "--kind", "uturn", "--preview", str(preview),
                     "--out", str(out), *seed_args]) == 0
    assert len(calls) == 1 and calls[0]["seed"] == seed
    assert (calls[0]["seed"] is None) is nominal_start
    assert json.loads((out / "config.json").read_text())["seed"] == seed


# -- every option is recorded ------------------------------------------

# Per subcommand and option: the config.json key (dotted into nested
# objects) or, for build-track, plan and preview, the field of the file
# written that records the option, and two argument lists that differ in
# it.  {name} is a file of `option_files`; a file input is recorded
# through the run's input_hash.
_A = ["--kind", "uturn", "--policy", "{policy_a}"]
_D = ["--kind", "uturn", "--preview", "{preview_a}"]
_DEPLOYMENT = {"--mu-deploy": ("mu", "0.75"), "--mass-scale": ("mass_scale", "1.1"),
               "--tire-b-scale": ("tire_b_scale", "0.9"),
               "--tire-d-scale": ("tire_d_scale", "0.9")}
RECORDED = {
    "build-track": {
        "--kind": ("segments", ["--kind", "uturn"], ["--kind", "right_angle"]),
        **{opt: (field, ["--kind", "uturn"], ["--kind", "uturn", opt, value])
           for opt, field, value in (("--radius", "segments", "12"),
                                     ("--width", "half_width", "5.0"),
                                     ("--entry-len", "segments", "20"),
                                     ("--exit-len", "segments", "60"))},
    },
    "plan": {
        "--track": ("knots", ["--track", "{uturn}"], ["--track", "{right_angle}"]),
        "--kind": ("knots", ["--kind", "uturn"], ["--kind", "right_angle"]),
        "--mu": ("mu", ["--kind", "uturn"], ["--kind", "uturn", "--mu", "0.7"]),
    },
    "train": {
        "--track": ("input_hash", ["--kind", "uturn"], ["--track", "{uturn}"]),
        "--kind": ("kind", ["--kind", "uturn"], ["--kind", "right_angle"]),
        "--pretraj": ("input_hash", ["--kind", "uturn"],
                      ["--kind", "uturn", "--pretraj", "{pretraj}"]),
        **{opt: (key, ["--kind", "uturn"], ["--kind", "uturn", opt, value])
           for opt, key, value in (("--episodes", "episodes", "2"), ("--seed", "seed", "3"),
                                   ("--demo-episodes", "demo_episodes", "0"),
                                   ("--checkpoint-every", "checkpoint_every", "10"))},
    },
    "preview": {
        "--track": ("track_digest", ["--track", "{uturn}", "--policy", "{policy_a}"],
                    ["--track", "{uturn_wide}", "--policy", "{policy_a}"]),
        "--kind": ("track_id", _A, ["--kind", "right_angle", "--policy", "{policy_a}"]),
        "--pretraj": ("pretraj_digest", _A, [*_A, "--pretraj", "{pretraj}"]),
        "--policy": ("policy_checksum", _A, ["--kind", "uturn", "--policy", "{policy_b}"]),
        "--v-ini": ("v_ini", _A, [*_A, "--v-ini", "8.5"]),
    },
    "deploy": {
        "--track": ("input_hash", _D, ["--track", "{uturn}", "--preview", "{preview_a}"]),
        "--kind": ("kind", ["--track", "{uturn}", "--preview", "{preview_a}"], _D),
        # the default plan from a file: a preview made on any other is refused
        "--pretraj": ("input_hash", _D, [*_D, "--pretraj", "{pretraj_default}"]),
        "--preview": ("input_hash", _D, ["--kind", "uturn", "--preview", "{preview_b}"]),
        **{opt: (f"deployment.{key}", _D, [*_D, opt, value])
           for opt, (key, value) in _DEPLOYMENT.items()},
        "--seed": ("seed", _D, [*_D, "--seed", "3"]),
        "--mode": ("mode", _D, [*_D, "--mode", "replay"]),
    },
    "table1": {
        "--policy-dir": ("policy_dir", ["--policy-dir", "{policies_a}"],
                         ["--policy-dir", "{policies_b}"]),
        "--tracker": ("tracker", ["--policy-dir", "{policies_a}"], ["--tracker"]),
    },
    "compare": {
        "--track": ("input_hash", _A, ["--track", "{uturn}", "--policy", "{policy_a}"]),
        "--kind": ("kind", _A, ["--kind", "right_angle", "--policy", "{policy_a}"]),
        "--pretraj": ("input_hash", _A, [*_A, "--pretraj", "{pretraj}"]),
        "--policy": ("input_hash", _A, ["--kind", "uturn", "--policy", "{policy_b}"]),
        **{opt: (f"deployment.{key}", _A, [*_A, opt, value])
           for opt, (key, value) in _DEPLOYMENT.items()},
        "--v-ini": ("v_ini", _A, [*_A, "--v-ini", "8.5"]),
    },
    "mu-sweep": {
        "--policy-uturn": ("input_hash", ["--policy-uturn", "{policy_a}"],
                           ["--policy-uturn", "{policy_b}"]),
        "--policy-right-angle": ("tasks", ["--policy-uturn", "{policy_a}"],
                                 ["--policy-uturn", "{policy_a}",
                                  "--policy-right-angle", "{policy_a}"]),
        "--v-ini": ("v_ini", ["--policy-uturn", "{policy_a}"],
                    ["--policy-uturn", "{policy_a}", "--v-ini", "8.5"]),
        "--seeds": ("seeds", ["--policy-uturn", "{policy_a}"],
                    ["--policy-uturn", "{policy_a}", "--seeds", "2"]),
    },
}
# options that only name where a command writes or what it reads back
FILE_ONLY = {**{name: {"--out"} for name in RECORDED}, "export-plots": {"--run-dir"}}
FILE_COMMANDS = ("build-track", "plan", "preview")


def test_every_option_is_recorded_or_file_only():
    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    for name, parser in sub.choices.items():
        options = {a.option_strings[-1] for a in parser._actions
                   if a.option_strings and a.dest != "help"}
        assert options == set(RECORDED.get(name, {})) | FILE_ONLY[name], name


@pytest.fixture(scope="module")
def recorded_run(uturn_pretraj, uturn_preview8, tmp_path_factory):
    """record(command, argv): what the run records, as a flat dict: the
    fields of the file written, or config.json with nested keys dotted.
    The learner, the rollouts and the checkpoint loader are stubs, but a
    preview is a real rollout of the 8 m/s path tracker."""
    tmp = tmp_path_factory.mktemp("options")
    files = {name: tmp / f"{name}.txt" for name in
             ("uturn", "right_angle", "uturn_wide", "pretraj", "pretraj_default",
              "preview_a", "preview_b")}
    save_track(build_library_track("uturn"), files["uturn"])
    save_track(build_library_track("right_angle"), files["right_angle"])
    save_track(build_library_track("uturn", width=6.0), files["uturn_wide"])
    # planned at mu 0.5, so slower than 8 m/s through the arc
    save_pretrajectory(plan_pretrajectory(build_library_track("uturn"), mu=0.5),
                       files["pretraj"])
    save_pretrajectory(uturn_pretraj, files["pretraj_default"])
    save_preview(uturn_preview8, files["preview_a"])
    save_preview(dataclasses.replace(uturn_preview8, t_f=18.5), files["preview_b"])
    for name, content in (("policy_a", b"a"), ("policy_b", b"bb")):
        files[name] = tmp / f"{name}.npz"
        files[name].write_bytes(content)
    for name in ("policies_a", "policies_b"):
        files[name] = tmp / name
        files[name].mkdir()
        for kind in LIBRARY_KINDS:
            for variant in ("centerline", "planned"):
                (files[name] / f"{kind}_{variant}.npz").write_bytes(b"stub")

    def tracker_preview(policy, params, tires, track, pre, v_ini, track_id):
        return build_task(track, pre, v_ini, track_id, policy.checksum)[2]

    stubs = {
        "train": lambda *args, **kwargs: (None, SimpleNamespace(chi=[1]), None),
        "deploy_run": lambda *args, **kwargs: _deployed(1, "completed", 18.2, 180.0, 180.0),
        "run_episode": lambda *args, **kwargs: _episode(1, "completed", 18.2),
        "policy_from_checkpoint": lambda path: StubPolicy(
            checksum=lambda: float(sum(Path(path).read_bytes()))),
    }
    runs = {}

    def record(command, argv):
        argv = [arg.format(**files) for arg in argv]
        key = (command, *argv)
        if key not in runs:
            out = tmp / f"run{len(runs)}"
            with pytest.MonkeyPatch.context() as mp:
                for name, stub in stubs.items():
                    mp.setattr(cli, name, stub)
                mp.setattr(cli, "generate_preview", tracker_preview if command == "preview"
                           else lambda *args, **kwargs: None)
                assert cli.main([command, *argv, "--out", str(out)]) == 0, key
            if command in FILE_COMMANDS:
                runs[key] = dict(line[2:].split(" = ", 1)
                                 for line in out.read_text().splitlines()
                                 if line.startswith("# ") and " = " in line)
                if command == "preview":  # the entry speed is the first row's v_x
                    runs[key]["v_ini"] = load_preview(out).v_ini
            else:
                runs[key] = _flat(json.loads((out / "config.json").read_text()))
        return runs[key]
    return record


def _flat(config: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in config.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


@pytest.mark.parametrize("command, option", [(c, o) for c in RECORDED for o in RECORDED[c]])
def test_an_option_is_recorded(command, option, recorded_run):
    key, argv_a, argv_b = RECORDED[command][option]
    assert recorded_run(command, argv_a).get(key) != recorded_run(command, argv_b).get(key)
