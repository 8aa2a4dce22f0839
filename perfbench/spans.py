"""Span tracer for the traced run.

The tracer replaces the public callables of the `driftcorner` modules
with wrappers that record a span (name, start, end, parent, phase) or,
for the cheapest and most frequent calls, only a count.  A name imported
by name into another module is a separate binding there, so each such
binding is wrapped too.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

QP_SAMPLE_EVERY = 97  # keep every 97th QP for the independent re-solve
QP_SAMPLE_MAX = 40
QP_MAX_ITER = 60  # solve_box_qp's default; reaching it means the enumeration ran


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.phase_of: list[str] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.counts: Counter = Counter()  # (phase, name) -> calls
        self.qp_iterations: dict[str, list[int]] = defaultdict(list)
        self.kkt_max: dict[str, float] = defaultdict(float)
        self.qp_sample: list[tuple] = []
        self._qp_calls = 0
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------

    def span(self, fn, name, on_result=None):
        names, starts, ends, parents, phases, stack = (
            self.name, self.start, self.end, self.parent, self.phase_of, self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            phases.append(tracer.phase)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def count(self, fn, name):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(tracer.phase, name)] += 1
            return fn(*args, **kwargs)
        return counted

    def _on_box_qp(self, args, sol):
        self.qp_iterations[self.phase].append(sol.iterations)
        self._qp_calls += 1
        if self._qp_calls % QP_SAMPLE_EVERY == 0 and len(self.qp_sample) < QP_SAMPLE_MAX:
            h, g, a, b = (np.array(v, dtype=float) for v in args[:4])
            self.qp_sample.append((h, g, a, b, sol.z.copy()))

    def _on_qp(self, args, result):
        self.kkt_max[self.phase] = max(self.kkt_max[self.phase], result[2].kkt_residual)

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layers' public callables in every namespace that calls them."""
        from driftcorner import (baseline, envs, fusion, kernels, mpc, nets,
                                 planner, plant, replay, td3, track)

        def spans(name, fn, *bindings, on_result=None):
            wrapper = self.span(fn, name, on_result)
            for owner, attr in bindings:
                self._patch(owner, attr, wrapper)

        def counts(name, fn, *bindings):
            wrapper = self.count(fn, name)
            for owner, attr in bindings:
                self._patch(owner, attr, wrapper)

        counts("track.frame_at", track.TrackGeometry.frame_at,
               (track.TrackGeometry, "frame_at"))
        counts("track.to_cartesian", track.to_cartesian, (track, "to_cartesian"),
               (planner, "to_cartesian"), (envs, "to_cartesian"))
        spans("track.to_frenet", track.to_frenet, (track, "to_frenet"),
              (envs, "to_frenet"), (plant, "to_frenet"), (fusion, "to_frenet"))
        for fn in ("minimize_curvature", "plan_speed", "build_pretrajectory",
                   "plan_pretrajectory"):
            spans(f"planner.{fn}", getattr(planner, fn), (planner, fn))
        spans("plant.step", plant.step, (plant, "step"), (envs, "plant_step"))
        spans("kernels.integrate", kernels.integrate, (kernels, "integrate"))
        spans("plant.detect_termination", plant.detect_termination,
              (plant, "detect_termination"), (envs, "detect_termination"))
        spans("envs.observe", envs.observe, (envs, "observe"))
        spans("envs.reward_step", envs.reward_step, (envs, "reward_step"))
        for meth in ("step", "reset"):
            spans(f"envs.DriftEnv.{meth}", getattr(envs.DriftEnv, meth),
                  (envs.DriftEnv, meth))
        for meth in ("__call__", "__init__"):
            spans(f"fusion.FusionController.{meth}",
                  getattr(fusion.FusionController, meth),
                  (fusion.FusionController, meth))
        spans("fusion.generate_preview", fusion.generate_preview,
              (fusion, "generate_preview"))
        spans("fusion.deploy_run", fusion.deploy_run, (fusion, "deploy_run"))
        spans("mpc.solve_qp", mpc.solve_qp, (mpc, "solve_qp"), (fusion, "solve_qp"),
              on_result=self._on_qp)
        spans("mpc.solve_box_qp", mpc.solve_box_qp, (mpc, "solve_box_qp"),
              on_result=self._on_box_qp)
        counts("mpc.discretize_augment", mpc.discretize_augment,
               (mpc, "discretize_augment"), (fusion, "discretize_augment"))
        spans("baseline.BaselineTracker.__call__", baseline.BaselineTracker.__call__,
              (baseline.BaselineTracker, "__call__"))
        for fn in ("mlp_forward", "mlp_backward", "clip_gradients", "soft_update"):
            spans(f"nets.{fn}", getattr(nets, fn), (nets, fn), (td3, fn))
        spans("nets.Adam.step", nets.Adam.step, (nets.Adam, "step"))
        for fn in ("compute_target", "update_critics", "update_actor_and_targets",
                   "select_action", "train"):
            spans(f"td3.{fn}", getattr(td3, fn), (td3, fn))
        for meth in ("sample", "add"):
            spans(f"replay.ReplayBuffer.{meth}", getattr(replay.ReplayBuffer, meth),
                  (replay.ReplayBuffer, meth))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------

    def layer_totals(self, phase: str):
        """Per name: (calls, inclusive seconds, self seconds, durations)."""
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=int)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        out: dict[str, dict] = {}
        for i, (name, ph) in enumerate(zip(self.name, self.phase_of)):
            if ph != phase:
                continue
            rec = out.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "durations": []})
            rec["calls"] += 1
            rec["incl"] += dur[i]
            rec["self"] += selft[i]
            rec["durations"].append(dur[i])
        for (ph, name), n in self.counts.items():
            if ph == phase:
                out.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0,
                                      "durations": []})["calls"] += n
        return out

    def write(self, path) -> None:
        """All spans as parallel arrays (times in seconds from the first span)."""
        t0 = self.start[0] if self.start else 0.0
        path.write_text(json.dumps({
            "name": self.name, "phase": self.phase_of, "parent": self.parent,
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
            "counts": [[ph, name, n] for (ph, name), n in sorted(self.counts.items())],
        }))
