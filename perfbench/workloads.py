"""The benchmark's three workloads: case draws, set-up, one unit, its checks.

Every case is drawn from a fixed seed, so a run repeats the same
registrations exactly and its Dice and step counts do too. Units call the
program through module attributes (``pipeline.run_end2end``,
``phantom.make_pair`` ...), which is where the traced run wraps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import oracles
from rigidda import metrics, phantom, pipeline
from rigidda.config import PipelineConfig
from rigidda.engine import OptimConfig
from rigidda.losses import LossWeights
from rigidda.rigid import RigidParams
from rigidda.volume import Volume

FAST = dict(lr0=0.02, epoch_steps=10, plateau_patience=3, stop_patience=8)  # the gate's preset
MODES = ("baseline", "cycle", "full")


@dataclass
class Case:
    key: int  # draw index; also the noise and optimizer seed, as in the gate
    angles: np.ndarray
    rel: np.ndarray  # drawn world rigid map, built by the oracle
    pair: phantom.PhantomPair
    task: phantom.AnalyticSegmenter
    cache: dict = field(default_factory=dict)


def config(mode: str, seed: int, max_steps: int) -> PipelineConfig:
    optim = OptimConfig(seed=seed, max_steps=max_steps, **FAST)
    return PipelineConfig(mode=mode, weights=LossWeights(tau=0.1), optim=optim)


def dice_of(report) -> list[float]:
    return [report.per_class[c].dice for c in oracles.FOREGROUND]


def converged_steps(trace, min_delta: float) -> int:
    """Steps taken before the loss first came within min_delta of its final best."""
    totals = [row.report.total for row in trace.rows]
    best = min(totals)
    return next(k for k, v in enumerate(totals) if v <= best + min_delta)


def recovery_case(key: int, base: int) -> Case:
    """Criterion-4 draw: up to 30 degrees and 15 mm, 64^3 at 1.5 mm."""
    rng = np.random.default_rng(base + key)
    angles = rng.uniform(-np.pi / 6, np.pi / 6, 3)
    trans = rng.uniform(-15.0, 15.0, 3)
    spec = phantom.PhantomSpec()
    pair = phantom.make_pair(spec, phantom.world_rigid(tuple(angles), tuple(trans)), grid=(64, 64, 64), iso=1.5, seed=key)
    task = phantom.AnalyticSegmenter(spec, pair.i.geometry)
    return Case(key, angles, oracles.homogeneous(oracles.rotation(*angles), trans), pair, task)


def apex_case(key: int, base: int) -> Case:
    """Criterion-5 apex-cropping draw: 48^3 at 2 mm, 12 mm first-view slices."""
    rng = np.random.default_rng(base + key)
    angles = rng.uniform(-0.15, 0.15, 3)
    tx, ty = rng.uniform(-4.0, 4.0, 2)
    tz = -(35.0 + rng.uniform(0.0, 5.0))
    spec = phantom.PhantomSpec(noise_sigma=0.05)
    rel = phantom.world_rigid(tuple(angles), (tx, ty, tz))
    pair = phantom.make_pair(spec, rel, grid=(48, 48, 48), iso=2.0, seed=key, ax_spacing=(2.0, 2.0, 12.0))
    task = phantom.AnalyticSegmenter(spec, pair.i.geometry)
    return Case(key, angles, oracles.homogeneous(oracles.rotation(*angles), (tx, ty, tz)), pair, task)


class Workload:
    """One fixed list of cases and the operation a unit performs on one of them."""

    name = ""
    keys: tuple[int, ...] = ()
    default_base = 0

    def build(self, base: int) -> list[Case]:
        raise NotImplementedError

    def warm_up(self, case: Case) -> None:
        raise NotImplementedError

    def unit(self, case: Case):
        raise NotImplementedError

    def summary(self, out) -> dict:
        """What must repeat exactly between rounds: Dice, steps, converged steps."""
        raise NotImplementedError

    def check_unit(self, case: Case, out) -> list[str]:
        raise NotImplementedError

    def round_figures(self, cases: list[Case], summaries: dict) -> dict:
        """Figures over one whole round, from each case's summary."""
        return {}

    def check_round(self, figures: dict) -> list[str]:
        return []

    def negative_controls(self, case: Case, out, figures: dict) -> list[str]:
        """Feed the checks known-wrong outputs; name every one they accept."""
        raise NotImplementedError


def _dice_control(truth: np.ndarray, pred: np.ndarray, report) -> list[str]:
    reported = dict(zip(oracles.FOREGROUND, dice_of(report)))
    if oracles.check_dice(oracles.swap_lv_rv(pred), truth, reported):
        return []
    return ["Dice recount accepted LV/RV-swapped labels"]


class Recover(Workload):
    name = "recover-64"
    keys = (0, 2)  # two criterion-4 draws; 170 and 180 steps to early stop
    default_base = 500

    def build(self, base):
        return [recovery_case(k, base) for k in self.keys]

    def warm_up(self, case):
        pipeline.run_end2end(case.pair, case.task, config("full", case.key, 2))

    def unit(self, case):
        return pipeline.run_end2end(case.pair, case.task, config("full", case.key, 350))

    def summary(self, out):
        return {
            "dice": dice_of(out.report),
            "steps": len(out.trace.rows),
            "converged": converged_steps(out.trace, OptimConfig().min_delta),
        }

    def check_unit(self, case, out):
        p = out.params
        problems = oracles.check_recovery(p.angles, p.t, case.rel, case.pair.i.geometry, case.pair.j.geometry)
        return problems + oracles.check_dice(
            out.pred_labels.data, case.pair.labels_i.data, dict(zip(oracles.FOREGROUND, dice_of(out.report)))
        )

    def negative_controls(self, case, out, figures):
        p = out.params
        g_i, g_j = case.pair.i.geometry, case.pair.j.geometry
        accepted = []
        tilted = p.angles + np.radians([2.5, 0.0, 0.0])
        if not oracles.check_recovery(tilted, p.t, case.rel, g_i, g_j):
            accepted.append("recovery check accepted a 2.5 deg rotation error")
        shifted = p.t + np.array([1.2 * 2.0 / (g_i.shape[0] - 1), 0.0, 0.0])
        if not oracles.check_recovery(p.angles, shifted, case.rel, g_i, g_j):
            accepted.append("recovery check accepted a 1.2 voxel translation error")
        return accepted + _dice_control(case.pair.labels_i.data, out.pred_labels.data, out.report)


class Modes(Workload):
    name = "modes-48"
    keys = (0, 1, 2, 3, 4)  # the whole criterion-5 family; the ordering holds on its mean
    default_base = 1000

    def build(self, base):
        return [apex_case(k, base) for k in self.keys]

    def warm_up(self, case):
        for mode in MODES:
            pipeline.run_end2end(case.pair, case.task, config(mode, case.key, 2))

    def unit(self, case):
        return {mode: pipeline.run_end2end(case.pair, case.task, config(mode, case.key, 100)) for mode in MODES}

    def summary(self, out):
        applied = {}
        for mode, res in out.items():
            p = res.params
            # the 6-parameter modes apply M_t = M, as run_end2end does
            applied[mode] = (p.angles, p.t_t if mode == "full" else p.t)
        return {
            "dice": dice_of(out["full"].report),
            "dice_by_mode": {mode: dice_of(res.report) for mode, res in out.items()},
            "steps": sum(len(res.trace.rows) for res in out.values()),
            "converged": sum(converged_steps(res.trace, OptimConfig().min_delta) for res in out.values()),
            "applied": applied,
        }

    def check_unit(self, case, out):
        problems = []
        for mode, res in out.items():
            reported = dict(zip(oracles.FOREGROUND, dice_of(res.report)))
            problems += [f"{mode}: {p}" for p in oracles.check_dice(res.pred_labels.data, case.pair.labels_i.data, reported)]
        return problems

    def round_figures(self, cases, summaries):
        """Mean Dice per mode, and mean focus_exact per mode through the oracle's warp."""
        mean_dice = {m: np.mean([summaries[c.key]["dice_by_mode"][m] for c in cases], axis=0).tolist() for m in MODES}
        mean_focus = {}
        for mode in MODES:
            values = []
            for c in cases:
                angles, t = summaries[c.key]["applied"][mode]
                warped = oracles.warp(c.pair.i.data, oracles.param_matrix(angles, t))
                q = c.task.evaluate(Volume(c.pair.i.geometry, warped)).q
                values.append(oracles.focus_exact(q, LossWeights().r))
            mean_focus[mode] = float(np.mean(values))
        return {"mean_dice": mean_dice, "mean_focus": mean_focus}

    def check_round(self, figures):
        return oracles.check_mode_ordering(figures["mean_dice"], figures["mean_focus"])

    def negative_controls(self, case, out, figures):
        mean_dice, mean_focus = figures["mean_dice"], figures["mean_focus"]
        swapped_dice = dict(mean_dice, full=mean_dice["baseline"], baseline=mean_dice["full"])
        swapped_focus = dict(mean_focus, full=mean_focus["baseline"], baseline=mean_focus["full"])
        accepted = []
        if not oracles.check_mode_ordering(swapped_dice, swapped_focus):
            accepted.append("ordering check accepted full and baseline swapped")
        full = out["full"]
        return accepted + _dice_control(case.pair.labels_i.data, full.pred_labels.data, full.report)


class Apply(Workload):
    name = "apply-64"
    keys = tuple(range(10))  # all ten criterion-4 draws
    default_base = 500
    floor = {1: 0.95, 2: 0.90, 3: 0.90}  # Dice through the true transform

    def build(self, base):
        cases = [recovery_case(k, base) for k in self.keys]
        for c in cases:
            t = oracles.true_params(c.rel, c.angles, c.pair.i.geometry, c.pair.j.geometry)
            c.cache["true"] = RigidParams(*c.angles, t=t, t_t=t)
        return cases

    def warm_up(self, case):
        self.unit(case)

    def unit(self, case):
        pred = pipeline.apply_task(case.pair.i, case.cache["true"], case.task)
        return pred, metrics.evaluate_labels(pred, case.pair.labels_i)

    def summary(self, out):
        return {"dice": dice_of(out[1]), "steps": 0, "converged": 0}

    def _identity_rv(self, case):
        """RV Dice of direct application, counted by the oracle; untimed."""
        if "identity_rv" not in case.cache:
            pred = pipeline.apply_task(case.pair.i, RigidParams(), case.task)
            case.cache["identity_rv"] = oracles.dice(pred.data, case.pair.labels_i.data, 3)
        return case.cache["identity_rv"]

    def check_unit(self, case, out):
        pred, report = out
        truth = case.pair.labels_i.data
        reported = dict(zip(oracles.FOREGROUND, dice_of(report)))
        counted = [oracles.dice(pred.data, truth, c) for c in oracles.FOREGROUND]
        return (
            oracles.check_dice(pred.data, truth, reported)
            + oracles.check_floor(counted, self.floor)
            + oracles.check_beats_identity(counted[2], self._identity_rv(case))
        )

    def negative_controls(self, case, out, figures):
        pred, report = out
        truth = case.pair.labels_i.data
        accepted = []
        swapped = oracles.swap_lv_rv(pred.data)
        if not oracles.check_floor([oracles.dice(swapped, truth, c) for c in oracles.FOREGROUND], self.floor):
            accepted.append("Dice floor accepted LV/RV-swapped labels")
        if not oracles.check_beats_identity(self._identity_rv(case), self._identity_rv(case)):
            accepted.append("identity comparison accepted the identity output itself")
        return accepted + _dice_control(truth, pred.data, report)


WORKLOADS = {w.name: w for w in (Recover(), Modes(), Apply())}
