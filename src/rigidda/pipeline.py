"""End-to-end wiring: register, apply the task module, back-transform, evaluate."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .engine import RegistrationTrace, register_pair, slab_bounds
from .io import read_volume, write_volume
from .metrics import MetricReport, evaluate_labels, postprocess_labels
from .phantom import PhantomPair, PhantomSpec, TaskModule
from .resampler import transform_labels, transform_volume
from .rigid import RigidParams, euler_to_affine, read_transform, write_transform
from .volume import LabelVolume, Volume, argmax_channels

# the volumes of a pair directory, in PhantomPair's field order, and their kinds
PAIR_VOLUMES = (("I.nii", Volume), ("J.nii", Volume), ("labels_I.nii", LabelVolume), ("labels_J.nii", LabelVolume))


def apply_task(
    ax: Volume,
    params: RigidParams,
    task: TaskModule,
    post: bool = True,
) -> LabelVolume:
    """Segment in the task frame and bring the labels back to the axial grid.

    The axial volume is transformed with M_t, the task module produces class
    probabilities slab by slab (``slab_bounds``, through ``task.restrict``, as
    the registration objective does), hard labels are taken per voxel, back-
    transformed with M_t^-1 and post-processed.
    """
    mats = euler_to_affine(params)
    i_t = transform_volume(ax, mats.m_t, ax.geometry).image.data
    hard = np.empty(ax.geometry.shape, dtype=np.int16)
    for z0, z1 in slab_bounds(ax.geometry.shape):
        part = task.restrict(z0, z1)
        q = part.evaluate(Volume.trusted(part.geometry, np.ascontiguousarray(i_t[..., z0:z1])))
        hard[..., z0:z1] = argmax_channels(q.q)
    back = transform_labels(LabelVolume(ax.geometry, hard), mats.m_t_inv, ax.geometry)
    return postprocess_labels(back) if post else back


@dataclass
class End2EndResult:
    """A registered, segmented and evaluated pair.

    ``params`` come from ``register_pair``: in the modes without a task branch
    (``baseline``, ``cycle``) ``t_t = t``, so the labels were segmented through M.
    """

    params: RigidParams
    trace: RegistrationTrace
    pred_labels: LabelVolume
    report: MetricReport

    def save(self, out_dir) -> None:
        """Write trace.csv, transform.json, pred_labels.nii and metrics.json into ``out_dir``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.trace.write_csv(out / "trace.csv")
        write_transform(out / "transform.json", self.params)
        write_volume(self.pred_labels, out / "pred_labels.nii")
        (out / "metrics.json").write_text(self.report.to_json())


def save_pair_dir(pair: PhantomPair, spec: PhantomSpec, out_dir) -> None:
    """Write a pair directory: the four PAIR_VOLUMES, gtM.json {m, m_inv} and spec.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (name, _), vol in zip(PAIR_VOLUMES, (pair.i, pair.j, pair.labels_i, pair.labels_j)):
        write_volume(vol, out / name)
    write_transform(out / "gtM.json", (pair.gt_m, pair.gt_m_inv))
    (out / "spec.json").write_text(spec.to_json())


def load_pair_dir(pair_dir) -> tuple[PhantomPair, PhantomSpec]:
    """The pair and the phantom spec ``save_pair_dir`` wrote into ``pair_dir``."""
    pair_dir = Path(pair_dir)
    spec = PhantomSpec.from_file(pair_dir / "spec.json")
    vols = [read_volume(pair_dir / name, kind) for name, kind in PAIR_VOLUMES]
    return PhantomPair(*vols, *read_transform(pair_dir / "gtM.json")), spec


def run_end2end(pair: PhantomPair, task: TaskModule, config: PipelineConfig) -> End2EndResult:
    """Register the pair, apply the task, evaluate against the axial labels."""
    params, trace = register_pair(
        pair.i,
        pair.j,
        pair.gt_m,
        pair.gt_m_inv,
        task,
        config.weights,
        config.optim,
        mode=config.mode,
    )
    pred = apply_task(pair.i, params, task)
    report = evaluate_labels(pred, pair.labels_i)
    return End2EndResult(params=params, trace=trace, pred_labels=pred, report=report)
