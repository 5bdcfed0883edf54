"""End-to-end wiring: register, apply the task module, back-transform, evaluate.

Applying the task runs on two threads where two CPUs are usable: both warps,
the slab-wise segmentation, the post-processing and the evaluation each hand
their slabs or classes to ``interp.two_thread_map``. The warps and the
segmentation work only inside the windows where the task's labels can be
foreground.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .engine import RegistrationTrace, register_pair
from .errors import ValidationError
from .interp import argmax_channels, slab_bounds, slab_windows, two_thread_map
from .io import read_volume, write_volume
from .metrics import MetricReport, evaluate_labels, postprocess_labels
from .phantom import PhantomPair, PhantomSpec, TaskModule
from .resampler import transform_labels, transform_volume
from .rigid import RigidParams, euler_to_affine, read_transform, write_transform
from .volume import LabelVolume, Volume

# the volumes of a pair directory, in PhantomPair's field order, and their kinds
PAIR_VOLUMES = (("I.nii", Volume), ("J.nii", Volume), ("labels_I.nii", LabelVolume), ("labels_J.nii", LabelVolume))


def apply_task(
    ax: Volume,
    params: RigidParams,
    task: TaskModule,
    post: bool = True,
) -> LabelVolume:
    """Segment in the task frame and bring the labels back to the axial grid.

    Each slab of ``slab_bounds`` is worked on only inside the task's
    ``support`` window, outside which its labels are class 0: the axial
    volume is transformed there with M_t, the task module gives class
    probabilities there (through ``task.restrict``, two slabs at a time)
    and hard labels are taken per voxel, every other voxel being class 0.
    The labels are back-transformed with M_t^-1, which samples only where
    they can reach (``transform_labels``), and post-processed.
    """
    g = ax.geometry
    if task.geometry.shape != g.shape:
        raise ValidationError(f"task module built for grid {task.geometry.shape}, got {g.shape}")
    mats = euler_to_affine(params)
    bounds = slab_bounds(g.shape)
    windows = [task.support(z0, z1) for z0, z1 in bounds]
    i_t = transform_volume(ax, mats.m_t, g, windows).image.data
    hard = np.zeros(g.shape, dtype=np.int16)

    def segment(item):
        (z0, z1), window = item
        x0, x1, y0, y1 = window
        part = task.restrict(z0, z1, window)
        q = part.evaluate(Volume.trusted(part.geometry, np.ascontiguousarray(i_t[x0:x1, y0:y1, z0:z1])))
        hard[x0:x1, y0:y1, z0:z1] = argmax_channels(q.q)

    two_thread_map(segment, slab_windows(g.shape, windows))
    back = transform_labels(LabelVolume(g, hard), mats.m_t_inv, g)
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
