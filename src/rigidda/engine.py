"""Per-pair optimization of the 9 rigid parameters by gradient descent.

This is the desk-scale stand-in for a learned localisation network: the
same objective (cycle loss plus focus loss) is minimized directly per
image pair with Adam, reduce-on-plateau learning-rate decay and early
stopping. Both branches share the rotation; its gradient accumulates from
the cycle path (through M and M^-1) and the focus path (through M_t).
"""

from __future__ import annotations

import contextlib
import csv
import logging
import multiprocessing
import signal
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError, check_numbers
from .interp import _usable_cpus, slab_bounds
from .losses import (
    LossReport,
    LossWeights,
    focus_exact,
    focus_smooth,
    focus_smooth_upstream,
    in_plane_weight,
)
from .phantom import TaskModule
from .resampler import target_coords, transform_volume, transform_volume_with_tape
from .rigid import N_PARAMS, RigidParams, affine_jacobian, euler_to_affine
from .volume import FOREGROUND_CLASSES, GridGeometry, Volume

log = logging.getLogger(__name__)

MODES = ("baseline", "cycle", "cycle+focus", "full")
FOCUS_MODES = ("cycle+focus", "full")  # the modes whose objective has the task branch

TRACE_COLUMNS = (
    "step",
    "lr",
    "loss_total",
    "loss_cycle_fwd",
    "loss_cycle_bwd",
    "loss_focus_exact",
    "loss_focus_smooth",
    "phi",
    "theta",
    "psi",
    "tx",
    "ty",
    "tz",
    "txt",
    "tyt",
    "tzt",
)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimConfig:
    lr0: float = 1e-3
    plateau_factor: float = 0.3
    plateau_patience: int = 5  # epochs without gain before one lr decay
    lr_min: float = 1e-8
    stop_patience: int = 10  # epochs without gain before stopping
    epoch_steps: int = 25  # optimizer steps per scheduler "epoch"
    max_steps: int = 1000
    seed: int = 0
    min_delta: float = 1e-6  # improvement below this counts as "no gain"

    def __post_init__(self):
        # each check is written so that NaN fails it
        check_numbers(self, "optim")
        if not self.lr0 > 0:
            raise ValidationError(f"initial learning rate must be positive, got {self.lr0}")
        if not 0 < self.plateau_factor < 1:
            raise ValidationError("plateau factor must be in (0, 1)")
        if not 0 <= self.lr_min <= self.lr0:
            raise ValidationError(f"minimal learning rate must be in [0, lr0], got {self.lr_min}")
        if min(self.epoch_steps, self.max_steps, self.plateau_patience, self.stop_patience) < 1:
            raise ValidationError("epoch and step counts must be positive")
        if self.seed < 0:
            raise ValidationError(f"optimizer seed must be non-negative, got {self.seed}")
        if not self.min_delta >= 0:
            raise ValidationError(f"min_delta must be non-negative, got {self.min_delta}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(p: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """Standard Adam update; mutates ``state`` in place, returns new params."""
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient in Adam step")
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    return p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class PlateauScheduler:
    """Reduce-on-plateau with a floor; fed once per epoch with the epoch loss."""

    def __init__(self, cfg: OptimConfig):
        self.cfg = cfg
        self.lr = cfg.lr0
        self.best = np.inf
        self.bad_epochs = 0

    def epoch_end(self, loss: float) -> float:
        if loss < self.best - self.cfg.min_delta:
            self.best = loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.cfg.plateau_patience:
                self.lr = max(self.cfg.lr_min, self.lr * self.cfg.plateau_factor)
                self.bad_epochs = 0
        return self.lr


class EarlyStopper:
    """Stops after ``stop_patience`` epochs without best-loss improvement."""

    def __init__(self, cfg: OptimConfig):
        self.cfg = cfg
        self.best = np.inf
        self.bad_epochs = 0

    def epoch_end(self, loss: float) -> bool:
        if loss < self.best - self.cfg.min_delta:
            self.best = loss
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.cfg.stop_patience


@dataclass
class TraceRow:
    step: int
    lr: float
    report: LossReport
    params: np.ndarray


@dataclass
class RegistrationTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow):
        self.rows.append(row)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for row in self.rows:
                rep = row.report
                writer.writerow(
                    [
                        row.step,
                        repr(row.lr),
                        repr(rep.total),
                        repr(rep.cycle_fwd),
                        repr(rep.cycle_bwd),
                        repr(rep.focus_exact),
                        repr(rep.focus_smooth),
                    ]
                    + [repr(v) for v in row.params]
                )


@dataclass(frozen=True)
class _Slab:
    """Whole target slices z0:z1 and the parts of the objective that do not change.

    ``cycle`` has one (fixed image, mask) pair per cycle branch: forward, then
    backward unless baseline. ``task`` is None without a focus branch.
    """

    geometry: GridGeometry
    coords: np.ndarray  # (4, n) homogeneous normalized coordinates in the whole grid
    cycle: list[tuple[np.ndarray, np.ndarray]]
    task: TaskModule | None


_FORK = "fork" in multiprocessing.get_all_start_methods()


def _worker_can_run() -> bool:
    """Two usable CPUs, and a process that may fork a worker (a daemonic one may not)."""
    return _FORK and _usable_cpus() >= 2 and not multiprocessing.current_process().daemon


class _SlabWorker:
    """A forked process that computes the odd terms of one objective, one step per request.

    It inherits the objective's frozen slabs, terms, volumes and task parts
    by copy-on-write, so a request is the step's matrices and a reply is the
    terms' loss sums, gradient parts and focus counts, a few kilobytes. It
    lives for one ``with`` block: leaving the block, by return or raise,
    stops and reaps it. A worker that died is reaped at once, and the caller
    computes its terms for the rest of the block.
    """

    def __init__(self, objective: "PairObjective"):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve, args=(objective, child_end, self.conn), name="rigidda-slabs", daemon=True
        )
        self.process.start()
        child_end.close()

    def __enter__(self) -> "_SlabWorker":
        return self

    def __exit__(self, *exc_info):
        self.close()

    def ask(self, mats, jac) -> bool:
        """Send one step's matrices; False if the worker is closed or gone, which is then reaped."""
        try:
            self.conn.send((mats, jac))
        except OSError:
            self.close()
            return False
        return True

    def answer(self) -> tuple[list, tuple | None] | None:
        """The worker's ``_share`` of the step asked for, or None if the worker died, which is then reaped."""
        try:
            return self.conn.recv()
        except Exception:  # EOF, a reset, or a reply that does not unpickle
            self.close()
            return None

    def close(self):
        """Ask the worker to exit and reap it; one that does not exit within 10 s is killed."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.conn.close()
        self.process.join(timeout=10)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()


def _worker_for(objective: "PairObjective"):
    """A ``_SlabWorker`` for ``objective``, or a context that gives None where one
    cannot help: one slab, one usable CPU, no ``fork`` or a daemonic process."""
    if len(objective.slabs) >= 2 and _worker_can_run():
        return _SlabWorker(objective)
    return contextlib.nullcontext()


def _serve(objective: "PairObjective", conn, parent_end):
    """The worker's loop: its share of each step asked for, until asked to stop or the parent is gone."""
    parent_end.close()  # the last copy outside the parent: its death now reads as EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is for the parent, which stops the worker
    try:
        while (request := conn.recv()) is not None:
            conn.send(objective._share(1, *request))
    except (EOFError, OSError):  # the parent is gone
        pass


class PairObjective:
    """Loss and analytic 9-parameter gradient for one preprocessed pair.

    The mode picks the branches once: the forward cycle MSE, the backward one
    unless baseline, the focus term in ``FOCUS_MODES``. A step runs slab by
    slab over whole target slices along z, the axis the in-plane weight and
    the task module treat slice-wise, so every temporary is slab-sized and
    the reported terms equal the whole-grid values.

    ``terms`` lists the step's work in the serial loop's order: each slab's
    forward and backward cycle terms, then its focus term. A cycle term
    whose slab of the fixed mask is all zero is left off: it would add +0.0
    to its sum of squares and ±0.0 to each gradient entry, which changes no
    bit of a sum that starts at +0.0, and the finite data of every ``Volume``
    rules out a NaN that the zero mask would have carried. ``outside``
    counts those slabs per cycle branch.

    A call given a ``_SlabWorker`` computes the even terms on the calling
    thread while the worker process computes the odd ones, so the focus
    terms fall to both in turn; every term is added in list order, so the
    bits are the serial loop's, which a call without a worker runs.
    ``_worker_for`` gives a worker where one can help, for the ``with``
    block of a run of calls; one worker serves one thread's calls.
    """

    def __init__(
        self,
        i_vol: Volume,
        j_vol: Volume | None,
        gt_m: np.ndarray,
        gt_m_inv: np.ndarray | None,
        task,
        weights: LossWeights,
        mode: str = "full",
    ):
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}; choose from {MODES}")
        if mode != "baseline" and (j_vol is None or gt_m_inv is None):
            raise ValidationError("cycle modes need the second volume and the inverse transform")
        if mode in FOCUS_MODES and task is None:
            raise ValidationError("focus modes need a task module")
        self.mode = mode
        self.i_vol = i_vol
        self.weights = weights
        # per cycle branch: the moving volume, its ground truth and the name of its
        # transform, M or M^-1, in euler_to_affine's set; its Jacobian is "d_" + name
        self.branches = [(i_vol, gt_m, "m"), (j_vol, gt_m_inv, "m_inv")][: 1 if mode == "baseline" else 2]
        target = i_vol.geometry
        self.n = target.num_voxels
        w_field = in_plane_weight(target) if mode == "full" else None
        fixed = [transform_volume(vol, gt, target) for vol, gt, _ in self.branches]
        fixed = [(f.image.data, f.validity if w_field is None else f.validity * w_field) for f in fixed]

        def cut(a, z0, z1):
            return np.ascontiguousarray(a[..., z0:z1])

        self.slabs = [
            _Slab(
                geometry=target.z_slab(z0, z1),
                coords=target_coords(target, z0, z1),
                cycle=[(cut(image, z0, z1), cut(mask, z0, z1)) for image, mask in fixed],
                task=task.restrict(z0, z1) if mode in FOCUS_MODES else None,
            )
            for z0, z1 in slab_bounds(target.shape)
        ]
        # (slab, cycle branch index, or None for the focus term)
        self.terms = []
        self.outside = [0] * len(self.branches)
        for slab in self.slabs:
            for b, (_, mask) in enumerate(slab.cycle):
                if np.any(mask):
                    self.terms.append((slab, b))
                else:
                    self.outside[b] += 1
            if slab.task is not None:
                self.terms.append((slab, None))

    def _mse_term(self, src: Volume, m: np.ndarray, d_m: np.ndarray, slab: _Slab, fixed, mask):
        """Warp one slab; its sum of squared masked differences and its part of the half-mean gradient."""
        tape = transform_volume_with_tape(src, m, slab.geometry, slab.coords)
        diff = tape.result.image.data - fixed
        diff *= mask
        sq = float(np.sum(diff * diff))
        diff *= mask
        diff /= self.n
        return sq, tape.vjp(d_m, diff)

    def _focus_term(self, slab: _Slab, mats, jac) -> tuple:
        """One slab's foreground count above r, its share of the smooth mean, and its focus gradient."""
        w = self.weights
        tape = transform_volume_with_tape(self.i_vol, mats.m_t, slab.geometry, slab.coords)
        image = tape.result.image
        q = slab.task.evaluate(image)
        n = slab.geometry.num_voxels
        share = n / self.n
        # focus_exact is 1 - count / size; the slab's count is recovered
        # exactly, so the whole-grid value is not an average of averages
        above = round((1.0 - focus_exact(q, w.r)) * len(FOREGROUND_CLASSES) * n)
        smooth = share * (1.0 - focus_smooth(q, w.r, w.tau))
        up_q = focus_smooth_upstream(q, w.r, w.tau)
        up_q *= share
        return above, smooth, tape.vjp(jac.d_m_t, slab.task.gradient(image, up_q, q))

    def _term(self, term, mats, jac) -> tuple:
        """A cycle term's ``(sum of squares, gradient)``, or a focus term's ``(count, smooth share, gradient)``."""
        slab, b = term
        if b is None:
            return self._focus_term(slab, mats, jac)
        vol, _, name = self.branches[b]
        return self._mse_term(vol, getattr(mats, name), getattr(jac, "d_" + name), slab, *slab.cycle[b])

    def _share(self, first: int, mats, jac) -> tuple[list, tuple | None]:
        """The results of every second term from ``first`` on, and the index and
        error of the term that raised, or None; the terms after it are not run."""
        results = []
        for k in range(first, len(self.terms), 2):
            try:
                results.append(self._term(self.terms[k], mats, jac))
            except Exception as exc:
                return results, (k, exc)
        return results, None

    def _all_terms(self, mats, jac, worker: _SlabWorker | None) -> list:
        """Every term's result, in list order; the odd terms come from ``worker`` while it runs."""
        if worker is None:
            return [self._term(term, mats, jac) for term in self.terms]
        try:
            sent = worker.ask(mats, jac)
            mine = self._share(0, mats, jac)
            theirs = worker.answer() if sent else None
        except BaseException:  # an interrupt may leave the worker's reply unread: no later call may read it
            worker.close()
            raise
        if theirs is None:  # the worker is gone: its terms are computed here, to the same bits
            theirs = self._share(1, mats, jac)
        # the error the serial loop would raise: the one of the first term that failed
        failures = [f for f in (mine[1], theirs[1]) if f is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        results = [None] * len(self.terms)
        results[0::2], results[1::2] = mine[0], theirs[0]
        return results

    def __call__(self, vec: np.ndarray, worker: _SlabWorker | None = None) -> tuple[LossReport, np.ndarray]:
        params = RigidParams.from_vector(vec)
        mats = euler_to_affine(params)
        jac = affine_jacobian(params)
        w = self.weights
        grad = np.zeros(N_PARAMS)
        sq = [0.0, 0.0]  # forward, backward; a baseline objective leaves the backward sum 0
        above = 0  # foreground entries above r, counted over the whole grid
        smooth = []  # each slab's share of the smooth focus mean

        # the serial sums, in term order: the bits do not depend on which process ran a term
        for (_, b), result in zip(self.terms, self._all_terms(mats, jac, worker)):
            if b is None:
                above_k, smooth_k, g_t = result
                above += above_k
                smooth.append(smooth_k)
                grad += w.alpha2 * g_t
            else:
                sq_k, g_k = result
                sq[b] += sq_k
                grad += w.alpha1 * g_k

        report = LossReport(
            cycle_fwd=0.5 * sq[0] / self.n, cycle_bwd=0.5 * sq[1] / self.n, alpha1=w.alpha1, alpha2=0.0
        )
        if smooth:
            report.focus_exact = 1.0 - above / (len(FOREGROUND_CLASSES) * self.n)
            report.focus_smooth = 1.0 - sum(smooth)
            report.alpha2 = w.alpha2
        return report, grad


def register_pair(
    i_vol: Volume,
    j_vol: Volume | None,
    gt_m: np.ndarray,
    gt_m_inv: np.ndarray | None,
    task,
    weights: LossWeights,
    cfg: OptimConfig,
    mode: str = "full",
) -> tuple[RigidParams, RegistrationTrace]:
    """Optimize the rigid parameters for one preprocessed pair.

    Modes without a task branch (``baseline``, ``cycle``) leave ``t_t`` at its
    initial draw, as the trace rows show: its gradient entries are exactly 0,
    and Adam does not move them. They return ``t_t = t``: their task
    transform M_t is the registration transform M.
    """
    objective = PairObjective(i_vol, j_vol, gt_m, gt_m_inv, task, weights, mode)
    n_slabs = len(objective.slabs)
    outside = ", ".join(f"{name} {k}/{n_slabs}" for name, k in zip(("forward", "backward"), objective.outside))
    log.info("%s objective: %s slabs outside the fixed view", mode, outside)
    with _worker_for(objective) as worker:
        return _optimize(objective, worker, cfg, mode)


def _optimize(
    objective: PairObjective, worker: _SlabWorker | None, cfg: OptimConfig, mode: str
) -> tuple[RigidParams, RegistrationTrace]:
    """``register_pair``'s Adam loop on a built objective, stepped with ``worker`` if one is given."""
    rng = np.random.default_rng(cfg.seed)
    vec = RigidParams.random_init(rng).to_vector()

    state = AdamState.zeros(N_PARAMS)
    scheduler = PlateauScheduler(cfg)
    stopper = EarlyStopper(cfg)
    trace = RegistrationTrace()
    lr = cfg.lr0
    best_vec = vec.copy()
    best_loss = np.inf
    epoch_losses: list[float] = []
    stop = "max_steps"

    for step in range(cfg.max_steps):
        report, grad = objective(vec, worker)
        total = report.total
        if not np.isfinite(total):
            raise NumericalError(f"loss diverged at step {step}")
        trace.append(TraceRow(step, lr, report, vec.copy()))
        if total < best_loss:
            best_loss = total
            best_vec = vec.copy()
        vec = adam_step(vec, grad, state, lr)
        epoch_losses.append(total)
        if len(epoch_losses) == cfg.epoch_steps:
            epoch_loss = float(np.mean(epoch_losses))
            epoch_losses.clear()
            log.info("epoch %d: mean loss %.6g, lr %.3g", (step + 1) // cfg.epoch_steps, epoch_loss, lr)
            lr = scheduler.epoch_end(epoch_loss)
            if stopper.epoch_end(epoch_loss):
                stop = "early stop"
                break
    log.info("%s registration: %d steps, stopped by %s, best loss %.6g", mode, len(trace.rows), stop, best_loss)

    if mode not in FOCUS_MODES:
        best_vec[6:] = best_vec[3:6]
    return RigidParams.from_vector(best_vec), trace
