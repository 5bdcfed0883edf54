"""Command-line front end.

Subcommands: phantom-gen, register, resample, eval, losses-check, apply,
end2end, and the experiments of ``rigidda.experiments``: recover (the
transform-recovery sweep), ablate (the baseline/cycle/full ablation) and
demo (one drawn pair end to end). Exit codes: 0 success, 2 validation
error, 3 numerical failure (a numpy overflow, division by zero or invalid
value among them), 4 I/O error. Set RIGIDDA_LOG=debug|info|warning for
verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import PipelineConfig, replace_settings
from .engine import FOCUS_MODES, MODES, PairObjective, register_pair
from .errors import NumericalError, RigiddaError, ValidationError
from .experiments import ABLATION_MODES, ablate, demo_case, demo_offset, fast_config, recover
from .io import read_volume, write_volume
from .losses import LossWeights
from .metrics import evaluate_labels, postprocess_labels
from .phantom import AnalyticSegmenter, PhantomSpec, make_pair
from .pipeline import apply_task, load_pair_dir, run_end2end, save_pair_dir
from .resampler import transform_labels, transform_volume
from .rigid import RigidParams, check_rigid, euler_to_affine, parse_matrix, read_transform, write_transform
from .volume import CLASS_NAMES, FOREGROUND_CLASSES, LabelVolume, Volume

log = logging.getLogger("rigidda")


def _setup_logging():
    # a level name maps to its number; any other text to the string "Level <text>"
    level = logging.getLevelName(os.environ.get("RIGIDDA_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING, format="%(levelname)s %(message)s")


def _finite_float(text: str, what: str) -> float:
    """One finite number, or a ValidationError naming ``what``."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {text!r}")
    return value


def _parse_floats(text: str, what: str) -> list[float]:
    """Comma-separated finite numbers; empty items are skipped."""
    return [_finite_float(p, what) for p in text.split(",") if p]


def _parse_params(text: str) -> RigidParams:
    """Nine comma-separated rigid parameters."""
    return RigidParams.from_vector(_parse_floats(text, "--params entry"))


def _parse_transform_arg(text: str) -> np.ndarray:
    """Either a path to a transform JSON, 9 comma-separated parameters or 16 matrix entries."""
    try:
        is_path = Path(text).exists()
    except OSError:  # a name too long for a path, as 16 entries written out in full are
        is_path = False
    if is_path:
        return read_transform(text)[0]
    values = _parse_floats(text, "--transform entry")
    if len(values) == 9:
        return euler_to_affine(RigidParams.from_vector(values)).m
    if len(values) == 16:
        return parse_matrix(values, "--transform")
    raise ValidationError("--transform expects a JSON file, 9 parameters, or 16 matrix entries")


def _parse_weights_arg(text: str | None, base: LossWeights | None = None) -> LossWeights:
    """``base`` (default: the default weights) with the named weights of ``text`` replaced."""
    values = {}
    for item in (text or "").split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValidationError(f"bad weights item {item!r}, expected name=value")
        name, value = item.split("=", 1)
        values[name.strip()] = _finite_float(value, f"weight {name.strip()}")
    return replace_settings(base or LossWeights(), values, "weights")


def _load_config(path: str | None, mode: str | None, weights: str | None = None) -> PipelineConfig:
    """The config file (or the defaults), then ``--mode`` and ``--weights`` where given."""
    config = PipelineConfig.from_file(path) if path else PipelineConfig()
    if mode:
        config.mode = mode
    if weights is not None:
        config.weights = _parse_weights_arg(weights, config.weights)
    return config


def _load_spec(path: str | None) -> PhantomSpec:
    """The phantom spec of ``--spec``, or the default spec without one."""
    return PhantomSpec.from_file(path) if path else PhantomSpec()


def cmd_phantom_gen(args) -> int:
    spec = _load_spec(args.spec)
    rel = check_rigid(read_transform(args.rel_transform)[0], "--rel-transform") if args.rel_transform else np.eye(4)
    pair = make_pair(spec, rel, grid=tuple(args.grid), iso=args.iso, seed=args.seed)
    save_pair_dir(pair, spec, args.out_dir)
    log.info("phantom pair written to %s", args.out_dir)
    return 0


def cmd_register(args) -> int:
    ax = read_volume(args.ax, Volume)
    sax = read_volume(args.sax, Volume) if args.sax else None
    gt_m, gt_m_inv = read_transform(args.gt_transform)
    config = _load_config(args.config, args.mode, args.weights)
    task = None
    if config.mode in FOCUS_MODES:
        if not args.spec:
            raise ValidationError("focus modes need --spec for the task module")
        task = AnalyticSegmenter(_load_spec(args.spec), ax.geometry)
    params, trace = register_pair(ax, sax, gt_m, gt_m_inv, task, config.weights, config.optim, mode=config.mode)
    if args.trace:
        trace.write_csv(args.trace)
    if args.dump_transform:
        write_transform(args.dump_transform, params)
    losses = [row.report.total for row in trace.rows]
    # params are the first step of least loss, with t_t = t in baseline and cycle mode
    summary = {"final_loss": losses[-1], "best_loss": min(losses), "stop": trace.stop}
    print(json.dumps({"params": params.to_vector().tolist(), **summary}))
    return 0


def cmd_resample(args) -> int:
    src = read_volume(args.input, LabelVolume if args.labels else Volume)
    target_like = read_volume(args.target_like) if args.target_like else src
    m = _parse_transform_arg(args.transform)
    if args.labels:
        out = transform_labels(src, m, target_like.geometry)
    else:
        out = transform_volume(src, m, target_like.geometry).image
    write_volume(out, args.output)
    return 0


def cmd_eval(args) -> int:
    pred = read_volume(args.pred, LabelVolume)
    truth = read_volume(args.truth, LabelVolume)
    if args.spacing_from:
        ref = read_volume(args.spacing_from)
        truth = LabelVolume(ref.geometry, truth.data)
        pred = LabelVolume(ref.geometry, pred.data)
    if args.post:
        pred = postprocess_labels(pred)
    report = evaluate_labels(pred, truth)
    if args.csv:
        import csv as _csv

        with open(args.csv, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["class", "dice", "hausdorff_mm", "excluded", "vol_pred_ml", "vol_truth_ml", "vol_diff_ml"])
            for cls, m in report.per_class.items():
                writer.writerow(
                    [cls, m.dice, m.hausdorff_mm, m.hausdorff_excluded, m.volume_pred_ml, m.volume_truth_ml, m.volume_diff_ml]
                )
    print(report.to_json())
    return 0


def cmd_losses_check(args) -> int:
    ax = read_volume(args.ax, Volume)
    sax = read_volume(args.sax, Volume)
    gt_m, gt_m_inv = read_transform(args.gt_transform)
    weights = _parse_weights_arg(args.weights)
    params = _parse_params(args.params)
    task = AnalyticSegmenter(_load_spec(args.spec), ax.geometry)
    report, _ = PairObjective(ax, sax, gt_m, gt_m_inv, task, weights, mode="full")(params.to_vector())
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_apply(args) -> int:
    ax = read_volume(args.ax, Volume)
    params = _parse_params(args.params)
    task = AnalyticSegmenter(_load_spec(args.spec), ax.geometry)
    labels = apply_task(ax, params, task, post=not args.no_post)
    write_volume(labels, args.output)
    return 0


def cmd_end2end(args) -> int:
    pair, spec = load_pair_dir(args.pair_dir)
    config = _load_config(args.config, args.mode)
    task = AnalyticSegmenter(spec, pair.i.geometry)
    result = run_end2end(pair, task, config)
    result.save(args.out_dir)
    print(result.report.to_json())
    return 0


def _draws(args) -> range:
    """The draw indices ``--first`` to ``--first + --count - 1``."""
    if args.count < 1:
        raise ValidationError(f"--count must be at least 1, got {args.count}")
    if args.first < 0:
        raise ValidationError(f"--first must be at least 0, got {args.first}")
    return range(args.first, args.first + args.count)


def _draw_flags(args) -> dict:
    """The sweep's flags given on the command line other than ``--count`` and ``--first``; a flag
    not given keeps its default in the signatures of ``rigidda.experiments``."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "count", "first")}


def cmd_recover(args) -> int:
    results = []
    for seed in _draws(args):
        run = recover(seed, **_draw_flags(args))
        ang_err, t_err = run.ang_err.max(), run.t_err.max()
        results.append((ang_err, t_err, run.seconds))
        print(
            f"pair {seed}: rot err {ang_err:6.3f} deg, trans err {t_err:6.3f} vox, "
            f"{run.steps} steps, {run.seconds:5.1f}s"
        )
    ang, tr, times = map(np.asarray, zip(*results))
    print(
        f"\nworst: {ang.max():.3f} deg / {tr.max():.3f} vox; "
        f"median time {np.median(times):.1f}s, max {times.max():.1f}s"
    )
    ok = int(np.sum((ang < 2.0) & (tr < 1.0)))
    print(f"{ok}/{args.count} pairs within 2 deg and 1 voxel")
    return 0


def cmd_ablate(args) -> int:
    names = [CLASS_NAMES[c] for c in FOREGROUND_CLASSES]
    runs = []
    start = time.perf_counter()
    for seed in _draws(args):
        runs.append(ablate(seed, **_draw_flags(args)))
        for mode, run in runs[-1].items():
            print(f"seed {seed} {mode:8s} dice " + " ".join(f"{n}={d:.3f}" for n, d in zip(names, run.dice)))
    print(f"\nmeans over {args.count} seeds ({time.perf_counter() - start:.0f}s):")
    header = " ".join(f"{n:>7s}" for n in names)
    print(f"{'mode':10s} {header} {'focus':>8s}")
    for mode in ABLATION_MODES:
        dice = sum(run[mode].dice for run in runs) / args.count
        focus = sum(run[mode].focus for run in runs) / args.count
        print(f"{mode:10s} " + " ".join(f"{d:7.4f}" for d in dice) + f" {focus:8.4f}")
    return 0


def cmd_demo(args) -> int:
    config = fast_config(args.mode, args.seed, args.max_steps)
    angles, trans = demo_offset(args.seed)
    print(f"generating pair: angles {np.degrees(angles).round(1)} deg, translation {trans.round(1)} mm")
    pair, spec, task = demo_case(args.seed, args.grid, args.iso)
    start = time.perf_counter()
    result = run_end2end(pair, task, config)
    elapsed = time.perf_counter() - start
    save_pair_dir(pair, spec, args.out_dir)
    result.save(args.out_dir)
    print(f"mode {args.mode}: {len(result.trace.rows)} steps in {elapsed:.1f}s")
    print(result.report.to_json())
    print(f"artifacts in {Path(args.out_dir)}/")
    return 0


CONFIG_HELP = "pipeline config JSON with seed, mode, weights and optim; other keys are rejected"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rigidda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom-gen", help="generate a synthetic phantom pair")
    p.add_argument("--spec", help="PhantomSpec JSON file")
    p.add_argument("--rel-transform", help="world rigid transform JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, nargs=3, default=[64, 64, 64])
    p.add_argument("--iso", type=float, default=1.5)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_phantom_gen)

    p = sub.add_parser("register", help="optimize rigid parameters for a pair")
    p.add_argument("--ax", required=True)
    p.add_argument("--sax")
    p.add_argument("--gt-transform", required=True)
    p.add_argument(
        "--weights",
        help="e.g. alpha1=1.0,alpha2=0.1; replaces the config's value of each named weight;"
        " alpha2, r and tau act only in the focus modes",
    )
    p.add_argument("--mode", choices=MODES, help="overrides the config's mode (default full)")
    p.add_argument("--spec", help="PhantomSpec JSON for the task module")
    p.add_argument("--config", help=CONFIG_HELP)
    p.add_argument("--trace", help="write the per-step trace CSV here")
    p.add_argument(
        "--dump-transform", help="write {params, m, m_inv, m_t, m_t_inv} here; baseline and cycle give t_t = t"
    )
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("resample", help="apply an affine transform to a volume")
    p.add_argument("--input", required=True)
    p.add_argument("--transform", required=True)
    p.add_argument("--target-like", help="volume providing the target grid")
    p.add_argument("--labels", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("eval", help="evaluate predicted labels against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--spacing-from", help="take the grid geometry from this volume")
    p.add_argument("--post", action="store_true", help="post-process the prediction first")
    p.add_argument("--csv", help="write per-class metric rows here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("losses-check", help="print an itemized loss report")
    p.add_argument("--ax", required=True)
    p.add_argument("--sax", required=True)
    p.add_argument("--gt-transform", required=True)
    p.add_argument("--params", required=True, help="9 comma-separated parameters")
    p.add_argument("--weights")
    p.add_argument("--spec")
    p.set_defaults(func=cmd_losses_check)

    p = sub.add_parser("apply", help="segment via the task frame and back-transform")
    p.add_argument("--ax", required=True)
    p.add_argument("--params", required=True, help="9 comma-separated parameters")
    p.add_argument("--spec")
    p.add_argument("--no-post", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("end2end", help="register, apply the task, evaluate")
    p.add_argument("--pair-dir", required=True)
    p.add_argument("--config", help=CONFIG_HELP)
    p.add_argument("--mode", choices=MODES, help="overrides the config's mode (default full)")
    p.add_argument(
        "--out-dir",
        required=True,
        help="gets trace.csv, pred_labels.nii, metrics.json and transform.json {params, m, m_inv, m_t, m_t_inv}",
    )
    p.set_defaults(func=cmd_end2end)

    # a draw flag not given is left out of the namespace, so the draw keeps its default in
    # rigidda.experiments: with no flags the sweeps run the gate's draws
    p = _sweep_parser(sub, "recover", "full-mode transform recovery on draws of criterion 4's kind", 10, cmd_recover)
    p.add_argument("--max-rot-deg", type=float, help="per Euler angle, in [0, 90)")
    p.add_argument("--max-trans-mm", type=float, help="per axis, at least 0")

    p = _sweep_parser(sub, "ablate", "baseline, cycle and full mode on criterion 5's apex draws", 5, cmd_ablate)
    p.add_argument("--slice-mm", type=float, help="first-view slice thickness")

    p = sub.add_parser("demo", help="draw a pair, run it end to end, write the pair and the run")
    p.add_argument("--out-dir", required=True, help="gets the pair directory and end2end's four files")
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=48, help="cubic grid side")
    p.add_argument("--iso", type=float, default=2.0, help="isotropic spacing in mm")
    p.add_argument("--max-steps", type=int, default=150)
    p.set_defaults(func=cmd_demo)

    return parser


def _sweep_parser(sub, name: str, help: str, count: int, func) -> argparse.ArgumentParser:
    """A sweep over draws ``--first`` to ``--first + --count - 1`` with the flags both sweeps take."""
    p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    p.add_argument("--count", type=int, default=count, help="number of draws")
    p.add_argument("--first", type=int, default=0, help="index of the first draw")
    p.add_argument("--grid", type=int, help="cubic grid side")
    p.add_argument("--iso", type=float, help="isotropic spacing in mm")
    p.add_argument("--max-steps", type=int)
    p.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a numpy overflow, division by zero or invalid value ends the run, not a warning and a wrong result
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (RigiddaError, FloatingPointError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, RigiddaError) else NumericalError.exit_code
    except OSError as exc:  # a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
