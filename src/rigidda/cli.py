"""Command-line front end.

Subcommands: phantom-gen, register, resample, eval, losses-check, apply,
end2end. Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 I/O error. Set RIGIDDA_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import PipelineConfig, replace_settings
from .engine import FOCUS_MODES, MODES, PairObjective, register_pair
from .errors import RigiddaError, ValidationError
from .io import read_volume, write_volume
from .losses import LossWeights
from .metrics import evaluate_labels, postprocess_labels
from .phantom import AnalyticSegmenter, PhantomSpec, make_pair
from .pipeline import apply_task, load_pair_dir, run_end2end, save_pair_dir
from .resampler import transform_labels, transform_volume
from .rigid import RigidParams, check_rigid, euler_to_affine, parse_matrix, read_transform, write_transform
from .volume import LabelVolume, Volume

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
    """Either a path to a transform JSON or 9 comma-separated parameters."""
    if Path(text).exists():
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


def cmd_phantom_gen(args) -> int:
    spec = PhantomSpec.from_file(args.spec) if args.spec else PhantomSpec()
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
        spec = PhantomSpec.from_file(args.spec)
        task = AnalyticSegmenter(spec, ax.geometry)
    params, trace = register_pair(ax, sax, gt_m, gt_m_inv, task, config.weights, config.optim, mode=config.mode)
    if args.trace:
        trace.write_csv(args.trace)
    if args.dump_transform:
        write_transform(args.dump_transform, params)
    print(json.dumps({"params": params.to_vector().tolist(), "final_loss": trace.rows[-1].report.total}))
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
    spec = PhantomSpec.from_file(args.spec) if args.spec else PhantomSpec()
    task = AnalyticSegmenter(spec, ax.geometry)
    report, _ = PairObjective(ax, sax, gt_m, gt_m_inv, task, weights, mode="full")(params.to_vector())
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_apply(args) -> int:
    ax = read_volume(args.ax, Volume)
    params = _parse_params(args.params)
    spec = PhantomSpec.from_file(args.spec) if args.spec else PhantomSpec()
    task = AnalyticSegmenter(spec, ax.geometry)
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

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RigiddaError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
