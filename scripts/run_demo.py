#!/usr/bin/env python3
"""End-to-end demo on a synthetic phantom pair.

Generates a two-view phantom pair with a known rigid offset, registers it
in the requested mode, segments through the task frame, evaluates against
the exact labels, and writes every artifact into the output directory: the
pair directory (volumes, gtM.json, spec.json), which ``rigidda end2end
--pair-dir`` reads back, and the run's trace CSV, transform JSON, predicted
labels and metric report.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from rigidda.engine import MODES
from rigidda.errors import ValidationError
from rigidda.experiments import fast_config
from rigidda.phantom import AnalyticSegmenter, PhantomSpec, make_pair, world_rigid
from rigidda.pipeline import run_end2end, save_pair_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_output")
    parser.add_argument("--mode", choices=MODES, default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=int, default=48, help="cubic grid side")
    parser.add_argument("--iso", type=float, default=2.0, help="isotropic spacing in mm")
    parser.add_argument("--max-steps", type=int, default=150)
    args = parser.parse_args()

    try:
        config = fast_config(args.mode, args.seed, args.max_steps)
        rng = np.random.default_rng(args.seed)
        angles = rng.uniform(-0.3, 0.3, 3)
        trans = rng.uniform(-8.0, 8.0, 3)
        rel = world_rigid(tuple(angles), tuple(trans))
        spec = PhantomSpec()

        print(f"generating pair: angles {np.degrees(angles).round(1)} deg, translation {trans.round(1)} mm")
        pair = make_pair(spec, rel, grid=(args.grid,) * 3, iso=args.iso, seed=args.seed)
        task = AnalyticSegmenter(spec, pair.i.geometry)

        start = time.perf_counter()
        result = run_end2end(pair, task, config)
        elapsed = time.perf_counter() - start
    except ValidationError as exc:
        parser.error(str(exc))

    out = Path(args.out_dir)
    save_pair_dir(pair, spec, out)
    result.save(out)

    print(f"mode {args.mode}: {len(result.trace.rows)} steps in {elapsed:.1f}s")
    print(result.report.to_json())
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
