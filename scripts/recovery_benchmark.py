#!/usr/bin/env python3
"""Transform-recovery benchmark: accuracy and runtime of full-mode registration.

Runs ``rigidda.experiments.recover`` on seeded random rigid offsets
(rotation and translation bounded on the command line) and reports the
worst per-axis rotation error in degrees and translation error in voxels,
plus wall time per pair. With the default flags the pairs are criterion 4's;
``--first`` starts at a later draw, so ``--first 10 --pairs 20`` runs
held-out draws 10-29.
"""

import argparse

import numpy as np

from rigidda.errors import ValidationError
from rigidda.experiments import recover


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first", type=int, default=0, help="index of the first draw")
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--iso", type=float, default=1.5)
    parser.add_argument("--max-rot-deg", type=float, default=30.0, help="per Euler angle, in [0, 90)")
    parser.add_argument("--max-trans-mm", type=float, default=15.0)
    parser.add_argument("--max-steps", type=int, default=350)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if args.first < 0:
        parser.error(f"--first must be at least 0, got {args.first}")

    draw = dict(grid=args.grid, iso=args.iso, max_rot_deg=args.max_rot_deg, max_trans_mm=args.max_trans_mm)
    results = []
    try:
        for seed in range(args.first, args.first + args.pairs):
            run = recover(seed, args.max_steps, **draw)
            ang_err, t_err = run.ang_err.max(), run.t_err.max()
            results.append((ang_err, t_err, run.seconds))
            print(
                f"pair {seed}: rot err {ang_err:6.3f} deg, trans err {t_err:6.3f} vox, "
                f"{run.steps} steps, {run.seconds:5.1f}s"
            )
    except ValidationError as exc:
        parser.error(str(exc))

    ang, tr, times = map(np.asarray, zip(*results))
    print(
        f"\nworst: {ang.max():.3f} deg / {tr.max():.3f} vox; "
        f"median time {np.median(times):.1f}s, max {times.max():.1f}s"
    )
    ok = int(np.sum((ang < 2.0) & (tr < 1.0)))
    print(f"{ok}/{args.pairs} pairs within 2 deg and 1 voxel")


if __name__ == "__main__":
    main()
