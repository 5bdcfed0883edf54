#!/usr/bin/env python3
"""Transform-recovery benchmark: accuracy and runtime of full-mode registration.

Draws seeded random rigid offsets (rotation and translation bounded on the
command line), builds a two-view phantom pair for each, registers in full
mode, and reports the worst per-axis rotation error in degrees and
translation error in voxels, plus wall time per pair. With the default
flags the pairs are criterion 4's.
"""

import argparse
import time

import numpy as np

from rigidda.engine import register_pair
from rigidda.errors import ValidationError
from rigidda.experiments import fast_optim, recovery_case, recovery_error
from rigidda.losses import LossWeights


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--iso", type=float, default=1.5)
    parser.add_argument("--max-rot-deg", type=float, default=30.0, help="per Euler angle, in [0, 90)")
    parser.add_argument("--max-trans-mm", type=float, default=15.0)
    parser.add_argument("--max-steps", type=int, default=350)
    args = parser.parse_args()

    results = []
    for seed in range(args.pairs):
        try:
            pair, _, task = recovery_case(seed, args.grid, args.iso, args.max_rot_deg, args.max_trans_mm)
        except ValidationError as exc:
            parser.error(str(exc))
        start = time.perf_counter()
        params, trace = register_pair(
            pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1),
            fast_optim(seed, args.max_steps), mode="full",
        )
        elapsed = time.perf_counter() - start
        ang_err, t_err = (e.max() for e in recovery_error(pair, params))
        results.append((ang_err, t_err, elapsed))
        print(
            f"pair {seed}: rot err {ang_err:6.3f} deg, trans err {t_err:6.3f} vox, "
            f"{len(trace.rows)} steps, {elapsed:5.1f}s"
        )

    ang, tr, times = map(np.asarray, zip(*results))
    print(
        f"\nworst: {ang.max():.3f} deg / {tr.max():.3f} vox; "
        f"median time {np.median(times):.1f}s, max {times.max():.1f}s"
    )
    ok = int(np.sum((ang < 2.0) & (tr < 1.0)))
    print(f"{ok}/{args.pairs} pairs within 2 deg and 1 voxel")


if __name__ == "__main__":
    main()
