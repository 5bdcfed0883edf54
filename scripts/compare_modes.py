#!/usr/bin/env python3
"""Mode-ordering experiment on the apex-cropping phantom family.

Each family member shifts the phantom toward the bottom grid border (the
apex slices fall off the volume) and acquires the first view with thick
slices, so the three optimization modes see strictly increasing amounts of
information: forward MSE only (baseline), both cycle directions (cycle),
and cycle plus the probability-guided focus term (full). The script prints,
over ``rigidda.experiments.ablate``, mean Dice per class and the mean exact
focus loss per mode. With the default flags the family is criterion 5's;
``--first`` starts at a later draw.
"""

import argparse
import time

from rigidda.errors import ValidationError
from rigidda.experiments import ABLATION_MODES, ablate

CLASS_LABELS = ("LV", "MYO", "RV")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first", type=int, default=0, help="index of the first draw")
    parser.add_argument("--grid", type=int, default=48)
    parser.add_argument("--iso", type=float, default=2.0)
    parser.add_argument("--slice-mm", type=float, default=12.0, help="first-view slice thickness")
    parser.add_argument("--max-steps", type=int, default=100)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    if args.first < 0:
        parser.error(f"--first must be at least 0, got {args.first}")

    runs = []
    start = time.perf_counter()
    try:
        for seed in range(args.first, args.first + args.seeds):
            runs.append(ablate(seed, args.max_steps, grid=args.grid, iso=args.iso, slice_mm=args.slice_mm))
            for mode, run in runs[-1].items():
                print(
                    f"seed {seed} {mode:8s} dice "
                    + " ".join(f"{n}={d:.3f}" for n, d in zip(CLASS_LABELS, run.dice))
                )
    except ValidationError as exc:
        parser.error(str(exc))

    print(f"\nmeans over {args.seeds} seeds ({time.perf_counter() - start:.0f}s):")
    header = " ".join(f"{n:>7s}" for n in CLASS_LABELS)
    print(f"{'mode':10s} {header} {'focus':>8s}")
    for mode in ABLATION_MODES:
        dice = sum(run[mode].dice for run in runs) / args.seeds
        focus = sum(run[mode].focus for run in runs) / args.seeds
        print(f"{mode:10s} " + " ".join(f"{d:7.4f}" for d in dice) + f" {focus:8.4f}")


if __name__ == "__main__":
    main()
