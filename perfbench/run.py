#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload recover-64 --seed 1 --seconds 15 --trace 0

One process, one thread, a closed loop of one unit at a time. The program
is imported from ``src/`` next to this directory. The BLAS and OpenMP pools
are pinned to one thread before numpy is imported. The inputs are built
several times and the median build time is ``setup_s``. One untimed
warm-up follows; then whole rounds of the workload's fixed case list run
until ``--seconds`` have passed. ``--seed`` sets the order of the cases in
each round. ``--case-seed`` sets the draws; its default is the acceptance
gate's. With ``--trace 1`` each unit runs once untraced and once traced,
and the per-layer metrics and the tracing overhead are printed in place of
the end-to-end ones. Result and span files go to
``perfbench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_results"
SETUP_REPEATS = 3
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("setup_s", "s"),
    ("unit_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("dice_lv", "ratio"),
    ("dice_myo", "ratio"),
    ("dice_rv", "ratio"),
)


def log(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("recover-64", "modes-48", "apply-64"))
    p.add_argument("--seed", type=int, default=0, help="order of the cases within a round")
    p.add_argument("--seconds", type=float, default=15.0, help="measure whole rounds until this much time passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--case-seed", type=int, default=None, help="base seed of the case draws (default: the gate's)")
    return p.parse_args(argv)


def load_program():
    """Import rigidda from this checkout's src/, never from anywhere else."""
    if not (SRC / "rigidda" / "__init__.py").is_file():
        log(f"no program source under {SRC}")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import rigidda

    if Path(rigidda.__file__).resolve().parent != SRC / "rigidda":
        log(f"imported rigidda from {rigidda.__file__}, not from {SRC}")
        sys.exit(2)


def timed_unit(wl, case, tracer=None, label=None):
    """One unit and its wall time; with a tracer, wrapped only for this unit."""
    if tracer is not None:
        tracer.install()
        tracer.unit = label
    try:
        t0 = time.perf_counter()
        out = wl.unit(case)
        return out, time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.unit = None
            tracer.remove()


def run_rounds(wl, cases, order, seconds, first, tracer=None):
    """Whole rounds of the case list until ``seconds`` passed; checks every unit.

    With a tracer, each case runs once untraced and once traced, the two
    in turn first, so drift of the machine's speed and warm caches fall on
    both sides of the tracing overhead alike; the rounds then last twice
    ``seconds``. ``first`` maps a case key to the
    summary of its first unit, which every later unit of that case must
    repeat exactly.
    """
    passes = (False,) if tracer is None else (False, True)
    times = {False: [], True: []}
    summaries, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds * len(passes):
        for k, i in enumerate(order):
            case = cases[i]
            for traced in passes[:: 1 if k % 2 == 0 else -1]:
                attempted += 1
                try:
                    out, elapsed = timed_unit(wl, case, tracer if traced else None, ("unit", attempted))
                except Exception as exc:  # a unit that raises counts as failed; keep measuring
                    failed += 1
                    problems.append(f"case {case.key}: {type(exc).__name__}: {exc}")
                    continue
                times[traced].append(elapsed)
                summary = wl.summary(out)
                errs = wl.check_unit(case, out)
                if case.key in first:
                    ref = first[case.key]
                    if (summary["dice"], summary["steps"]) != (ref["dice"], ref["steps"]):
                        errs.append(f"Dice or steps differ from the first unit of case {case.key}")
                else:
                    first[case.key] = summary
                    case.cache["out"] = out
                if errs:
                    failed += 1
                    problems += [f"case {case.key}: {e}" for e in errs]
                if traced:
                    summaries.append(summary)
    return times[False], times[True], summaries, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    load_program()
    import numpy as np

    from tracer import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    base = wl.default_base if args.case_seed is None else args.case_seed
    tracer = Tracer() if args.trace else None

    setup_times = []
    cases = None
    for rep in range(SETUP_REPEATS):
        cases = None  # let the previous build go before timing the next
        if tracer is not None:
            tracer.install()
            tracer.unit = ("setup", rep)
        try:
            t0 = time.perf_counter()
            cases = wl.build(base)
            setup_times.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.unit = None
                tracer.remove()

    wl.warm_up(cases[0])
    order = np.random.default_rng(args.seed).permutation(len(cases))
    first: dict = {}
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    times, traced_times, summaries, attempted, failed, problems = run_rounds(
        wl, cases, order, args.seconds, first, tracer
    )
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    ordered = sorted(cases, key=lambda c: c.key)
    complete = len(first) == len(cases)
    figures = wl.round_figures(ordered, first) if complete else {}
    round_problems = wl.check_round(figures) if complete else ["a case produced no output"]
    accepted = wl.negative_controls(ordered[0], ordered[0].cache["out"], figures) if complete else []
    for msg in problems + round_problems:
        log(f"check failed: {msg}")
    for msg in accepted:
        log(f"negative control not rejected: {msg}")
    correct = not round_problems and not accepted

    if tracer is not None:
        metrics = per_layer_metrics(tracer, summaries, traced_times, times)
    else:
        dice = np.mean([first[c.key]["dice"] for c in ordered], axis=0) if first else [0.0] * 3
        values = {
            "setup_s": statistics.median(setup_times),
            "unit_ms": 1e3 * statistics.median(times) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "dice_lv": float(dice[0]),
            "dice_myo": float(dice[1]),
            "dice_rv": float(dice[2]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "case_seed": base,
        "order": [cases[i].key for i in order],
        "setup_times_s": setup_times,
        "unit_times_s": times,
        "traced_unit_times_s": traced_times,
        "cpu_per_wall": cpu_share,
        "cases": {str(k): {"dice": s["dice"], "steps": s["steps"], "converged": s["converged"]} for k, s in sorted(first.items())},
        "round": figures,
        "problems": problems + round_problems,
        "controls_accepted": accepted,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json")
    log(f"{attempted} units, {failed} failed, cpu/wall {cpu_share:.2f}, details in {OUT / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
