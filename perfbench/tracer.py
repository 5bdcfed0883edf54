"""In-memory spans around the program's public functions, and the per-layer metrics.

Each function is wrapped where its caller looks it up (a module attribute
such as ``rigidda.engine.transform_volume_with_tape``, or a class method),
so the program itself is not changed. A span records its name, start, end,
parent and the unit it belongs to; self time is its duration minus the
time its child spans cover. Spans are kept in lists and written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

# bytes a kernel must move per sample, from array sizes: the three float64
# index coordinates and eight gathered corners read, and its outputs written
TRILINEAR_BYTES = (3 + 8 + 1) * 8
TRILINEAR_GRAD_BYTES = (3 + 8 + 4) * 8

UNIT_SELF_MS = (
    "engine.register_pair",
    "engine.adam_step",
    "rigid.euler_to_affine",
    "rigid.affine_jacobian",
    "resampler.transform_volume_with_tape",
    "resampler.SampleTape.vjp",
    "resampler.transform_volume",
    "resampler.transform_labels",
    "interp.trilinear_with_grad",
    "interp.trilinear",
    "losses.focus",
    "phantom.AnalyticSegmenter.evaluate",
    "phantom.AnalyticSegmenter.gradient",
    "pipeline.apply_task",
    "metrics.postprocess_labels",
    "metrics.evaluate_labels",
)
SETUP_SELF_MS = ("phantom.make_pair", "volume.resample_isotropic", "volume.preprocess_labels")
STEP_MODES = ("baseline", "cycle", "full")

# every per-layer metric with its unit and better direction, in output order
PER_LAYER = (
    [
        ("engine.steps", "count", "lower"),
        ("engine.converged_fraction", "ratio", "higher"),
    ]
    + [(f"engine.step_ms.{m}", "ms", "lower") for m in STEP_MODES]
    + [(f"{n}.self_ms", "ms", "lower") for n in UNIT_SELF_MS]
    + [
        ("resampler.valid_fraction", "ratio", "higher"),
        ("interp.samples", "count", "lower"),
        ("interp.msamples_per_s", "Msamples/s", "higher"),
        ("interp.mb_computed", "MB", "lower"),
    ]
    + [(f"{n}.self_ms", "ms", "lower") for n in SETUP_SELF_MS]
    + [
        ("phantom.AnalyticSegmenter.init_ms", "ms", "lower"),
        ("trace.unit_ms.traced", "ms", "lower"),
        ("trace.unit_ms.untraced", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


class Tracer:
    """Span recorder; spans open only while ``unit`` names a unit or a set-up."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.children: list[float] = []  # time covered by direct child spans
        self.units: list[tuple] = []
        self.counts: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.unit: tuple | None = None
        self._saved: list[tuple] = []

    def wrap(self, fn, name, count=None):
        """``name`` is a span name, or a function of the call's arguments giving one."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.unit is None:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name if isinstance(name, str) else name(args))
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.children.append(0.0)
            tracer.units.append(tracer.unit)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.ends[idx] = end
                tracer.stack.pop()
                parent = tracer.parents[idx]
                if parent >= 0:
                    tracer.children[parent] += end - tracer.starts[idx]
            if count is not None:
                tracer.counts[idx] = count(args, out)
            return out

        return traced

    def install(self):
        """Wrap every lookup site; ``remove`` puts the originals back."""
        for owner, attr, name, count in _sites():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, count))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_time(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx] - self.children[idx]

    def dump(self, path):
        spans = [
            {
                "name": self.names[k],
                "unit": list(self.units[k]),
                "parent": self.parents[k],
                "start": self.starts[k],
                "end": self.ends[k],
                "self": self.self_time(k),
                **({"count": list(self.counts[k])} if k in self.counts else {}),
            }
            for k in range(len(self.names))
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans}, fh)


def _samples(bytes_per_sample):
    return lambda args, out: (args[1].size, args[1].size * bytes_per_sample)


def _validity(args, out):
    v = out.result.validity
    return (int(v.sum()), v.size)


def _sites():
    """(owner, attribute, span name, counter) for each place a caller looks a function up."""
    from rigidda import engine, metrics, phantom, pipeline, resampler, volume

    focus = "losses.focus"
    return [
        (pipeline, "run_end2end", "pipeline.run_end2end", None),
        (pipeline, "register_pair", "engine.register_pair", None),
        (pipeline, "apply_task", "pipeline.apply_task", None),
        (pipeline, "transform_volume", "resampler.transform_volume", None),
        (pipeline, "transform_labels", "resampler.transform_labels", None),
        (pipeline, "euler_to_affine", "rigid.euler_to_affine", None),
        (pipeline, "postprocess_labels", "metrics.postprocess_labels", None),
        (pipeline, "evaluate_labels", "metrics.evaluate_labels", None),
        (metrics, "evaluate_labels", "metrics.evaluate_labels", None),
        (engine, "adam_step", "engine.adam_step", None),
        (engine, "euler_to_affine", "rigid.euler_to_affine", None),
        (engine, "affine_jacobian", "rigid.affine_jacobian", None),
        (engine, "transform_volume", "resampler.transform_volume", None),
        (engine, "transform_volume_with_tape", "resampler.transform_volume_with_tape", _validity),
        (engine, "focus_exact", focus, None),
        (engine, "focus_smooth", focus, None),
        (engine, "focus_smooth_upstream", focus, None),
        (engine.PairObjective, "__call__", lambda args: f"engine.step.{args[0].mode}", None),
        (resampler, "trilinear", "interp.trilinear", _samples(TRILINEAR_BYTES)),
        (resampler, "trilinear_with_grad", "interp.trilinear_with_grad", _samples(TRILINEAR_GRAD_BYTES)),
        (resampler.SampleTape, "vjp", "resampler.SampleTape.vjp", None),
        (phantom, "make_pair", "phantom.make_pair", None),
        (phantom, "resample_isotropic", "volume.resample_isotropic", None),
        (phantom, "preprocess_labels", "volume.preprocess_labels", None),
        (volume, "resample_isotropic", "volume.resample_isotropic", None),
        (phantom.AnalyticSegmenter, "__init__", "phantom.AnalyticSegmenter.init", None),
        (phantom.AnalyticSegmenter, "evaluate", "phantom.AnalyticSegmenter.evaluate", None),
        (phantom.AnalyticSegmenter, "gradient", "phantom.AnalyticSegmenter.gradient", None),
    ]


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, summaries: list[dict], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Medians per unit (per set-up for the set-up layers); 0 where a layer does not run.

    ``summaries`` holds the program's own counts for each traced unit:
    registration steps and steps before convergence.
    """
    groups: dict[tuple, list[int]] = {}
    for k, unit in enumerate(tracer.units):
        groups.setdefault(unit, []).append(k)
    units = [g for u, g in groups.items() if u[0] == "unit"]
    setups = [g for u, g in groups.items() if u[0] == "setup"]

    def self_ms(group, name):
        return 1e3 * sum(tracer.self_time(k) for k in group if tracer.names[k] == name)

    values = {
        "engine.steps": _median([s["steps"] for s in summaries]),
        "engine.converged_fraction": _median([s["converged"] / s["steps"] for s in summaries if s["steps"]]),
    }
    for mode in STEP_MODES:
        per_unit = []
        for g in units:
            steps = [tracer.ends[k] - tracer.starts[k] for k in g if tracer.names[k] == f"engine.step.{mode}"]
            if steps:
                per_unit.append(1e3 * sum(steps) / len(steps))
        values[f"engine.step_ms.{mode}"] = _median(per_unit)
    for name in UNIT_SELF_MS:
        values[f"{name}.self_ms"] = _median([self_ms(g, name) for g in units])

    valid, samples, mb, rate = [], [], [], []
    for g in units:
        taped = [tracer.counts[k] for k in g if tracer.names[k] == "resampler.transform_volume_with_tape"]
        if taped:
            valid.append(sum(c[0] for c in taped) / sum(c[1] for c in taped))
        kernel = [k for k in g if tracer.names[k] in ("interp.trilinear", "interp.trilinear_with_grad")]
        n = sum(tracer.counts[k][0] for k in kernel)
        busy = sum(tracer.self_time(k) for k in kernel)
        samples.append(n)
        mb.append(sum(tracer.counts[k][1] for k in kernel) / 1e6)
        rate.append(n / busy / 1e6 if busy > 0 else 0.0)
    values["resampler.valid_fraction"] = _median(valid)
    values["interp.samples"] = _median(samples)
    values["interp.msamples_per_s"] = _median(rate)
    values["interp.mb_computed"] = _median(mb)

    for name in SETUP_SELF_MS:
        values[f"{name}.self_ms"] = _median([self_ms(g, name) for g in setups])
    values["phantom.AnalyticSegmenter.init_ms"] = _median(
        [
            1e3 * sum(tracer.ends[k] - tracer.starts[k] for k in g if tracer.names[k] == "phantom.AnalyticSegmenter.init")
            for g in setups
        ]
    )
    traced_ms = 1e3 * _median(traced_s)
    untraced_ms = 1e3 * _median(untraced_s)
    values["trace.unit_ms.traced"] = traced_ms
    values["trace.unit_ms.untraced"] = untraced_ms
    values["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}
