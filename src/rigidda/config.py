"""Pipeline configuration with JSON-schema validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema

from .engine import OptimConfig
from .errors import ValidationError
from .losses import LossWeights


def _load_schema() -> dict:
    text = resources.files("rigidda").joinpath("schemas/pipeline_config.schema.json").read_text()
    return json.loads(text)


def _finite(parse):
    """A json.loads number hook: NaN, +-Infinity, 1e400 and integers beyond the
    float range pass every schema bound, and the optimizer cannot use them."""

    def check(text: str):
        if not math.isfinite(float(text)):
            raise ValidationError(f"config number {text} does not fit a finite float")
        return parse(text)

    return check


@dataclass
class PipelineConfig:
    """What a registration run takes from a config file: its seed, mode, loss weights
    and optimizer settings. The schema rejects any other key."""

    seed: int = 0
    mode: str = "full"
    weights: LossWeights = field(default_factory=LossWeights)
    optim: OptimConfig = field(default_factory=OptimConfig)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        try:
            raw = json.loads(text, parse_constant=_finite(float), parse_float=_finite(float), parse_int=_finite(int))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        try:
            jsonschema.validate(raw, _load_schema())
        except jsonschema.ValidationError as exc:
            raise ValidationError(f"config rejected by schema: {exc.message}") from exc
        cfg = cls(
            **{key: raw[key] for key in ("seed", "mode") if key in raw},
            weights=LossWeights(**raw.get("weights", {})),
            optim=OptimConfig(**raw.get("optim", {})),
        )
        # pipeline seed is the single source of randomness unless overridden
        if "seed" not in raw.get("optim", {}):
            cfg.optim.seed = cfg.seed
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_json(Path(path).read_text())
