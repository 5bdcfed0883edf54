"""Pipeline configuration and its JSON reader.

The settings dataclasses (``PipelineConfig``, ``LossWeights``, ``OptimConfig``)
alone say which settings exist and which values are valid: each checks its
fields in ``__post_init__``, so an object built in Python is checked as one
read from a file. The reader adds what only JSON needs: finite numbers, an
object at the top and for each section, and no name that is not a field.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .engine import MODES, OptimConfig
from .errors import ValidationError
from .io import known_names, parse_json
from .losses import LossWeights


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object, got {json.dumps(value)}")
    return value


def replace_settings(base, values: dict, section: str):
    """``base`` with the settings named in ``values`` replaced; a name that is not
    a field of ``base`` is rejected, and the dataclass checks the values."""
    known_names(values, [f.name for f in dataclasses.fields(base)], f"{section} setting")
    return dataclasses.replace(base, **values)


@dataclass
class PipelineConfig:
    """What a registration run takes from a config file: its mode, loss weights
    and optimizer settings. The file's top-level ``seed`` is the optimizer's."""

    mode: str = "full"
    weights: LossWeights = field(default_factory=LossWeights)
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}")
        for name, cls in (("weights", LossWeights), ("optim", OptimConfig)):
            if not isinstance(getattr(self, name), cls):
                raise ValidationError(f"config {name} must be a {cls.__name__}, got {getattr(self, name)!r}")

    @classmethod
    def from_json(cls, text: str | bytes) -> "PipelineConfig":
        top = dict(_object(parse_json(text, "config"), "config"))
        weights = _object(top.pop("weights", {}), "config section 'weights'")
        optim = _object(top.pop("optim", {}), "config section 'optim'")
        # the top-level seed seeds the optimizer unless the optim section names its own
        seeded = replace_settings(OptimConfig(), {"seed": top.pop("seed")} if "seed" in top else {}, "optim")
        top["weights"] = replace_settings(LossWeights(), weights, "weights")
        top["optim"] = replace_settings(seeded, optim, "optim")
        return replace_settings(cls(), top, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_json(Path(path).read_bytes())
