"""Exception hierarchy shared across the package, and the settings' type check.

Exit-code mapping used by the CLI: validation errors -> 2,
numerical failures -> 3, I/O failures -> 4.
"""

import dataclasses
import numbers


class RigiddaError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(RigiddaError):
    """Invalid configuration, geometry, or argument values."""

    exit_code = 2


def check_numbers(settings, section: str):
    """Each field of the dataclass ``settings`` annotated ``int`` holds an integer
    and each one annotated ``float`` an integer or a float; a bool is neither."""
    for f in dataclasses.fields(settings):
        if f.type not in ("int", int, "float", float):
            continue
        value = getattr(settings, f.name)
        integer = f.type in ("int", int)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
            kind = "an integer" if integer else "a number"
            raise ValidationError(f"{section} {f.name} must be {kind}, got {value!r}")


class NumericalError(RigiddaError):
    """Non-finite values or diverging optimization."""

    exit_code = 3


class VolumeIOError(RigiddaError):
    """File format problems. ``code`` is a stable machine-readable tag."""

    exit_code = 4

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
