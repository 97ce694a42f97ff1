"""Field checks shared by the configuration dataclasses.

Configurations arrive from outside the program (JSON spec files and
service submits through :func:`~repro.core.config.config_from_dict`),
so a bad value must be refused at construction, not mid-run or by
silently changing what the run means.
"""

from __future__ import annotations

import math
import numbers


def check_int(name: str, value: object, minimum: int) -> None:
    """Reject a non-integer (bool, float and str included) or small value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_number(name: str, value: object, *, positive: bool) -> None:
    """Reject a non-number (bool and str included), NaN, an infinity, a
    negative value and, when ``positive``, zero."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0
            or (positive and value == 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
