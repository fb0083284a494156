"""Construction-time field checks shared by the config and spec dataclasses."""

from __future__ import annotations

import math
from typing import Any


def require_finite(spec: Any, *fields: str, positive: bool = False) -> None:
    """Refuse any of ``spec``'s ``fields`` that is NaN, infinite, negative
    or, with ``positive``, zero — by name, when the spec is built."""
    for name in fields:
        value = getattr(spec, name)
        if not math.isfinite(value) or value < 0 or (positive and value == 0):
            bound = "> 0" if positive else ">= 0"
            raise ValueError(
                f"{type(spec).__name__}.{name} must be finite and {bound}, got {value!r}"
            )
