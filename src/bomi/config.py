"""Flat key=value configuration with flags > file > defaults precedence."""

from __future__ import annotations

from pathlib import Path
from typing import Any

from .dataset_io import key_value_lines
from .errors import ParseError
from .features import DEFAULT_OVERLAP, DEFAULT_WINDOW
from .fusion import DEFAULT_ALPHA, DEFAULT_CALIB_TICKS, DEFAULT_GIMBAL_GUARD_DEG
from .lda import DEFAULT_SHRINKAGE
from .pipeline import DEFAULT_V_MAX_CM_S

DEFAULTS: dict[str, Any] = {
    "fusion.alpha": DEFAULT_ALPHA,
    "fusion.calib_ticks": DEFAULT_CALIB_TICKS,
    "fusion.pitch_gimbal_guard_deg": DEFAULT_GIMBAL_GUARD_DEG,
    "features.kind": "fv3",
    "features.window": DEFAULT_WINDOW,
    "features.overlap": DEFAULT_OVERLAP,
    "amplitude.mode": "minmax",
    "lda.shrinkage": DEFAULT_SHRINKAGE,
    "lda.priors": "empirical",
    "pipeline.v_max_cm_s": DEFAULT_V_MAX_CM_S,
}


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value config file; unknown keys are rejected."""
    values: dict[str, str] = {}
    for lineno, key, value in key_value_lines(path):
        if key not in DEFAULTS:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
        values[key] = value
    return values


def resolve(key: str, flag_value: Any, file_values: dict[str, str]) -> Any:
    """Pick the effective value for a key: flag, then file, then default.

    A file value is parsed with the type of the key's default.

    Raises:
        ParseError: the file value does not parse as that type.
    """
    if flag_value is not None:
        return flag_value
    default = DEFAULTS[key]
    if key not in file_values:
        return default
    raw = file_values[key]
    try:
        return type(default)(raw)
    except ValueError:
        raise ParseError(
            f"config key {key!r}: {raw!r} is not a valid {type(default).__name__}"
        ) from None
