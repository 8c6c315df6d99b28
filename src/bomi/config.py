"""Flat key=value configuration with flags > file > defaults precedence."""

from __future__ import annotations

from pathlib import Path
from typing import Any

from .errors import ParseError

DEFAULTS: dict[str, Any] = {
    "fusion.alpha": 0.98,
    "fusion.calib_ticks": 60,
    "fusion.pitch_gimbal_guard_deg": 85.0,
    "features.kind": "fv3",
    "features.window": 8,
    "features.overlap": 7,
    "amplitude.mode": "minmax",
    "lda.shrinkage": 1e-3,
    "lda.priors": "empirical",
    "pipeline.v_max_cm_s": 20.0,
}


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value config file; unknown keys are rejected."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
        values[key] = value.strip()
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
