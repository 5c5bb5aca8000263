"""Flat key=value scenario configs.

One key per line, ``#`` starts a comment line, blank lines ignored.
Unknown and duplicate keys are hard errors with line numbers, so typos
surface immediately instead of silently running a default.

Keys::

    dimension            1+1 | 2+1 | 3+1
    alice.gap            energy gap Omega_A (> 0)
    alice.alpha_re/_im   excited-state amplitude
    alice.beta_re/_im    ground-state amplitude
    alice.t_on/t_off     switching window
    alice.position       spatial coordinates, comma or space separated
    bob.*                same fields for Bob
    lambda_product       lambda_A * lambda_B  (optional)
    noise_R              Bob's signal-independent noise R >= 0  (optional)

An optional key left out takes :class:`RunConfig`'s default: 1.0 for
lambda_product, 0.0 for noise_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .scenario import (
    ComplexAmplitudePair,
    DetectorSpec,
    Dimension,
    Scenario,
    SwitchingWindow,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "load_config",
           "CONFIG_KEYS"]

_DETECTOR_FIELDS = (
    "gap", "alpha_re", "alpha_im", "beta_re", "beta_im",
    "t_on", "t_off", "position",
)

# the keys a config may leave out, for RunConfig's defaults
_OPTIONAL = ("lambda_product", "noise_R")

CONFIG_KEYS = ("dimension",) + tuple(
    f"{who}.{f}" for who in ("alice", "bob") for f in _DETECTOR_FIELDS
) + _OPTIONAL


class ConfigError(ValueError):
    """Malformed, unknown, duplicate or missing config content."""


@dataclass(frozen=True)
class RunConfig:
    """Scenario plus the two scalars that only the channel layer uses."""

    scenario: Scenario
    lambda_product: float = 1.0
    noise_R: float = 0.0


def _parse_float(raw: str, key: str, source: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"{source}:{line}: value for {key!r} is not a number: {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(
            f"{source}:{line}: value for {key!r} must be finite, got {raw!r}"
        )
    return value


def _parse_position(raw: str, key: str, source: str, line: int) -> Tuple[float, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"{source}:{line}: empty position for {key!r}")
    try:
        coords = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(
            f"{source}:{line}: position for {key!r} must be numbers, "
            f"got {raw!r}"
        ) from None
    if not all(map(math.isfinite, coords)):
        raise ConfigError(
            f"{source}:{line}: position for {key!r} must be finite, "
            f"got {raw!r}"
        )
    return coords


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text into a RunConfig; raises ConfigError with
    ``source:line`` diagnostics."""
    values: Dict[str, str] = {}
    lines: Dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {raw_line!r}"
            )
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} "
                f"(first set on line {lines[key]})"
            )
        if not raw_value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        values[key] = raw_value
        lines[key] = lineno

    missing = [k for k in CONFIG_KEYS
               if k not in values and k not in _OPTIONAL]
    if missing:
        raise ConfigError(
            f"{source}: missing required keys: {', '.join(missing)}"
        )

    def fval(key: str) -> float:
        return _parse_float(values[key], key, source, lines[key])

    try:
        dimension = Dimension.parse(values["dimension"])
    except ValueError as err:
        raise ConfigError(
            f"{source}:{lines['dimension']}: {err}"
        ) from None

    def detector(who: str) -> DetectorSpec:
        state = ComplexAmplitudePair(
            complex(fval(f"{who}.alpha_re"), fval(f"{who}.alpha_im")),
            complex(fval(f"{who}.beta_re"), fval(f"{who}.beta_im")),
        )
        window = SwitchingWindow(fval(f"{who}.t_on"), fval(f"{who}.t_off"))
        position = _parse_position(
            values[f"{who}.position"], f"{who}.position",
            source, lines[f"{who}.position"],
        )
        return DetectorSpec(fval(f"{who}.gap"), state, position, window)

    if "noise_R" in values and fval("noise_R") < 0:
        raise ConfigError(
            f"{source}:{lines['noise_R']}: noise_R must be >= 0, "
            f"got {values['noise_R']!r}"
        )
    return RunConfig(Scenario(dimension, detector("alice"), detector("bob")),
                     **{key: fval(key) for key in _OPTIONAL if key in values})


def load_config(path: str) -> RunConfig:
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    return parse_config(text, source=path)

