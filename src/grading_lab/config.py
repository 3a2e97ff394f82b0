"""Flat key=value experiment configs.

Format: UTF-8 lines ``key = value``, ``#`` starts a comment, blank lines
ignored.  The hopping list is comma-separated ``offset=complex`` pairs
with Python complex literals.  Unknown keys and non-finite numbers are
rejected.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


_INT_KEYS = {"d", "l", "j_plus", "j_minus", "t_count", "block_k"}
_FLOAT_KEYS = {"t_start", "t_stop"}


@dataclass
class ExperimentConfig:
    experiment: str
    d: int = 2
    l: int = 4
    j_plus: int = 1
    j_minus: int = 1
    hopping: dict[int, complex] = field(default_factory=dict)
    t_start: float = 0.0
    t_stop: float = 1.0
    t_count: int = 2
    block_k: int = 1
    out: str = "out.csv"

    def t_grid(self) -> list[float]:
        if self.t_count < 1:
            raise ConfigError("t_count must be >= 1")
        if self.t_count == 1:
            return [self.t_start]
        step = (self.t_stop - self.t_start) / (self.t_count - 1)
        return [self.t_start + i * step for i in range(self.t_count)]


_KEYS = {f.name for f in fields(ExperimentConfig)}


def _parse_hopping(text: str) -> dict[int, complex]:
    out: dict[int, complex] = {}
    text = text.strip()
    if not text:
        return out
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise ConfigError(f"hopping pair {pair!r} is not offset=complex")
        off, val = pair.split("=", 1)
        try:
            x = int(off.strip())
            z = complex(val.strip())
        except ValueError as exc:
            raise ConfigError(f"cannot parse hopping pair {pair!r}: {exc}") from None
        if x in out:
            raise ConfigError(f"duplicate hopping offset {x}")
        if not cmath.isfinite(z):
            raise ConfigError(f"hopping value at offset {x} is not finite: {val.strip()!r}")
        out[x] = z
    return out


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "hopping":
                values[key] = _parse_hopping(val)
            elif key in _INT_KEYS:
                values[key] = int(val)
                if key == "t_count" and values[key] < 1:
                    raise ConfigError(f"line {lineno}: 't_count' must be >= 1: {val!r}")
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
                if not cmath.isfinite(values[key]):
                    raise ConfigError(f"line {lineno}: {key!r} is not finite: {val!r}")
            else:
                values[key] = val
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    return ExperimentConfig(**values)  # type: ignore[arg-type]


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
