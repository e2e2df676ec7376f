"""Problem configuration: validation, JSON ingestion and emission."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .actuators import Actuator, TargetSubspace, make_pointwise, make_target, make_zone
from .errors import ConfigError
from .spectral import TimeGrid


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_array(v) -> bool:
    return isinstance(v, (list, tuple, np.ndarray))


@dataclass(frozen=True)
class Tolerances:
    verify_distance: float = 1e-4

    def __post_init__(self):
        v = self.verify_distance
        if not (_is_number(v) and 0 < v < np.inf):
            raise ConfigError("tolerances.verify_distance", f"must lie in (0, inf), got {v!r}")


@dataclass(frozen=True, eq=False)
class ProblemConfig:
    """Full description of one steering problem.

    ``actuator`` is a dict {"kind": "zone", "a":, "b":} or
    {"kind": "pointwise", "b":}; ``target_modes`` lists the 1-based mode
    indices spanning the target subspace G.
    """

    alpha: float
    T: float
    n_modes: int
    n_steps: int
    y0: tuple
    actuator: dict
    target_modes: tuple
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        for name in ("alpha", "T"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(name, f"must be a number, got {getattr(self, name)!r}")
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha", f"must lie strictly in (0,1), got {self.alpha!r}")
        if not 0.0 < self.T < np.inf:
            raise ConfigError("T", f"must be positive and finite, got {self.T!r}")
        for name, low in (("n_modes", 1), ("n_steps", 2)):
            v = getattr(self, name)
            if not (_is_int(v) and v >= low):
                raise ConfigError(name, f"must be an integer >= {low}, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not (_is_array(self.y0) and all(_is_number(v) for v in self.y0)):
            raise ConfigError("y0", f"must be an array of numbers, got {self.y0!r}")
        y0 = tuple(float(v) for v in self.y0)
        object.__setattr__(self, "y0", y0)
        if len(y0) != self.n_modes:
            raise ConfigError("y0", f"must have n_modes = {self.n_modes} entries, got {len(y0)}")
        if not all(np.isfinite(v) for v in y0):
            raise ConfigError("y0", "entries must be finite")
        if not isinstance(self.actuator, dict):
            raise ConfigError("actuator", f"must be an object, got {self.actuator!r}")
        act = dict(self.actuator)
        object.__setattr__(self, "actuator", act)
        kind = act.get("kind")
        if kind == "zone":
            a, b = act.get("a"), act.get("b")
            if not (_is_number(a) and _is_number(b) and 0.0 <= a < b <= 1.0):
                raise ConfigError("actuator", f"zone needs 0 <= a < b <= 1, got a={a!r}, b={b!r}")
        elif kind == "pointwise":
            b = act.get("b")
            if not (_is_number(b) and 0.0 < b < 1.0):
                raise ConfigError("actuator", f"pointwise needs b strictly in (0,1), got {b!r}")
        else:
            raise ConfigError("actuator.kind", f"must be 'zone' or 'pointwise', got {kind!r}")
        if not (_is_array(self.target_modes) and all(_is_int(i) for i in self.target_modes)):
            raise ConfigError(
                "target_modes", f"must be an array of integers, got {self.target_modes!r}"
            )
        modes = tuple(int(i) for i in self.target_modes)
        object.__setattr__(self, "target_modes", modes)
        if any(i < 1 or i > self.n_modes for i in modes):
            raise ConfigError(
                "target_modes", f"indices must lie in 1..{self.n_modes}, got {list(modes)}"
            )
        if len(set(modes)) != len(modes):
            raise ConfigError("target_modes", f"duplicate indices in {list(modes)}")
        if not isinstance(self.tolerances, Tolerances):
            raise ConfigError("tolerances", "must be a Tolerances instance")

    # --- builders -------------------------------------------------------
    def grid(self) -> TimeGrid:
        return TimeGrid(self.T, self.n_steps)

    def y0_array(self) -> np.ndarray:
        return np.array(self.y0, dtype=float)

    def build_actuator(self) -> Actuator:
        if self.actuator["kind"] == "zone":
            return make_zone(self.actuator["a"], self.actuator["b"], self.n_modes)
        return make_pointwise(self.actuator["b"], self.n_modes)

    def build_target(self) -> TargetSubspace:
        return make_target(list(self.target_modes), self.n_modes)

    # --- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "T": self.T,
            "n_modes": self.n_modes,
            "n_steps": self.n_steps,
            "y0": list(self.y0),
            "actuator": dict(self.actuator),
            "target_modes": list(self.target_modes),
            "tolerances": {"verify_distance": self.tolerances.verify_distance},
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, ProblemConfig) and self.to_dict() == other.to_dict()


def loads_config(data: dict) -> ProblemConfig:
    """Validate a parsed JSON document into a ProblemConfig."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", f"expected a JSON object, got {type(data).__name__}")
    required = ["alpha", "T", "n_modes", "n_steps", "y0", "actuator", "target_modes"]
    for key in required:
        if key not in data:
            raise ConfigError(key, "missing required field")
    tol_data = data.get("tolerances", {})
    if not isinstance(tol_data, dict):
        raise ConfigError("tolerances", "must be an object")
    try:
        # Older files carry retired tolerances that nothing reads; drop them.
        retired = ("quadrature", "gramian_rank")
        tol = Tolerances(**{k: v for k, v in tol_data.items() if k not in retired})
    except TypeError as exc:
        raise ConfigError("tolerances", str(exc)) from exc
    return ProblemConfig(tolerances=tol, **{key: data[key] for key in required})


def load_config(path) -> ProblemConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError("<path>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<parse>", f"invalid JSON in {path}: {exc}") from exc
    return loads_config(data)


def save_config(config: ProblemConfig, path) -> None:
    """Emit a configuration as JSON; load_config inverts this exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
