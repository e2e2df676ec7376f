"""Problem configuration: validation, JSON ingestion and emission."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .actuators import Actuator, TargetSubspace, make_pointwise, make_target, make_zone
from .errors import ConfigError
from .spectral import TimeGrid


@dataclass(frozen=True)
class Tolerances:
    gramian_rank: float = 1e-10
    verify_distance: float = 1e-4

    def __post_init__(self):
        for name in ("gramian_rank", "verify_distance"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0):
                raise ConfigError(f"tolerances.{name}", f"must be a positive number, got {v!r}")


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
        if not (isinstance(self.alpha, (int, float)) and 0.0 < self.alpha < 1.0):
            raise ConfigError("alpha", f"must lie strictly in (0,1), got {self.alpha!r}")
        if not (isinstance(self.T, (int, float)) and self.T > 0):
            raise ConfigError("T", f"must be positive, got {self.T!r}")
        if not (isinstance(self.n_modes, int) and self.n_modes >= 1):
            raise ConfigError("n_modes", f"must be an integer >= 1, got {self.n_modes!r}")
        if not (isinstance(self.n_steps, int) and self.n_steps >= 2):
            raise ConfigError("n_steps", f"must be an integer >= 2, got {self.n_steps!r}")
        y0 = tuple(float(v) for v in self.y0)
        object.__setattr__(self, "y0", y0)
        if len(y0) != self.n_modes:
            raise ConfigError("y0", f"must have n_modes = {self.n_modes} entries, got {len(y0)}")
        if not all(np.isfinite(v) for v in y0):
            raise ConfigError("y0", "entries must be finite")
        act = dict(self.actuator)
        object.__setattr__(self, "actuator", act)
        kind = act.get("kind")
        if kind == "zone":
            a, b = act.get("a"), act.get("b")
            if a is None or b is None or not (0.0 <= a < b <= 1.0):
                raise ConfigError("actuator", f"zone needs 0 <= a < b <= 1, got a={a!r}, b={b!r}")
        elif kind == "pointwise":
            b = act.get("b")
            if b is None or not (0.0 < b < 1.0):
                raise ConfigError("actuator", f"pointwise needs b strictly in (0,1), got {b!r}")
        else:
            raise ConfigError("actuator.kind", f"must be 'zone' or 'pointwise', got {kind!r}")
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
            "tolerances": {
                "gramian_rank": self.tolerances.gramian_rank,
                "verify_distance": self.tolerances.verify_distance,
            },
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
        # Older files carry a ``quadrature`` tolerance that nothing read; drop it.
        tol = Tolerances(**{k: v for k, v in tol_data.items() if k != "quadrature"})
    except TypeError as exc:
        raise ConfigError("tolerances", str(exc)) from exc
    alpha = data["alpha"]
    T = data["T"]
    for name, v in (("alpha", alpha), ("T", T)):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(name, f"must be a number, got {v!r}")
    if not isinstance(data["y0"], (list, tuple)):
        raise ConfigError("y0", "must be an array")
    if not isinstance(data["actuator"], dict):
        raise ConfigError("actuator", "must be an object")
    if not isinstance(data["target_modes"], (list, tuple)):
        raise ConfigError("target_modes", "must be an array")
    return ProblemConfig(
        alpha=float(alpha),
        T=float(T),
        n_modes=data["n_modes"] if isinstance(data["n_modes"], int) else data["n_modes"],
        n_steps=data["n_steps"] if isinstance(data["n_steps"], int) else data["n_steps"],
        y0=tuple(data["y0"]),
        actuator=data["actuator"],
        target_modes=tuple(data["target_modes"]),
        tolerances=tol,
    )


def load_config(path) -> ProblemConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<path>", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<parse>", f"invalid JSON in {path}: {exc}") from exc
    return loads_config(data)


def save_config(config: ProblemConfig, path) -> None:
    """Emit a configuration as JSON; load_config inverts this exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
