"""Problem configuration: validation, JSON ingestion and emission."""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .actuators import TargetSubspace, make_pointwise, make_target, make_zone
from .errors import ConfigError, DomainError
from .spectral import TimeGrid, _is_real

_ACTUATOR_FIELDS = {"zone": {"kind", "a", "b"}, "pointwise": {"kind", "b"}}
# Most node-table entries, n_modes x (n_steps + 1), a config may ask for (128 MiB of float64):
# a larger table is refused here rather than failing to allocate mid-solve.
MAX_TABLE_ENTRIES = 2**24


def _as_float(name: str, v) -> float:
    """float(v); a number beyond the double range (say, a 400-digit int) is a ``ConfigError`` on ``name``."""
    try:
        return float(v)
    except OverflowError as exc:
        raise ConfigError(name, f"is beyond the double range: {exc}") from exc


def _as_config_error(name: str, build) -> None:
    """Call ``build``; its ``DomainError`` becomes a ``ConfigError`` on field ``name``."""
    try:
        build()
    except DomainError as exc:
        raise ConfigError(name, str(exc)) from exc


@dataclass(frozen=True)
class Tolerances:
    verify_distance: float = 1e-4

    def __post_init__(self):
        v = self.verify_distance
        if not (_is_real(v) and 0 < v < np.inf):
            raise ConfigError("tolerances.verify_distance", f"must lie in (0, inf), got {v!r}")


@dataclass(frozen=True)
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
        if not _is_real(self.alpha):
            raise ConfigError("alpha", f"must be a number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", _as_float("alpha", self.alpha))
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha", f"must lie strictly in (0,1), got {self.alpha!r}")
        # TimeGrid holds the rules for T and n_steps; a 2-step grid checks T alone
        _as_config_error("T", lambda: TimeGrid(self.T, 2))
        object.__setattr__(self, "T", _as_float("T", self.T))
        v = self.n_modes
        if not (isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1):
            raise ConfigError("n_modes", f"must be an integer >= 1, got {v!r}")
        object.__setattr__(self, "n_modes", int(v))
        _as_config_error("n_steps", self.grid)
        object.__setattr__(self, "n_steps", int(self.n_steps))
        if self.n_modes * (self.n_steps + 1) > MAX_TABLE_ENTRIES:
            raise ConfigError("n_steps", f"n_modes x (n_steps + 1) must be at most {MAX_TABLE_ENTRIES}")
        y0_is_array = isinstance(self.y0, (list, tuple, np.ndarray))
        if not (y0_is_array and all(_is_real(v) for v in self.y0)):
            raise ConfigError("y0", f"must be an array of numbers, got {self.y0!r}")
        y0 = tuple(_as_float("y0", v) for v in self.y0)
        object.__setattr__(self, "y0", y0)
        if len(y0) != self.n_modes:
            raise ConfigError("y0", f"must have n_modes = {self.n_modes} entries, got {len(y0)}")
        if not all(np.isfinite(v) for v in y0):
            raise ConfigError("y0", "entries must be finite")
        if not isinstance(self.actuator, dict):
            raise ConfigError("actuator", f"must be an object, got {self.actuator!r}")
        act = dict(self.actuator)
        object.__setattr__(self, "actuator", act)
        kind, kinds = act.get("kind"), tuple(_ACTUATOR_FIELDS)
        if kind not in kinds:  # a tuple: an unhashable kind compares unequal, it does not raise
            raise ConfigError("actuator.kind", f"must be one of {kinds}, got {kind!r}")
        if set(act) != _ACTUATOR_FIELDS[kind]:
            keys = sorted(_ACTUATOR_FIELDS[kind])
            raise ConfigError("actuator", f"a {kind} actuator has exactly {keys}, got {act!r}")
        _as_config_error("actuator", self.build_actuator)
        _as_config_error("target_modes", self.build_target)
        object.__setattr__(self, "target_modes", tuple(int(i) for i in self.target_modes))
        if not isinstance(self.tolerances, Tolerances):
            raise ConfigError("tolerances", "must be a Tolerances instance")

    # --- builders -------------------------------------------------------
    def grid(self) -> TimeGrid:
        return TimeGrid(self.T, self.n_steps)

    def y0_array(self) -> np.ndarray:
        return np.array(self.y0, dtype=float)

    def build_actuator(self) -> np.ndarray:
        if self.actuator["kind"] == "zone":
            return make_zone(self.actuator["a"], self.actuator["b"], self.n_modes)
        return make_pointwise(self.actuator["b"], self.n_modes)

    def build_target(self) -> TargetSubspace:
        return make_target(self.target_modes, self.n_modes)

    # --- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)


def loads_config(data: dict) -> ProblemConfig:
    """Validate a parsed JSON document into a ProblemConfig."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", f"expected a JSON object, got {type(data).__name__}")
    required = [f.name for f in fields(ProblemConfig) if f.name != "tolerances"]
    for key in required:
        if key not in data:
            raise ConfigError(key, "missing required field")
    for key in data:
        if key not in required and key != "tolerances":
            raise ConfigError(key, "unknown field")
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
