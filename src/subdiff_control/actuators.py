"""Actuator models, target subspaces, and the strategic / reachability criteria.

An actuator enters the scalar-control model only through its per-mode
influence coefficients b_i, so it is held as that vector b.  A zone actuator
with flat profile on [a,b] has

    b_i = (sqrt(2)/(i pi)) (cos(i pi a) - cos(i pi b)),

a pointwise actuator at b has b_i = sqrt(2) sin(i pi b).  A target subspace G
is spanned by a set of eigenmodes, so its annihilator (the orthogonal
complement, in coordinates) is the set of the other modes: every product with
the annihilator basis is an index selection, and its transpose a scatter.
``rhum.require_reachable`` refuses a target whose annihilator touches one of
the ``dead_modes``, or whose least-norm control misses it (``eec_criterion``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import SQRT2, _is_real

STRATEGIC_TOL = 1e-10  # relative to max |b_i|


def make_zone(a: float, b: float, n_modes: int) -> np.ndarray:
    """Influence of a zone actuator with flat profile on [a, b]: the integral of w_i over it."""
    if not (_is_real(a) and _is_real(b) and 0.0 <= a < b <= 1.0):
        raise DomainError(f"zone must satisfy 0 <= a < b <= 1, got a={a!r}, b={b!r}")
    i = np.arange(1, n_modes + 1, dtype=float)
    return (SQRT2 / (i * np.pi)) * (np.cos(i * np.pi * a) - np.cos(i * np.pi * b))


def make_pointwise(b: float, n_modes: int) -> np.ndarray:
    """Influence of a pointwise actuator at location b in (0,1): b_i = w_i(b)."""
    if not (_is_real(b) and 0.0 < b < 1.0):
        raise DomainError(f"pointwise location must lie strictly in (0,1), got {b!r}")
    i = np.arange(1, n_modes + 1, dtype=float)
    return SQRT2 * np.sin(i * np.pi * b)


@dataclass(frozen=True)
class TargetSubspace:
    """Subspace G spanned by a set of eigenmodes, held by the modes outside it.

    ``annihilator`` lists the 0-based indices of the modes outside G,
    ascending and read-only: a state's annihilator coordinates are
    ``coeffs[annihilator]``, and it lies in G exactly when they vanish.
    """

    n_modes: int
    annihilator: np.ndarray

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """The mode vector with annihilator coordinates ``coords`` and zero on G."""
        out = np.zeros(self.n_modes)
        out[self.annihilator] = coords
        return out

    def distance_to(self, coeffs: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(coeffs, dtype=float)[self.annihilator]))


def make_target(selected, n_modes: int) -> TargetSubspace:
    """Build G from a list of the 1-based indices of the modes that span it.

    An empty list gives G = {0} (every mode in the annihilator: exact steering
    to 0); the full index list gives the whole space (an empty annihilator).
    """
    modes = selected.tolist() if isinstance(selected, np.ndarray) else selected
    if not (isinstance(modes, (list, tuple)) and all(
            isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in modes)):
        raise DomainError(f"target modes must be a list of integer mode indices, got {selected!r}")
    idx = sorted(int(i) for i in modes)
    if any(i < 1 or i > n_modes for i in idx):
        raise DomainError(f"mode indices must lie in 1..{n_modes}, got {idx}")
    if len(set(idx)) != len(idx):
        raise DomainError(f"duplicate mode indices in {idx}")
    outside = np.ones(n_modes, dtype=bool)
    outside[[i - 1 for i in idx]] = False
    annihilator = np.flatnonzero(outside)
    annihilator.setflags(write=False)
    return TargetSubspace(n_modes, annihilator)


def dead_modes(b: np.ndarray, target: TargetSubspace):
    """Mode indices (1-based) with vanishing influence b_i that the annihilator touches."""
    b = np.asarray(b, dtype=float)
    cut = STRATEGIC_TOL * (float(np.max(np.abs(b))) if b.size else 0.0)
    return [i + 1 for i in target.annihilator.tolist() if abs(b[i]) <= cut]


def is_strategic(b: np.ndarray, target: TargetSubspace) -> dict:
    """Strategic iff every mode the annihilator touches has nonzero influence b_i."""
    dead = dead_modes(b, target)
    return {"strategic": len(dead) == 0, "dead_modes": dead}


def eec_criterion(gramian, rhs: np.ndarray, verify_distance: float) -> bool:
    """Exact enlarged controllability: some control steers the free final state into G.

    ``gramian`` is the ``rhum.Gramian`` on the annihilator and ``rhs`` the
    steering right-hand side c.  True when the least-norm control at the rank
    cut (``Gramian.least_norm``) misses G by at most ``verify_distance``.
    """
    return gramian.least_norm(rhs)[2] <= verify_distance
