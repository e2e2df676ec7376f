"""Actuator models, target subspaces, and the strategic / reachability criteria.

An actuator enters the scalar-control model through its per-mode influence
coefficients b_i.  A zone actuator with flat profile on [a,b] has

    b_i = (sqrt(2)/(i pi)) (cos(i pi a) - cos(i pi b)),

a pointwise actuator at b has b_i = sqrt(2) sin(i pi b).  A target subspace G
of the truncated mode space carries its annihilator (identified with the
orthogonal complement in coordinates) and the orthogonal projector onto it.
``dead_modes`` and ``eec_criterion`` are the two tests of ``rhum.require_reachable``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import SQRT2

STRATEGIC_TOL = 1e-10  # relative to max |b_i|


@dataclass(frozen=True)
class Actuator:
    """Spatial input shape reduced to its eigenmode influence coefficients."""

    influence: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "influence", np.asarray(self.influence, dtype=float))

    @property
    def n_modes(self) -> int:
        return self.influence.size


def make_zone(a: float, b: float, n_modes: int) -> Actuator:
    """Zone actuator with flat profile on [a, b]: the closed-form integral of w_i over it."""
    if not (0.0 <= a < b <= 1.0):
        raise DomainError(f"zone must satisfy 0 <= a < b <= 1, got [{a}, {b}]")
    i = np.arange(1, n_modes + 1, dtype=float)
    return Actuator((SQRT2 / (i * np.pi)) * (np.cos(i * np.pi * a) - np.cos(i * np.pi * b)))


def make_pointwise(b: float, n_modes: int) -> Actuator:
    """Pointwise actuator at location b in (0,1): b_i = w_i(b)."""
    if not 0.0 < b < 1.0:
        raise DomainError(f"pointwise location must lie strictly in (0,1), got {b}")
    i = np.arange(1, n_modes + 1, dtype=float)
    return Actuator(SQRT2 * np.sin(i * np.pi * b))


@dataclass(frozen=True)
class TargetSubspace:
    """Subspace G of mode space with annihilator basis and projector onto it.

    ``projector`` maps a state to its component outside G; a state lies in G
    exactly when the projection vanishes.
    """

    basis: np.ndarray       # (N, M) orthonormal columns spanning G
    polar_basis: np.ndarray  # (N, N-M) orthonormal columns spanning the annihilator
    projector: np.ndarray    # (N, N) orthogonal projector onto the annihilator

    @property
    def n_modes(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def polar_dim(self) -> int:
        return self.polar_basis.shape[1]

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        return self.projector @ np.asarray(coeffs, dtype=float)

    def distance_to(self, coeffs: np.ndarray) -> float:
        return float(np.linalg.norm(self.project(coeffs)))


def make_target(selected, n_modes: int) -> TargetSubspace:
    """Build G from a list of 1-based mode indices or an explicit basis matrix.

    The annihilator is the complementary identity columns, in ascending mode
    order, or the trailing columns of the basis matrix's complete QR.  An empty
    list gives G = {0} (projector = identity: exact steering to 0); the full
    index list gives the whole space (projector = 0).
    """
    if isinstance(selected, np.ndarray) and selected.ndim == 2:
        mat = np.asarray(selected, dtype=float)
        if mat.shape[0] != n_modes:
            raise DomainError(
                f"basis matrix must have {n_modes} rows, got {mat.shape[0]}"
            )
        if np.linalg.matrix_rank(mat, tol=1e-10) < mat.shape[1]:
            raise DomainError("basis matrix columns are linearly dependent")
        q, _ = np.linalg.qr(mat, mode="complete")
        basis, polar = q[:, : mat.shape[1]], q[:, mat.shape[1]:]
    else:
        idx = sorted(int(i) for i in selected)
        if any(i < 1 or i > n_modes for i in idx):
            raise DomainError(f"mode indices must lie in 1..{n_modes}, got {idx}")
        if len(set(idx)) != len(idx):
            raise DomainError(f"duplicate mode indices in {idx}")
        full = np.eye(n_modes)
        basis = full[:, [i - 1 for i in idx]]
        polar = full[:, [i for i in range(n_modes) if i + 1 not in idx]]
    return TargetSubspace(basis, polar, polar @ polar.T)


def dead_modes(actuator: Actuator, target: TargetSubspace):
    """Mode indices (1-based) with vanishing influence that the annihilator touches."""
    b = actuator.influence
    cut = STRATEGIC_TOL * (float(np.max(np.abs(b))) if b.size else 0.0)
    out = []
    for i in range(b.size):
        if abs(b[i]) <= cut and np.max(np.abs(target.polar_basis[i, :]), initial=0.0) > 1e-12:
            out.append(i + 1)
    return out


def is_strategic(actuator: Actuator, target: TargetSubspace) -> dict:
    """Strategic iff every mode the annihilator touches has nonzero influence."""
    dead = dead_modes(actuator, target)
    return {"strategic": len(dead) == 0, "dead_modes": dead}


def eec_criterion(gramian, rhs: np.ndarray, verify_distance: float) -> bool:
    """Exact enlarged controllability: some control steers the free final state into G.

    ``gramian`` is the ``rhum.Gramian`` G = V diag(sigma^2) V^T on the annihilator
    and ``rhs`` the steering right-hand side c.  The least-norm control at the
    rank cut misses G by c's part along the columns of V past ``gramian.rank``;
    returns True when that miss is at most ``verify_distance``.
    """
    return gramian.range_miss(rhs) <= verify_distance
