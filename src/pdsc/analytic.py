"""Closed-form reference fields, error metrics and a dense solve oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .pd_core import BCSet


class RankDeficiency(RuntimeError):
    """The constrained system has unfixed rigid modes (or worse)."""


@dataclass(frozen=True)
class AffineField:
    """Displacement field u(x) = strain . (x - origin), pure-strain part only."""

    strain: np.ndarray                 # symmetric 2x2
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        s = np.asarray(self.strain, dtype=float)
        if s.shape != (2, 2) or not np.allclose(s, s.T, atol=1e-14 * (1 + np.abs(s).max())):
            raise ValueError("strain must be a symmetric 2x2 tensor")
        object.__setattr__(self, "strain", s)

    def displacements(self, points: np.ndarray) -> np.ndarray:
        rel = np.asarray(points, dtype=float) - np.asarray(self.origin)
        return rel @ self.strain.T


def uniaxial_solution(youngs_modulus: float, poisson: float, traction: float):
    """Uniaxial stress sigma along y: u_y = (sigma/E) y, u_x = -nu (sigma/E) x.

    Returns a callable evaluating the displacement field at (N, 2) points,
    measured from the symmetry center at the origin.
    """
    ax = traction / youngs_modulus

    def field(points: np.ndarray) -> np.ndarray:
        rel = np.asarray(points, dtype=float)
        out = np.empty_like(rel)
        out[:, 0] = -poisson * ax * rel[:, 0]
        out[:, 1] = ax * rel[:, 1]
        return out

    return field


# reference magnitude (mm) below which a component counts as a symmetry zero
ZERO_TOL = 1e-12


def relative_error_field(u_num: np.ndarray, u_ref: np.ndarray):
    """Per-node, per-component relative errors against a reference field.

    Components whose reference magnitude is below ``ZERO_TOL`` (exact zeros
    by symmetry) are excluded from the maximum and flagged in the returned
    mask. Returns (errors (N, 2), included (N, 2), max_error (2,)).
    """
    u_num = np.asarray(u_num, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    if u_num.shape != u_ref.shape:
        raise ValueError("node sets of numeric and reference fields differ")
    included = np.abs(u_ref) >= ZERO_TOL
    err = np.zeros_like(u_num)
    err[included] = np.abs(u_num[included] - u_ref[included]) / np.abs(u_ref[included])
    max_err = np.array([err[included[:, a], a].max(initial=0.0) for a in (0, 1)])
    return err, included, max_err


def dense_oracle_solve(k: sp.spmatrix, bcs: BCSet) -> np.ndarray:
    """Direct dense factorization of the constrained system (small N only).

    Cross-check oracle for the iterative solver; raises RankDeficiency when
    the constrained matrix is not positive definite (e.g. no boundary
    conditions fix the rigid modes).
    """
    ndof = k.shape[0]
    if ndof > 4000:
        raise ValueError("dense oracle is restricted to small systems")
    pres = bcs.prescribed_mask.ravel()
    free = ~pres
    u = np.zeros(ndof)
    u[pres] = bcs.prescribed_value.ravel()[pres]
    rhs = (bcs.loads.ravel() - k @ u)[free]
    kff = np.asarray(k[free][:, free].todense())
    try:
        c = np.linalg.cholesky(kff)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiency("constrained stiffness is singular; "
                             "rigid modes are not fixed") from exc
    u[free] = np.linalg.solve(c.T, np.linalg.solve(c, rhs))
    return u.reshape(-1, 2)
