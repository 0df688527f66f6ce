"""Plane-stress finite-element reference on a regular grid of square elements.

Bilinear 4-node quadrilaterals with 2x2 Gauss quadrature; since every element
is the same axis-aligned square, one element matrix is scattered over the
grid. Node numbering matches the peridynamic grid builder (x fastest), so
fields from both solvers are node-aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Domain, GeometryError, GridSpec
from .material import POISSON, ElasticParams
from .pd_core import node_dofs


@dataclass(frozen=True)
class FEMesh:
    """Structured quad mesh; nodes (N, 2), elements (E, 4) counterclockwise."""

    nodes: np.ndarray
    elements: np.ndarray
    spacing: float

    @classmethod
    def from_grid(cls, domain: Domain, spec: GridSpec) -> "FEMesh":
        nx, ny = spec.counts
        pts = spec.points()
        if not np.all(domain.contains(pts, tol=1e-9 * spec.spacing)):
            raise GeometryError("grid extends outside the domain")
        n0 = (nx * np.arange(ny - 1, dtype=np.int64)[:, None] + np.arange(nx - 1)).ravel()
        return cls(pts, n0[:, None] + [0, 1, nx + 1, nx], spec.spacing)

    @property
    def element_dofs(self) -> np.ndarray:
        """(E, 8) dofs of each element's corners, ``u_x`` and ``u_y`` interleaved."""
        return node_dofs(self.elements.ravel()).reshape(-1, 8)


_GAUSS = np.array([-1.0, 1.0]) / np.sqrt(3.0)


def element_stiffness(spacing: float, law: ElasticParams) -> np.ndarray:
    """8x8 stiffness of one square bilinear element in plane stress at ``POISSON``."""
    e, nu = law.youngs_modulus, POISSON
    d = e / (1 - nu**2) * np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0],
                                     [0.0, 0.0, (1 - nu) / 2.0]])
    half = spacing / 2.0
    ke = np.zeros((8, 8))
    for gx in _GAUSS:
        for gy in _GAUSS:
            # shape-function gradients wrt (xi, eta), corners CCW from (-1,-1)
            dn = 0.25 * np.array([
                [-(1 - gy), -(1 - gx)],
                [(1 - gy), -(1 + gx)],
                [(1 + gy), (1 + gx)],
                [-(1 + gy), (1 - gx)],
            ])
            dndx = dn / half  # constant Jacobian: x = half * xi
            b = np.zeros((3, 8))
            b[0, 0::2] = dndx[:, 0]
            b[1, 1::2] = dndx[:, 1]
            b[2, 0::2] = dndx[:, 1]
            b[2, 1::2] = dndx[:, 0]
            ke += b.T @ d @ b * half * half
    return ke


def fem_assemble(mesh: FEMesh, law: ElasticParams) -> sp.csr_matrix:
    """Global stiffness (2N x 2N CSR), no exact zero stored; passes the patch test."""
    ke = element_stiffness(mesh.spacing, law)
    dofs = mesh.element_dofs
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    data = np.tile(ke.ravel(), len(mesh.elements))
    n = 2 * len(mesh.nodes)
    k = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    k.eliminate_zeros()
    return k


def fem_energy_density(mesh: FEMesh, law: ElasticParams, u: np.ndarray) -> np.ndarray:
    """Nodal energy density (MPa): adjacent element densities averaged.

    The element total is 1/2 u_e^T k_e u_e, so summing the element energies
    reproduces 1/2 u^T K u identically.
    """
    ke = element_stiffness(mesh.spacing, law)
    ue = u.ravel()[mesh.element_dofs]
    elem_energy = 0.5 * np.einsum("ea,ab,eb->e", ue, ke, ue)
    density = elem_energy / mesh.spacing**2
    n = len(mesh.nodes)
    corners = mesh.elements.T.ravel()
    w = np.bincount(corners, np.tile(density, 4), n)
    return w / np.maximum(np.bincount(corners, minlength=n), 1.0)
