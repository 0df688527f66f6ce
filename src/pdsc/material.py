"""Bulk bond-strength calibration and direction-dependent surface stiffening.

The pairwise ("bond") force model stores, for a uniformly strained
neighborhood of a bulk point, the energy density

    W(x) = 1/4 * integral over the horizon disk of  c(x, xi)/|xi| * (e . du)^2

with du the relative displacement and e the bond direction. Central forces
fix Poisson's ratio at 1/3 in plane stress; matching W against the classical
density 1/2 eps:H:eps for affine deformations yields the bulk amplitude c0.
Near a boundary, part of the neighborhood is missing, which softens the
response. Each bond direction is therefore rescaled by the ratio of the full
to the truncated radial stiffness moment

    phi(x, e) = M(horizon) / M(d),   M(u) = integral_0^u c_b(s) s^2 ds,

where d is the distance from x along e to the first boundary crossing,
capped at the horizon. This restores the affine-deformation energy for every
direction that still carries material. For the constant radial profile phi
reduces to (horizon/d)**3.

The restoration holds for the body, not node by node. A node on a flat face
has no bond in any outward direction and phi == 1 on every bond it keeps, so
it stores exactly half the bulk density for every affine strain; the
restored stiffness sits in the bonds reaching it from the rows below. The
energy summed over a column of nodes from surface to surface matches the
bulk density times the column volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Domain, BondTable, GeometryError, NodeSet, truncated_lengths

# Poisson's ratio of a plane-stress central-force material
POISSON = 1.0 / 3.0

# integral of (e_x)^4 over the unit circle
_ANGULAR_FOURTH_MOMENT = 3.0 * np.pi / 4.0

PROFILE_KINDS = ("constant", "conical")


@dataclass(frozen=True)
class ElasticParams:
    """Isotropic reference constants; Poisson's ratio is fixed at ``POISSON``."""

    youngs_modulus: float          # MPa
    thickness: float = 1.0         # mm

    def __post_init__(self):
        if self.youngs_modulus <= 0 or self.thickness <= 0:
            raise ValueError("modulus and thickness must be positive")


@dataclass(frozen=True)
class HookeTensor:
    """Plane-stress stiffness components (MPa); xyxy is the shear modulus."""

    xxxx: float
    xxyy: float
    xyxy: float

    def energy_density(self, strain: np.ndarray) -> float:
        """1/2 eps:H:eps for a symmetric 2x2 strain."""
        exx, eyy, exy = strain[0, 0], strain[1, 1], strain[0, 1]
        return 0.5 * (self.xxxx * (exx**2 + eyy**2)
                      + 2.0 * self.xxyy * exx * eyy
                      + 4.0 * self.xyxy * exy**2)


def hooke_plane_stress(params: ElasticParams) -> HookeTensor:
    """Plane-stress Hooke tensor at the central-force Poisson number.

    At nu = 1/3 the Cauchy relation xxyy == xyxy holds, as required for a
    central-force material.
    """
    e, nu = params.youngs_modulus, POISSON
    fac = e / (1.0 - nu**2)
    return HookeTensor(xxxx=fac, xxyy=nu * fac, xyxy=e / (2.0 * (1.0 + nu)))


@dataclass(frozen=True)
class MicromodulusProfile:
    """Radial bond-strength profile c_b(xi) = c0 * shape(xi)."""

    kind: str = "constant"

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown micro-modulus profile {self.kind!r}")

    def shape(self, length, horizon: float):
        length = np.asarray(length, dtype=float)
        if self.kind == "constant":
            return np.ones_like(length)
        return 1.0 - length / horizon

    def radial_moment(self, upper, horizon: float):
        """integral_0^upper shape(s) * s^2 ds, closed form."""
        u = np.asarray(upper, dtype=float)
        if self.kind == "constant":
            return u ** 3 / 3
        return u ** 3 / 3 - u ** 4 / (4 * horizon)


@dataclass(frozen=True)
class MaterialModel:
    """Elastic constants plus the calibrated pairwise stiffness amplitude."""

    elastic: ElasticParams
    horizon: float
    profile: MicromodulusProfile
    bulk_amplitude: float          # c0

    @classmethod
    def calibrated(cls, elastic: ElasticParams, horizon: float, profile_kind: str,
                   mode: str, spacing: float | None) -> "MaterialModel":
        profile = MicromodulusProfile(profile_kind)
        c0 = calibrate_bulk(elastic, profile_kind, horizon, mode, spacing)
        return cls(elastic, horizon, profile, c0)

    def bond_amplitude(self, length) -> np.ndarray:
        """c_b(xi) for the bulk material."""
        return self.bulk_amplitude * self.profile.shape(length, self.horizon)


def lattice_offsets(horizon: float, spacing: float) -> np.ndarray:
    """Integer lattice offsets (i, j) != 0 with |offset|*spacing <= horizon."""
    reach = int(np.floor(horizon / spacing * (1 + 1e-12)))
    ij = np.stack(np.meshgrid(np.arange(-reach, reach + 1),
                              np.arange(-reach, reach + 1), indexing="ij"),
                  axis=-1).reshape(-1, 2)
    r2 = (ij**2).sum(1)
    keep = (r2 > 0) & (r2 * spacing**2 <= horizon**2 * (1 + 1e-12))
    return ij[keep]


def calibrate_bulk(params: ElasticParams, profile_kind: str, horizon: float, mode: str,
                   spacing: float | None = None) -> float:
    """Bulk amplitude c0 from affine energy matching.

    ``continuum`` evaluates the matching integral over the full horizon
    disk analytically. ``discrete`` rescales c0 so the lattice sum over an
    interior node's neighbors stores exactly the classical energy for a
    uniaxial strain, removing the grid-dependent quadrature bias of the
    neighborhood sum.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    profile = MicromodulusProfile(profile_kind)
    h_xxxx = hooke_plane_stress(params).xxxx
    if mode == "continuum":
        radial = profile.radial_moment(horizon, horizon)
        return 2.0 * h_xxxx / (params.thickness * radial * _ANGULAR_FOURTH_MOMENT)
    if mode != "discrete":
        raise ValueError(f"unknown calibration mode {mode!r}")
    if spacing is None:
        raise ValueError("discrete calibration needs the lattice spacing")
    ij = lattice_offsets(horizon, spacing)
    r = np.linalg.norm(ij, axis=1) * spacing
    cos4 = (ij[:, 0] * spacing / r) ** 4
    lattice_sum = float(np.sum(profile.shape(r, horizon) * r * cos4)) * spacing**2
    return 2.0 * h_xxxx / (params.thickness * lattice_sum)


def discrete_hooke(material: MaterialModel, spacing: float) -> HookeTensor:
    """Effective stiffness tensor of an interior node of the infinite lattice.

    The lattice of central-force bonds has cubic symmetry: xxxx == yyyy and
    the Cauchy relation xxyy == xyxy holds identically.
    """
    ij = lattice_offsets(material.horizon, spacing)
    r = np.linalg.norm(ij, axis=1) * spacing
    e = ij * spacing / r[:, None]
    w = material.bond_amplitude(r) * r * spacing**2 * material.elastic.thickness
    # H = 1/2 * sum of c_b * xi * (e x e x e x e) * V over neighbors
    xxxx = 0.5 * np.sum(w * e[:, 0] ** 4) / material.elastic.thickness
    xxyy = 0.5 * np.sum(w * e[:, 0] ** 2 * e[:, 1] ** 2) / material.elastic.thickness
    return HookeTensor(xxxx=float(xxxx), xxyy=float(xxyy), xyxy=float(xxyy))


def effective_constants(hooke: HookeTensor) -> tuple[float, float]:
    """Uniaxial-stress modulus and lateral-contraction ratio of the lattice.

    These are the constants an analytic reference must use so that finite
    grid effects in the bulk do not pollute a comparison.
    """
    e_eff = (hooke.xxxx**2 - hooke.xxyy**2) / hooke.xxxx
    nu_eff = hooke.xxyy / hooke.xxxx
    return float(e_eff), float(nu_eff)


def correction_factors(points: np.ndarray, directions: np.ndarray, domain: Domain,
                       horizon: float, profile: MicromodulusProfile,
                       edge_indices: np.ndarray | None = None) -> np.ndarray:
    """Direction-dependent stiffening factor for rays from points inside B.

    phi == 1 when the full horizon along the direction lies inside the body;
    phi grows as the boundary cuts the horizon short. Scale invariant: phi
    depends on d/horizon only.
    """
    d = truncated_lengths(points, directions, domain, horizon, edge_indices)
    if np.any(d <= 0):
        raise GeometryError("non-positive truncated length")
    full = profile.radial_moment(horizon, horizon)
    return full / profile.radial_moment(d, horizon)


@dataclass
class CorrectionField:
    """Per-bond endpoint factors and the resulting symmetric coefficient.

    ``coeff`` is c_ij = 1/2 * c_b(xi) * (phi_i + phi_j): each half of the
    pair force carries its own endpoint's stiffening, and the symmetric
    average keeps action equal to reaction exactly. ``bulk`` stores c_b(xi).
    """

    phi_i: np.ndarray
    phi_j: np.ndarray
    bulk: np.ndarray

    @property
    def coeff(self) -> np.ndarray:
        return 0.5 * self.bulk * (self.phi_i + self.phi_j)


def correct_bonds(bonds: BondTable, nodes: NodeSet, domain: Domain,
                  material: MaterialModel, surfaces="all") -> CorrectionField:
    """Per-bond coefficients, optionally stiffened near surfaces.

    ``surfaces`` selects which boundary edges truncate horizons: "all", None
    (no correction anywhere) or a sequence of side names like ("-x", "+x").
    Surfaces covered by virtual-node buffers should be excluded by the
    caller; bonds ending on a virtual node always use phi == 1 on the
    virtual side.

    Every real bond end must lie inside or on the domain, and no truncated
    horizon may be shorter than its bond (GeometryError otherwise). Rays are
    cast only from the ends within the horizon, plus a rounding slack, of an
    active edge. In a convex body a ray meets an edge
    no nearer than the edge segment itself, so every other end's rays would
    reach the horizon and give phi == 1, which it keeps.
    """
    bulk = material.bond_amplitude(bonds.length)
    phi_i = np.ones(bonds.m)
    phi_j = np.ones(bonds.m)
    if surfaces is not None:
        edge_indices = None if surfaces == "all" else domain.side_edge_indices(surfaces)
        real_end = np.zeros(nodes.n, dtype=bool)
        real_end[bonds.i] = real_end[bonds.j] = True
        real_end &= nodes.real_mask
        points = nodes.positions[real_end]
        if not np.all(domain.contains(points)):
            raise GeometryError("ray origin lies outside the domain")
        # covers the crossing test's 1e-10 tolerance on the edge parameter
        # and the rounding of both distances
        slack = 1e-9 * (bonds.horizon + domain.diameter())
        cast = np.zeros(nodes.n, dtype=bool)
        cast[real_end] = domain.boundary_distance(points, edge_indices) <= bonds.horizon + slack
        for phi, ends, signs in ((phi_i, bonds.i, 1.0), (phi_j, bonds.j, -1.0)):
            active = cast[ends]
            phi[active] = correction_factors(
                nodes.positions[ends[active]], signs * bonds.unit[active],
                domain, bonds.horizon, material.profile, edge_indices)
        # a bond's chord must stay inside the truncated horizon of both ends
        full = material.profile.radial_moment(bonds.horizon, bonds.horizon)
        # slack for rounding: a conical moment is flat at the horizon
        limit = (1 + 1e-12) * full / material.profile.radial_moment(
            bonds.length * (1 - 1e-9), bonds.horizon)
        if np.any(phi_i > limit) or np.any(phi_j > limit):
            raise GeometryError(
                "truncated horizon shorter than a bond; domain and bonds disagree")
    return CorrectionField(phi_i=phi_i, phi_j=phi_j, bulk=bulk)
