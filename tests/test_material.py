"""Calibration and surface-correction factors against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdsc import geometry as geo, material as mat, pd_core
from pdsc.analytic import AffineField
from pdsc.geometry import Domain, GridSpec
from pdsc.material import (ElasticParams, MaterialModel, MicromodulusProfile,
                           calibrate_bulk, correction_factors, hooke_plane_stress)

E = 1000.0


def disk_energy_quadrature(c0, profile_kind, horizon, strain,
                           n_r=2000, n_t=4000):
    """Polar-grid quadrature of the neighborhood energy of a bulk point.

    Independent of the closed forms in the package: evaluates
    1/4 * integral c_b(r)/r * (e . strain . r e)^2 dV directly.
    """
    profile = MicromodulusProfile(profile_kind)
    r = (np.arange(n_r) + 0.5) * horizon / n_r
    th = (np.arange(n_t) + 0.5) * 2 * np.pi / n_t
    rr, tt = np.meshgrid(r, th, indexing="ij")
    ex, ey = np.cos(tt), np.sin(tt)
    proj = (ex * (strain[0, 0] * ex + strain[0, 1] * ey)
            + ey * (strain[1, 0] * ex + strain[1, 1] * ey))
    integrand = c0 * profile.shape(rr, horizon) * rr * proj**2 * rr
    da = (horizon / n_r) * (2 * np.pi / n_t)
    return 0.25 * integrand.sum() * da


class TestContinuumCalibration:
    def test_constant_profile_closed_form(self):
        horizon = 5.0
        c0 = calibrate_bulk(ElasticParams(E), "constant", horizon, "continuum")
        assert c0 == pytest.approx(9 * E / (np.pi * horizon**3), rel=1e-12)

    def test_conical_is_four_times_constant(self):
        horizon = 5.0
        cc = calibrate_bulk(ElasticParams(E), "constant", horizon, "continuum")
        assert calibrate_bulk(ElasticParams(E), "conical", horizon,
                              "continuum") == pytest.approx(4 * cc, rel=1e-12)

    @pytest.mark.parametrize("kind", ["constant", "conical"])
    def test_uniaxial_energy_matches_quadrature(self, kind):
        horizon = 2.0
        params = ElasticParams(E)
        c0 = calibrate_bulk(params, kind, horizon, "continuum")
        eps = np.array([[1e-3, 0.0], [0.0, 0.0]])
        w = disk_energy_quadrature(c0, kind, horizon, eps)
        expected = hooke_plane_stress(params).energy_density(eps)
        assert w == pytest.approx(expected, rel=1e-5)

    def test_shear_energy_consistent_with_cauchy_relation(self):
        # with nu = 1/3 the same c0 must reproduce the shear modulus 3E/8
        horizon = 2.0
        params = ElasticParams(E)
        c0 = calibrate_bulk(params, "constant", horizon, "continuum")
        gamma = 2e-3
        eps = np.array([[0.0, gamma / 2], [gamma / 2, 0.0]])
        w = disk_energy_quadrature(c0, "constant", horizon, eps)
        mu = 3 * E / 8
        assert w == pytest.approx(0.5 * mu * gamma**2, rel=1e-5)


class TestDiscreteCalibration:
    def test_within_two_percent_of_continuum_at_m6(self):
        horizon = 1.0
        cd = calibrate_bulk(ElasticParams(E), "constant", horizon, "discrete",
                            horizon / 6)
        cc = calibrate_bulk(ElasticParams(E), "constant", horizon, "continuum")
        assert abs(cd / cc - 1) < 0.02

    def test_uniaxial_lattice_energy_exact(self):
        # the lattice sum reproduces the plane-stress uniaxial-strain energy
        # identically; that is the definition of the discrete mode
        horizon, spacing = 1.0, 1 / 6
        params = ElasticParams(E)
        m = MaterialModel.calibrated(params, horizon, "constant", "discrete", spacing)
        lattice = mat.discrete_hooke(m, spacing)
        assert lattice.xxxx == pytest.approx(hooke_plane_stress(params).xxxx,
                                             rel=1e-12)

    def test_requires_spacing(self):
        with pytest.raises(ValueError):
            calibrate_bulk(ElasticParams(E), "constant", 1.0, "discrete")

    def test_effective_constants_reduce_to_isotropic(self):
        h = mat.HookeTensor(xxxx=9 * E / 8, xxyy=3 * E / 8, xyxy=3 * E / 8)
        e_eff, nu_eff = mat.effective_constants(h)
        assert e_eff == pytest.approx(E, rel=1e-12)
        assert nu_eff == pytest.approx(1 / 3, rel=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: ElasticParams(0.0), "modulus must be positive"),
    (lambda: MicromodulusProfile("cone"), "unknown micro-modulus profile 'cone'"),
    (lambda: calibrate_bulk(ElasticParams(E), "constant", 0.0, "continuum"),
     "horizon must be positive"),
    (lambda: calibrate_bulk(ElasticParams(E), "constant", 1.0, "exact", 0.5),
     "unknown calibration mode 'exact'"),
    # a zero horizon truncates every ray to zero length
    (lambda: correction_factors(np.zeros((1, 2)), np.array([[1.0, 0.0]]),
                                Domain.rectangle(2, 2), 0.0, MicromodulusProfile()),
     "non-positive truncated length"),
], ids=["zero-modulus", "unknown-profile", "zero-horizon", "unknown-mode",
        "zero-horizon-correction"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestCorrectionFactor:
    def test_full_horizon_is_unit(self):
        sq = Domain.rectangle(100, 100)
        for kind in ("constant", "conical"):
            phi = correction_factors([[0, 0]], [[1, 0]], sq, 5.0, MicromodulusProfile(kind))
            assert phi[0] == pytest.approx(1.0, rel=1e-12)

    def test_half_depth_constant(self):
        # truncated at half the horizon: (2)^(D+1) = 8 in 2D
        sq = Domain.rectangle(100, 100)
        phi = correction_factors([[0, 47.5]], [[0, 1]], sq, 5.0,
                                 MicromodulusProfile("constant"))[0]
        assert phi == pytest.approx(8.0, rel=1e-12)

    def test_half_depth_conical(self):
        # ratio of conical radial moments at d = horizon/2 is 16/5
        sq = Domain.rectangle(100, 100)
        phi = correction_factors([[0, 47.5]], [[0, 1]], sq, 5.0,
                                 MicromodulusProfile("conical"))[0]
        assert phi == pytest.approx(3.2, rel=1e-12)
        num = _radial_quadrature("conical", 5.0, 5.0)
        den = _radial_quadrature("conical", 5.0, 2.5)
        assert phi == pytest.approx(num / den, rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(1e-3, 1e3), frac=st.floats(0.05, 1.0),
           kind=st.sampled_from(["constant", "conical"]))
    def test_scale_invariance(self, lam, frac, kind):
        # phi depends on d/horizon only
        profile = MicromodulusProfile(kind)
        base, scaled = 2.0, 2.0 * lam
        phi1 = profile.radial_moment(base, base) / profile.radial_moment(frac * base, base)
        phi2 = profile.radial_moment(scaled, scaled) / profile.radial_moment(
            frac * scaled, scaled)
        assert phi1 == pytest.approx(phi2, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["constant", "conical"]))
    def test_monotone_in_truncation(self, kind):
        profile = MicromodulusProfile(kind)
        horizon = 1.0
        d = np.linspace(0.05, 1.0, 40)
        phi = profile.radial_moment(horizon, horizon) / profile.radial_moment(d, horizon)
        assert np.all(np.diff(phi) <= 1e-12)
        assert phi[-1] == pytest.approx(1.0, rel=1e-12)


def _radial_quadrature(kind, horizon, upper, n=200000):
    profile = MicromodulusProfile(kind)
    r = (np.arange(n) + 0.5) * upper / n
    return float(np.sum(profile.shape(r, horizon) * r**2) * upper / n)


class TestCorrectBonds:
    def _setup(self, surfaces):
        horizon = 6.0
        dom = Domain.rectangle(60, 60)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, 1.0))
        bonds = geo.build_bonds(nodes, horizon)
        m = MaterialModel.calibrated(ElasticParams(E), horizon, "constant",
                                     "discrete", 1.0)
        corr = mat.correct_bonds(bonds, nodes, dom, m, surfaces)
        return nodes, bonds, m, corr

    def test_bulk_bond_unscaled(self):
        nodes, bonds, m, corr = self._setup("all")
        depth = Domain.rectangle(60, 60).boundary_distance(nodes.positions)
        deep = (depth[bonds.i] >= 6.0) & (depth[bonds.j] >= 6.0)
        assert deep.any()
        assert np.allclose(corr.coeff[deep], m.bulk_amplitude)
        assert np.all(corr.coeff >= m.bulk_amplitude * (1 - 1e-12))

    def test_surface_normal_bond_factor(self):
        # bond of one spacing normal to a flat surface, horizon six spacings:
        # the deep end sees the wall at distance one spacing -> 6^3 = 216,
        # the surface end looks inward and is unscaled
        nodes, bonds, m, corr = self._setup("all")
        top = np.argmin(np.linalg.norm(nodes.positions - [0, 30], axis=1))
        below = np.argmin(np.linalg.norm(nodes.positions - [0, 29], axis=1))
        k = np.where((bonds.i == min(top, below)) & (bonds.j == max(top, below)))[0]
        assert len(k) == 1
        phi = np.array([corr.phi_i[k[0]], corr.phi_j[k[0]]])
        assert sorted(phi.tolist()) == [pytest.approx(1.0), pytest.approx(216.0)]
        assert corr.coeff[k[0]] == pytest.approx(0.5 * m.bulk_amplitude * 217)

    def test_disabled_correction(self):
        nodes, bonds, m, corr = self._setup(None)
        assert np.allclose(corr.phi_i, 1.0)
        assert np.allclose(corr.coeff, m.bulk_amplitude)

    def test_side_mask_leaves_masked_surfaces_uncorrected(self):
        nodes, bonds, m, corr = self._setup(("-x", "+x"))
        # a vertical bond near the top surface is unscaled under the side mask
        top = np.argmin(np.linalg.norm(nodes.positions - [0, 30], axis=1))
        below = np.argmin(np.linalg.norm(nodes.positions - [0, 29], axis=1))
        k = np.where((bonds.i == min(top, below)) & (bonds.j == max(top, below)))[0]
        assert corr.coeff[k[0]] == pytest.approx(m.bulk_amplitude)
        # while a horizontal bond near a side surface is scaled
        side = np.argmin(np.linalg.norm(nodes.positions - [-30, 0], axis=1))
        nxt = np.argmin(np.linalg.norm(nodes.positions - [-29, 0], axis=1))
        k2 = np.where((bonds.i == min(side, nxt)) & (bonds.j == max(side, nxt)))[0]
        assert corr.coeff[k2[0]] > m.bulk_amplitude

    def test_virtual_endpoints_unscaled(self):
        horizon = 1.0
        dom = Domain.rectangle(4, 4)
        nodes = geo.build_grid(dom, GridSpec.cell_centered(dom, 1 / 6))
        nodes = geo.add_virtual_layers(nodes, dom, "+y", 6)
        bonds = geo.build_bonds(nodes, horizon)
        m = MaterialModel.calibrated(ElasticParams(E), horizon, "constant",
                                     "discrete", 1 / 6)
        corr = mat.correct_bonds(bonds, nodes, dom, m, ("-x", "+x"))
        virt_i = nodes.virtual_mask[bonds.i]
        virt_j = nodes.virtual_mask[bonds.j]
        assert np.allclose(corr.phi_i[virt_i], 1.0)
        assert np.allclose(corr.phi_j[virt_j], 1.0)

    def test_symmetry_under_orientation(self):
        # the averaged coefficient is independent of which end is stored first
        nodes, bonds, m, corr = self._setup("all")
        flipped = geo.BondTable(bonds.j, bonds.i, -bonds.xi, bonds.length,
                                -bonds.unit, bonds.horizon)
        corr2 = mat.correct_bonds(flipped, nodes, dom := Domain.rectangle(60, 60),
                                  m, "all")
        assert np.allclose(corr.coeff, corr2.coeff, rtol=1e-12)


def _unscreened(bonds, nodes, domain, material, surfaces):
    """phi_i, phi_j and coeff with a ray cast from every real bond end."""
    edges = None if surfaces == "all" else domain.side_edge_indices(surfaces)
    phis = []
    for ends, sign in ((bonds.i, 1.0), (bonds.j, -1.0)):
        phi = np.ones(bonds.m)
        real = nodes.real_mask[ends]
        phi[real] = mat.correction_factors(nodes.positions[ends[real]],
                                           sign * bonds.unit[real], domain,
                                           bonds.horizon, material.profile, edges)
        phis.append(phi)
    bulk = material.bond_amplitude(bonds.length)
    return phis[0], phis[1], 0.5 * bulk * (phis[0] + phis[1])


def _screen_case(case):
    """Domain, nodes and active surfaces of one ray-screen case."""
    if case == "polygon":
        dom = Domain(np.array([[0.0, 0.0], [9.0, 1.0], [10.0, 6.0], [4.0, 9.5],
                               [-1.0, 5.0]]))
        return dom, geo.build_grid(dom, GridSpec.covering(dom, 0.5)), "all"
    dom = Domain.rectangle(8.0, 6.0)
    if case == "sides-virtual":
        nodes = geo.build_grid(dom, GridSpec.cell_centered(dom, 0.5))
        for side in ("+y", "-y"):
            nodes = geo.add_virtual_layers(nodes, dom, side, 3)
        return dom, nodes, ("-x", "+x")
    # covering grid: rows and columns at exactly one horizon from each edge
    return dom, geo.build_grid(dom, GridSpec.covering(dom, 0.5)), "all"


class TestRayScreen:
    """Rays are cast only near active edges, with the unscreened result."""

    @pytest.mark.parametrize("case", ["rectangle", "sides-virtual", "polygon"])
    @pytest.mark.parametrize("kind", ["constant", "conical"])
    def test_equals_unscreened_cast(self, case, kind, monkeypatch):
        horizon = 1.5
        dom, nodes, surfaces = _screen_case(case)
        bonds = geo.build_bonds(nodes, horizon)
        m = MaterialModel.calibrated(ElasticParams(E), horizon, kind, "discrete", 0.5)
        phi_i, phi_j, coeff = _unscreened(bonds, nodes, dom, m, surfaces)
        rays = []
        cast = mat.truncated_lengths
        monkeypatch.setattr(mat, "truncated_lengths",
                            lambda o, *a: rays.append(len(o)) or cast(o, *a))
        corr = mat.correct_bonds(bonds, nodes, dom, m, surfaces)
        for got, want in ((corr.phi_i, phi_i), (corr.phi_j, phi_j), (corr.coeff, coeff)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        real_ends = (nodes.real_mask[bonds.i].sum() + nodes.real_mask[bonds.j].sum())
        assert 0 < sum(rays) < real_ends

    def test_node_at_one_horizon_is_cast(self, monkeypatch):
        horizon = 1.5
        dom, nodes, _ = _screen_case("rectangle")
        depth = dom.boundary_distance(nodes.positions)
        assert np.sum(depth == horizon) > 0
        bonds = geo.build_bonds(nodes, horizon)
        m = MaterialModel.calibrated(ElasticParams(E), horizon, "constant",
                                     "discrete", 0.5)
        origins = []
        cast = mat.truncated_lengths
        monkeypatch.setattr(mat, "truncated_lengths",
                            lambda o, *a: origins.append(o) or cast(o, *a))
        mat.correct_bonds(bonds, nodes, dom, m, "all")
        # the equality with an unscreened cast is test_equals_unscreened_cast's
        ray_depth = dom.boundary_distance(np.concatenate(origins))
        assert np.any(ray_depth == horizon) and ray_depth.max() == horizon

    def test_no_surfaces_is_unscaled(self):
        dom, nodes, _ = _screen_case("rectangle")
        bonds = geo.build_bonds(nodes, 1.5)
        m = MaterialModel.calibrated(ElasticParams(E), 1.5, "constant", "discrete", 0.5)
        corr = mat.correct_bonds(bonds, nodes, dom, m, ())
        assert np.all(corr.phi_i == 1.0) and np.all(corr.phi_j == 1.0)
        assert np.array_equal(corr.coeff, corr.bulk)

    def test_real_node_beyond_an_inactive_edge_is_refused(self):
        # farther than the horizon from both active edges, so it casts no ray
        dom, nodes, _ = _screen_case("rectangle")
        out = geo.NodeSet(np.vstack([nodes.positions, [[0.0, 3.25]]]),
                          np.append(nodes.volumes, 0.25),
                          np.append(nodes.roles, geo.ROLE_INTERIOR).astype(np.uint8),
                          nodes.spacing)
        bonds = geo.build_bonds(out, 1.5)
        m = MaterialModel.calibrated(ElasticParams(E), 1.5, "constant", "discrete", 0.5)
        with pytest.raises(geo.GeometryError, match="ray origin lies outside the domain"):
            mat.correct_bonds(bonds, out, dom, m, ("-x", "+x"))

    def test_surface_under_a_buffer_is_refused(self):
        # the bonds into the +y buffer cross the +y edge, which truncates
        # their horizons short of them once that edge is corrected
        dom = Domain.rectangle(4.0, 4.0)
        nodes = geo.add_virtual_layers(
            geo.build_grid(dom, GridSpec.cell_centered(dom, 0.5)), dom, "+y", 3)
        bonds = geo.build_bonds(nodes, 1.5)
        m = MaterialModel.calibrated(ElasticParams(E), 1.5, "constant", "discrete", 0.5)
        for surfaces in (None, ("-x", "+x")):  # the shipped virtual variants
            mat.correct_bonds(bonds, nodes, dom, m, surfaces)
        with pytest.raises(geo.GeometryError, match="truncated horizon shorter than a bond"):
            mat.correct_bonds(bonds, nodes, dom, m, "all")


class TestSurfaceSoftening:
    def test_uncorrected_surface_energy_deficit(self):
        # without correction, a surface node stores less energy than the bulk
        # under stretch normal to the surface
        horizon, spacing = 1.0, 1 / 6
        dom = Domain.rectangle(8, 4)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, spacing))
        bonds = geo.build_bonds(nodes, horizon)
        m = MaterialModel.calibrated(ElasticParams(E), horizon, "constant",
                                     "discrete", spacing)
        corr = mat.correct_bonds(bonds, nodes, dom, m, None)
        eps = np.array([[0.0, 0.0], [0.0, 1e-3]])
        u = AffineField(eps).displacements(nodes.positions)
        w = pd_core.strain_energy_density(nodes, bonds, corr, u)
        surface = np.argmin(np.linalg.norm(nodes.positions - [0, 2], axis=1))
        bulk = np.argmin(np.linalg.norm(nodes.positions, axis=1))
        assert w[surface] < 0.6 * w[bulk]
