"""Plane-stress Q4 reference: patch tests, energies, clamped-sheet behavior."""

import numpy as np
import pytest

from pdsc import analytic, bench_cli, fem_ref, pd_core
from pdsc.bench_cli import edge_traction_loads
from pdsc.fem_ref import FEMesh, fem_assemble, fem_energy_density
from pdsc.geometry import Domain, GridSpec
from pdsc.material import ElasticParams, hooke_plane_stress
from pdsc.pd_core import BCSet

E = 1000.0


def make_mesh(size_x, size_y, spacing):
    dom = Domain.rectangle(size_x, size_y)
    return dom, FEMesh.from_grid(dom, GridSpec.covering(dom, spacing))


def solve_with_boundary_field(mesh, k, field):
    """Prescribe the analytic field on the mesh boundary, solve the interior."""
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    tol = 1e-9 * mesh.spacing
    on_boundary = ((np.abs(mesh.nodes[:, 0] - lo[0]) < tol)
                   | (np.abs(mesh.nodes[:, 0] - hi[0]) < tol)
                   | (np.abs(mesh.nodes[:, 1] - lo[1]) < tol)
                   | (np.abs(mesh.nodes[:, 1] - hi[1]) < tol))
    ids = np.where(on_boundary)[0]
    target = field(mesh.nodes[ids])
    bcs = BCSet(len(mesh.nodes))
    bcs.prescribe(ids, ux=target[:, 0], uy=target[:, 1])
    return analytic.dense_oracle_solve(k, bcs)


class TestPatch:
    @pytest.mark.parametrize("eps", [
        np.array([[1e-3, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, -2e-3]]),
        np.array([[0.0, 5e-4], [5e-4, 0.0]]),
        np.array([[1e-3, 4e-4], [4e-4, -7e-4]]),
    ])
    def test_affine_fields_reproduced(self, eps):
        dom, mesh = make_mesh(4, 3, 0.5)
        law = ElasticParams(E)
        k = fem_assemble(mesh, law)
        field = analytic.AffineField(eps).displacements
        u = solve_with_boundary_field(mesh, k, field)
        assert np.abs(u - field(mesh.nodes)).max() < 1e-10

    def test_rigid_translation_zero_force(self):
        dom, mesh = make_mesh(2, 2, 0.5)
        k = fem_assemble(mesh, ElasticParams(E))
        u = np.tile([1.7, -0.4], (len(mesh.nodes), 1)).ravel()
        assert np.abs(k @ u).max() < 1e-9 * np.abs(k.data).max()

    def test_single_element_constant_stress(self):
        dom, mesh = make_mesh(1, 1, 1.0)
        law = ElasticParams(E)
        ke = fem_ref.element_stiffness(1.0, law)
        eps = 1e-3
        u = np.zeros((4, 2))
        u[:, 0] = eps * mesh.nodes[mesh.elements[0], 0]
        f = ke @ u.ravel()
        # consistent nodal forces of a constant stress state: equal and
        # opposite on the two x-faces
        sig_xx = hooke_plane_stress(law).xxxx * eps
        assert abs(f[0] + f[6] + sig_xx * 1.0) < 1e-12 * E
        assert abs(f.sum()) < 1e-12 * E

    def test_no_stored_zero(self):
        # interior entries whose element contributions cancel are dropped
        dom, mesh = make_mesh(4, 3, 0.5)
        k = fem_assemble(mesh, ElasticParams(E))
        assert k.nnz and not (k.data == 0.0).any()

    def test_operator_symmetric_psd(self):
        dom, mesh = make_mesh(3, 2, 0.5)
        k = fem_assemble(mesh, ElasticParams(E))
        diff = (k - k.T).tocoo()
        assert len(diff.data) == 0 or np.abs(diff.data).max() < 1e-12 * np.abs(k.data).max()
        v = np.random.default_rng(7).normal(size=k.shape[0])
        assert v @ (k @ v) >= -1e-12 * np.abs(k.data).max() * (v @ v)


class TestTractionExactness:
    def test_uniform_end_traction_matches_analytic(self):
        # constant-stress states are exactly representable by Q4 elements
        dom, mesh = make_mesh(10, 20, 1.0)
        law = ElasticParams(E)
        k = fem_assemble(mesh, law)
        traction = 1.0
        bcs = BCSet(len(mesh.nodes))
        tol = 1e-9
        top = np.where(np.abs(mesh.nodes[:, 1] - 10) < tol)[0]
        bottom = np.where(np.abs(mesh.nodes[:, 1] + 10) < tol)[0]
        edge_traction_loads(bcs, top, mesh.nodes, traction)
        edge_traction_loads(bcs, bottom, mesh.nodes, -traction)
        center = int(np.argmin(np.linalg.norm(mesh.nodes, axis=1)))
        axis = np.where(np.abs(mesh.nodes[:, 0]) < tol)[0]
        partner = int(axis[np.argmax(mesh.nodes[axis, 1])])
        bcs.prescribe([center], ux=0.0, uy=0.0)
        bcs.prescribe([partner], ux=0.0)
        u = analytic.dense_oracle_solve(k, bcs)
        ref = analytic.uniaxial_solution(E, 1 / 3, traction)(mesh.nodes)
        assert np.abs(u - ref).max() < 1e-8 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_edge_weights_are_trapezoidal(self, n):
        # reference: half the neighbour gap at each end, half the span between
        # neighbours inside; a lone node carries nothing
        x = np.sort(np.random.default_rng(n).uniform(-2.0, 2.0, n))
        ref = np.zeros(n)
        if n > 1:
            ref[1:-1] = 0.5 * (x[2:] - x[:-2])
            ref[0], ref[-1] = 0.5 * (x[1] - x[0]), 0.5 * (x[-1] - x[-2])
        assert np.array_equal(bench_cli._edge_weights(x), ref)


class TestEnergy:
    def test_zero_field(self):
        dom, mesh = make_mesh(2, 2, 0.5)
        law = ElasticParams(E)
        w = fem_energy_density(mesh, law, np.zeros((len(mesh.nodes), 2)))
        assert np.all(w == 0.0)

    def test_affine_energy_uniform(self):
        dom, mesh = make_mesh(3, 2, 0.5)
        law = ElasticParams(E)
        eps = np.array([[1e-3, 2e-4], [2e-4, -5e-4]])
        u = analytic.AffineField(eps).displacements(mesh.nodes)
        w = fem_energy_density(mesh, law, u)
        expected = hooke_plane_stress(law).energy_density(eps)
        assert np.allclose(w, expected, rtol=1e-10)

    def test_total_energy_matches_operator(self):
        dom, mesh = make_mesh(4, 3, 0.5)
        law = ElasticParams(E)
        k = fem_assemble(mesh, law)
        rng = np.random.default_rng(3)
        u = rng.normal(size=(len(mesh.nodes), 2)) * 1e-3
        w = fem_energy_density(mesh, law, u)
        # invert the nodal averaging: sum element energies directly
        ke = fem_ref.element_stiffness(mesh.spacing, law)
        dofs = np.empty((len(mesh.elements), 8), dtype=int)
        dofs[:, 0::2] = 2 * mesh.elements
        dofs[:, 1::2] = 2 * mesh.elements + 1
        ue = u.ravel()[dofs]
        total = 0.5 * np.einsum("ea,ab,eb->", ue, ke, ue)
        assert total == pytest.approx(0.5 * u.ravel() @ (k @ u.ravel()), rel=1e-10)
        assert np.all(w >= 0.0)

    def test_nodal_average_matches_corner_loop(self):
        # reference: each corner's densities added element by element, in order
        dom, mesh = make_mesh(6, 4, 0.5)
        law = ElasticParams(E)
        u = np.random.default_rng(5).normal(size=(len(mesh.nodes), 2)) * 1e-3
        ke = fem_ref.element_stiffness(mesh.spacing, law)
        ue = u.ravel()[mesh.element_dofs]
        density = 0.5 * np.einsum("ea,ab,eb->e", ue, ke, ue) / mesh.spacing**2
        total, count = np.zeros(len(mesh.nodes)), np.zeros(len(mesh.nodes))
        for corner in range(4):
            np.add.at(total, mesh.elements[:, corner], density)
            np.add.at(count, mesh.elements[:, corner], 1.0)
        assert np.array_equal(fem_energy_density(mesh, law, u), total / count)


class TestClampedSheet:
    def _clamped_stress(self, spacing):
        size = 4.0
        dom, mesh = make_mesh(size, size, spacing)
        law = ElasticParams(E)
        k = fem_assemble(mesh, law)
        tol = 1e-9 * spacing
        top = np.where(np.abs(mesh.nodes[:, 1] - size / 2) < tol)[0]
        bottom = np.where(np.abs(mesh.nodes[:, 1] + size / 2) < tol)[0]
        bcs = BCSet(len(mesh.nodes))
        bcs.prescribe(top, ux=0.0, uy=0.01 * size / 2)
        bcs.prescribe(bottom, ux=0.0, uy=-0.01 * size / 2)
        u, _ = pd_core.solve_static(k, bcs, tol=1e-12)
        force = pd_core.reaction_force(k, u, bcs, top)[1]
        w = fem_energy_density(mesh, law, u)
        return abs(force) / size, mesh, w

    def test_grid_convergence_under_refinement(self):
        coarse, _, _ = self._clamped_stress(1 / 6)
        fine, _, _ = self._clamped_stress(1 / 12)
        assert abs(fine / coarse - 1) < 0.01

    def test_corner_energy_concentration(self):
        stress, mesh, w = self._clamped_stress(1 / 6)
        peak = mesh.nodes[np.argmax(w)]
        corners = np.array([[-2, -2], [2, -2], [2, 2], [-2, 2]])
        assert np.min(np.linalg.norm(corners - peak, axis=1)) < 0.3
        # free-edge midpoints carry clearly less energy than the corners
        mid_side = np.argmin(np.linalg.norm(mesh.nodes - [2, 0], axis=1))
        assert w[mid_side] < 0.5 * w.max()
