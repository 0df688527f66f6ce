"""Closed-form fields, error metrics and the dense solve oracle."""

import numpy as np
import pytest

from pdsc import analytic, fem_ref, pd_core
from pdsc.analytic import (AffineField, RankDeficiency, dense_oracle_solve,
                           relative_error_field, uniaxial_solution)
from pdsc.geometry import Domain, GridSpec
from pdsc.material import POISSON, ElasticParams
from pdsc.pd_core import BCSet

E = 1000.0


class TestUniaxialSolution:
    def test_axial_value(self):
        field = uniaxial_solution(E, 1 / 3, 1.0)
        u = field(np.array([[0.0, 50.0]]))
        assert u[0, 1] == pytest.approx(0.05)

    def test_symmetry_axis_zero(self):
        field = uniaxial_solution(E, 1 / 3, 1.0)
        u = field(np.array([[0.0, 12.0], [0.0, -3.0]]))
        assert np.all(u[:, 0] == 0.0)

    def test_lateral_contraction(self):
        # nu/E * sigma * x = (1/3) * 1e-3 * 25 inward
        field = uniaxial_solution(E, 1 / 3, 1.0)
        u = field(np.array([[25.0, 0.0]]))
        assert u[0, 0] == pytest.approx(-8.333333333e-3, rel=1e-8)

    def test_interior_equilibrium_under_fem_operator(self):
        # the constant-stress field leaves zero residual on interior nodes
        dom = Domain.rectangle(6, 8)
        mesh = fem_ref.FEMesh.from_grid(dom, GridSpec.covering(dom, 1.0))
        law = ElasticParams(E)
        k = fem_ref.fem_assemble(mesh, law)
        u = uniaxial_solution(E, POISSON, 1.0)(mesh.nodes)
        r = (k @ u.ravel()).reshape(-1, 2)
        interior = dom.boundary_distance(mesh.nodes) > 0.5
        assert np.abs(r[interior]).max() < 1e-12 * E


class TestAffineField:
    def test_rejects_asymmetric_strain(self):
        with pytest.raises(ValueError):
            AffineField(np.array([[0.0, 1e-3], [0.0, 0.0]]))

    def test_displacements(self):
        eps = np.array([[1e-3, 0.0], [0.0, -2e-3]])
        u = AffineField(eps, origin=(1.0, 1.0)).displacements(np.array([[2.0, 3.0]]))
        assert u[0] == pytest.approx([1e-3, -4e-3])


class TestRelativeErrorField:
    def test_identical_fields(self):
        u = np.random.default_rng(0).normal(size=(10, 2))
        err, included, mx = relative_error_field(u, u)
        assert mx.tolist() == [0.0, 0.0]
        assert included.all()

    def test_exclusion_of_reference_zeros(self):
        u_ref = np.array([[0.0, 1.0], [2.0, 0.0]])
        u_num = np.array([[5.0, 1.1], [2.2, 7.0]])
        err, included, mx = relative_error_field(u_num, u_ref)
        assert not included[0, 0] and not included[1, 1]
        assert mx[0] == pytest.approx(0.1)
        assert mx[1] == pytest.approx(0.1)

    def test_swap_transforms_errors(self):
        # swapping numeric and reference maps e to e/(1+e) on nonzero nodes
        u_ref = np.array([[1.0, 2.0]])
        u_num = np.array([[1.5, 1.0]])
        err_ab, _, _ = relative_error_field(u_num, u_ref)
        err_ba, _, _ = relative_error_field(u_ref, u_num)
        assert err_ba[0, 0] == pytest.approx(err_ab[0, 0] / (1 + err_ab[0, 0]))
        assert err_ba[0, 1] == pytest.approx(err_ab[0, 1] / (1 - err_ab[0, 1]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            relative_error_field(np.zeros((3, 2)), np.zeros((4, 2)))


class TestDenseOracle:
    def test_single_dof_spring(self):
        import scipy.sparse as sp
        k = sp.csr_matrix(np.diag([4.0, 3.0]))
        bcs = BCSet(1)
        bcs.prescribe([0], uy=0.0)
        bcs.add_load([0], fx=2.0)
        u = dense_oracle_solve(k, bcs)
        assert u[0, 0] == pytest.approx(0.5)

    def test_underconstrained_reports_rank_deficiency(self):
        from pdsc import geometry as geo, material as mat
        from pdsc.material import ElasticParams, MaterialModel
        dom = Domain.rectangle(3, 3)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, 1.0))
        bonds = geo.build_bonds(nodes, 1.5)
        m = MaterialModel.calibrated(ElasticParams(E), 1.5, "constant",
                                     "discrete", 1.0)
        corr = mat.correct_bonds(bonds, nodes, dom, m, None)
        k = pd_core.assemble(nodes, bonds, corr)
        bcs = BCSet(nodes.n)  # nothing fixes the rigid modes
        with pytest.raises(RankDeficiency):
            dense_oracle_solve(k, bcs)

    def test_size_guard(self):
        import scipy.sparse as sp
        k = sp.eye(6000, format="csr")
        with pytest.raises(ValueError):
            dense_oracle_solve(k, BCSet(3000))
