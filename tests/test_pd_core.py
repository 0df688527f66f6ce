"""Operator assembly, solves, energies, reactions and contact stepping."""

import copy
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
from scipy.linalg import cho_factor

from pdsc import analytic, fem_ref, geometry as geo, material as mat, pd_core
from pdsc.analytic import AffineField
from pdsc.geometry import Domain, GridSpec
from pdsc.material import CorrectionField, ElasticParams, MaterialModel
from pdsc.pd_core import BCSet, RampSolver, SolverFailure

E = 1000.0


def operator(kind):
    """Node positions and stiffness of a bond lattice or a Q4 mesh."""
    if kind == "bonds":
        # taller than wide, so the first cut is across y; at an integer
        # horizon/spacing the longest y reach is a vertical bond, whose x rows
        # are exactly zero
        _, nodes, _, _, _, k = small_model(nx=11, ny=14, horizon=3.0)
        return nodes.positions, k
    dom = Domain.rectangle(11.0, 9.0)
    mesh = fem_ref.FEMesh.from_grid(dom, GridSpec.covering(dom, 1.0))
    return mesh.nodes, fem_ref.fem_assemble(mesh, ElasticParams(E))


def small_model(nx=6, ny=6, spacing=1.0, horizon=2.5, surfaces="all"):
    dom = Domain.rectangle((nx - 1) * spacing, (ny - 1) * spacing)
    nodes = geo.build_grid(dom, GridSpec.covering(dom, spacing))
    bonds = geo.build_bonds(nodes, horizon)
    m = MaterialModel.calibrated(ElasticParams(E), horizon, "constant",
                                 "discrete", spacing)
    corr = mat.correct_bonds(bonds, nodes, dom, m, surfaces)
    k = pd_core.assemble(nodes, bonds, corr)
    return dom, nodes, bonds, m, corr, k


def ramp_solver(k, base, positions, **kwargs):
    """A RampSolver on the nested-dissection tree of the nodes at ``positions``."""
    tree = pd_core.nested_dissection(positions, pd_core._operator_reach(positions, k))
    return RampSolver(RampSolver.reduced(k, base, tree), tree, **kwargs)


def _assemble_reference(nodes, bonds, correction):
    """K as the sum of three matrices: the bond blocks, their transpose and the
    node blocks."""
    n = nodes.n
    w = (correction.coeff / bonds.length
         * nodes.volumes[bonds.i] * nodes.volumes[bonds.j])
    ex, ey = bonds.unit[:, 0], bonds.unit[:, 1]
    bxx, bxy, byy = w * ex * ex, w * ex * ey, w * ey * ey
    i2, j2 = 2 * bonds.i.astype(np.int64), 2 * bonds.j.astype(np.int64)
    rows = np.concatenate([i2, i2, i2 + 1, i2 + 1])
    cols = np.concatenate([j2, j2 + 1, j2, j2 + 1])
    data = np.concatenate([-bxx, -bxy, -bxy, -byy])
    coupling = sp.coo_matrix((data, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()
    dxx = np.bincount(bonds.i, bxx, n) + np.bincount(bonds.j, bxx, n)
    dxy = np.bincount(bonds.i, bxy, n) + np.bincount(bonds.j, bxy, n)
    dyy = np.bincount(bonds.i, byy, n) + np.bincount(bonds.j, byy, n)
    idx = 2 * np.arange(n, dtype=np.int64)
    drows = np.concatenate([idx, idx, idx + 1, idx + 1])
    dcols = np.concatenate([idx, idx + 1, idx, idx + 1])
    ddata = np.concatenate([dxx, dxy, dxy, dyy])
    diag = sp.coo_matrix((ddata, (drows, dcols)), shape=(2 * n, 2 * n)).tocsr()
    return (coupling + coupling.T + diag).tocsr()


def _assembly_case(case):
    """Nodes, bonds and correction of one assembly case."""
    if case == "virtual":
        # the clamped sheet's virtual-node lattice at horizon / 6
        dom = Domain.rectangle(4.0, 4.0)
        nodes = geo.build_grid(dom, GridSpec.cell_centered(dom, 1 / 6))
        for side in ("+y", "-y"):
            nodes = geo.add_virtual_layers(nodes, dom, side, 6)
        bonds = geo.build_bonds(nodes, 1.0)
        m = MaterialModel.calibrated(ElasticParams(E), 1.0, "constant",
                                     "discrete", 1 / 6)
        return nodes, bonds, mat.correct_bonds(bonds, nodes, dom, m, ("-x", "+x"))
    if case == "empty":
        _, nodes, _, _, _, _ = small_model()
        bonds = geo.build_bonds(nodes, 0.5)
        return nodes, bonds, CorrectionField(*(np.ones(0),) * 3)
    horizon = 1.5 if case == "axis-bonds-zero-xy" else 3.0
    _, nodes, bonds, _, corr, _ = small_model(nx=11, ny=14, horizon=horizon)
    if case == "shuffled":
        p = np.random.default_rng(5).permutation(bonds.m)
        bonds = geo.BondTable(bonds.i[p], bonds.j[p], bonds.xi[p], bonds.length[p],
                              bonds.unit[p], bonds.horizon)
        corr = CorrectionField(corr.phi_i[p], corr.phi_j[p], corr.bulk[p])
    return nodes, bonds, corr


class TestAssemble:
    def test_two_node_block(self):
        # one bond along x: the x-dof block is (c V^2 / xi) [[1,-1],[-1,1]]
        pos = np.array([[0.0, 0.0], [2.0, 0.0]])
        vol = np.array([3.0, 3.0])
        nodes = geo.NodeSet(pos, vol, np.zeros(2, np.uint8), 2.0)
        bonds = geo.build_bonds(nodes, 2.5)
        c = 7.0
        corr = CorrectionField(phi_i=np.ones(1), phi_j=np.ones(1), bulk=np.array([c]))
        k = pd_core.assemble(nodes, bonds, corr).toarray()
        w = c * 9.0 / 2.0
        expect = np.zeros((4, 4))
        expect[np.ix_([0, 2], [0, 2])] = w * np.array([[1, -1], [-1, 1]])
        assert np.allclose(k, expect)

    def test_translation_null_space(self):
        _, nodes, _, _, _, k = small_model()
        for shift in ([1.0, 0.0], [0.0, 1.0], [2.5, -3.5]):
            u = np.tile(shift, (nodes.n, 1)).ravel()
            assert np.abs(k @ u).max() < 1e-9 * np.abs(k.data).max()

    def test_linearized_rotation_null_space(self):
        # the skew part of an affine map produces no bond force at first order
        _, nodes, _, _, _, k = small_model()
        omega = 1e-3
        u = np.stack([-omega * nodes.positions[:, 1],
                      omega * nodes.positions[:, 0]], axis=1).ravel()
        assert np.abs(k @ u).max() < 1e-12 * np.abs(k.data).max()

    def test_symmetry_exact(self):
        _, _, _, _, _, k = small_model()
        diff = (k - k.T).tocoo()
        assert len(diff.data) == 0 or np.abs(diff.data).max() == 0.0

    @pytest.mark.parametrize("case", ["corrected", "virtual", "axis-bonds-zero-xy",
                                      "shuffled", "empty"])
    def test_matches_three_matrix_formula(self, case):
        nodes, bonds, corr = _assembly_case(case)
        assert (bonds.m == 0) == (case == "empty")
        got, want = pd_core.assemble(nodes, bonds, corr), _assemble_reference(nodes, bonds, corr)
        for name in ("indptr", "indices"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
        assert got.has_canonical_format and want.has_canonical_format
        if case == "empty":
            # empty bond arrays flow through the correction and the energy
            dom, _, _, m, _, _ = small_model()
            for surfaces in ("all", ("-x", "+x")):
                field = mat.correct_bonds(bonds, nodes, dom, m, surfaces)
                assert field.phi_i.shape == field.phi_j.shape == (0,)
            w = pd_core.strain_energy_density(nodes, bonds, corr, np.ones((nodes.n, 2)))
            assert np.array_equal(w, np.zeros(nodes.n))
        if case == "axis-bonds-zero-xy":
            # an x-y entry is stored for each diagonal bond and no axis bond
            stored = sp.csr_matrix((np.ones(got.nnz), got.indices, got.indptr), got.shape)
            held = np.asarray(stored[2 * bonds.i, 2 * bonds.j + 1]).ravel() == 1
            along = (bonds.xi == 0).any(axis=1)
            assert along.any() and np.array_equal(held, ~along)

    def test_peak_memory_within_3_5_times_the_operator(self):
        nodes, bonds, corr = _assembly_case("virtual")
        tracemalloc.start()
        try:
            k = pd_core.assemble(nodes, bonds, corr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (k.data.nbytes + k.indices.nbytes + k.indptr.nbytes)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_positive_semidefinite(self, seed):
        _, nodes, _, _, _, k = small_model()
        v = np.random.default_rng(seed).normal(size=k.shape[0])
        quad = v @ (k @ v)
        assert quad >= -1e-12 * np.abs(k.data).max() * (v @ v)


class TestEnergyConsistency:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           surfaces=st.sampled_from(["all", None]))
    def test_operator_energy_equals_lattice_sum(self, seed, surfaces):
        # 1/2 u^T K u must equal the per-node energy sum for any field
        dom, nodes, bonds, m, corr, k = small_model(surfaces=surfaces)
        u = np.random.default_rng(seed).normal(size=(nodes.n, 2)) * 1e-3
        quad = 0.5 * u.ravel() @ (k @ u.ravel())
        w = pd_core.strain_energy_density(nodes, bonds, corr, u)
        total = float((w * nodes.volumes).sum())
        assert total == pytest.approx(quad, rel=1e-10)

    def test_zero_field_zero_energy(self):
        dom, nodes, bonds, m, corr, _ = small_model()
        w = pd_core.strain_energy_density(nodes, bonds, corr,
                                          np.zeros((nodes.n, 2)))
        assert np.all(w == 0.0)

    def test_bulk_affine_energy_density(self):
        # interior node energy equals the lattice-tensor value for any strain
        dom, nodes, bonds, m, corr, _ = small_model(nx=13, ny=13, spacing=0.5,
                                                    horizon=1.5)
        lattice = mat.discrete_hooke(m, 0.5)
        eps = np.array([[2e-3, 5e-4], [5e-4, -1e-3]])
        u = AffineField(eps).displacements(nodes.positions)
        w = pd_core.strain_energy_density(nodes, bonds, corr, u)
        center = np.argmin(np.linalg.norm(nodes.positions, axis=1))
        assert dom.boundary_distance(nodes.positions)[center] >= 1.5
        assert w[center] == pytest.approx(lattice.energy_density(eps), rel=1e-10)


class TestSolveStatic:
    def test_free_node_between_pulled_ends(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        nodes = geo.NodeSet(pos, np.ones(3), np.zeros(3, np.uint8), 1.0)
        bonds = geo.build_bonds(nodes, 1.5)
        corr = CorrectionField(np.ones(bonds.m), np.ones(bonds.m), np.full(bonds.m, 5.0))
        k = pd_core.assemble(nodes, bonds, corr)
        bcs = BCSet(3)
        bcs.prescribe([0], ux=-0.01, uy=0.0)
        bcs.prescribe([2], ux=0.01, uy=0.0)
        bcs.prescribe([1], uy=0.0)
        u, _ = pd_core.solve_static(k, bcs)
        assert u[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_problem(self):
        _, nodes, _, _, _, k = small_model()
        bcs = BCSet(nodes.n)
        bcs.prescribe([0], ux=0.0, uy=0.0)
        bcs.prescribe([5], uy=0.0)
        u, diag = pd_core.solve_static(k, bcs)
        assert np.all(u == 0.0)
        assert diag.method == "pcg" and diag.iterations == 0

    def test_pcg_matches_dense_oracle(self):
        # 5x5 grid, loaded edge: iterative and dense-factorization solutions
        # agree to 1e-8
        dom, nodes, bonds, m, corr, k = small_model(nx=5, ny=5)
        bcs = BCSet(nodes.n)
        bottom = nodes.on_side(dom, "-y")
        top = nodes.on_side(dom, "+y")
        bcs.prescribe(bottom, ux=0.0, uy=0.0)
        bcs.add_load(top, fy=0.5)
        u_pcg, diag = pd_core.solve_static(k, bcs, tol=1e-12)
        u_dense = analytic.dense_oracle_solve(k, bcs)
        scale = np.abs(u_dense).max()
        assert np.abs(u_pcg - u_dense).max() < 1e-8 * scale
        assert diag.method == "pcg" and diag.iterations > 0

    def test_pcg_and_ramp_factor_match_dense_oracle(self):
        # the bottom row is held at a nonzero displacement, so the right-hand
        # side of every solve carries the prescribed field's term -K u_p
        dom, nodes, bonds, m, corr, k = small_model(nx=7, ny=5)
        bcs = BCSet(nodes.n)
        bcs.prescribe(nodes.on_side(dom, "-y"), ux=0.004, uy=-0.002)
        bcs.add_load(nodes.on_side(dom, "+y"), fy=0.3)
        u_a, _ = pd_core.solve_static(k, bcs, tol=1e-12)
        u_b = analytic.dense_oracle_solve(k, bcs)
        u_c, _ = ramp_solver(k, bcs, nodes.positions).solve(np.empty(0))
        for u in (u_a, u_c):
            assert np.abs(u - u_b).max() < 1e-8 * np.abs(u_b).max()

    def test_pcg_matches_ramp_factor_above_3000_free_dofs(self):
        # PCG at any size, checked against the ramp's multifrontal factor
        dom, nodes, bonds, m, corr, k = small_model(nx=40, ny=40)
        bcs = BCSet(nodes.n)
        bcs.prescribe(nodes.on_side(dom, "-y"), ux=0.0, uy=0.0)
        bcs.add_load(nodes.on_side(dom, "+y"), fy=0.3)
        assert (~bcs.prescribed_mask).sum() > 3000
        u, diag = pd_core.solve_static(k, bcs)
        u_ref, ref_diag = ramp_solver(k, bcs, nodes.positions).solve(np.empty(0))
        assert diag.method == "pcg" and ref_diag.method == "direct"
        assert np.abs(u - u_ref).max() < 1e-8 * np.abs(u_ref).max()

    @pytest.mark.parametrize("scale", [0.0, -1.0], ids=["zero", "negative-definite"])
    def test_pcg_breakdown_fails_fast(self, scale):
        _, nodes, _, _, _, k = small_model()
        bcs = BCSet(nodes.n)
        bcs.prescribe([0], ux=0.0, uy=0.0)
        bcs.prescribe([3], uy=0.0)
        bcs.add_load([20], fy=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="breakdown at iteration 1:"):
                pd_core.solve_static(scale * k, bcs)

    def test_prescribed_and_loaded_clash_rejected(self):
        _, nodes, _, _, _, k = small_model()
        bcs = BCSet(nodes.n)
        bcs.prescribe([0], ux=0.0)
        bcs.add_load([0], fx=1.0)
        with pytest.raises(ValueError):
            pd_core.solve_static(k, bcs)

    def test_nonconvergence_reported(self):
        _, nodes, _, _, _, k = small_model()
        bcs = BCSet(nodes.n)
        bcs.prescribe([0], ux=0.0, uy=0.0)
        bcs.prescribe([3], uy=0.0)
        bcs.add_load([20], fy=1.0)
        # no residual reaches 1e-300, so PCG runs out of iterations
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="^pcg solve stalled at relative residual"):
                pd_core.solve_static(k, bcs, tol=1e-300)


class TestReactions:
    def test_zero_strain_zero_reaction(self):
        dom, nodes, _, _, _, k = small_model()
        bcs = BCSet(nodes.n)
        top = nodes.on_side(dom, "+y")
        bottom = nodes.on_side(dom, "-y")
        bcs.prescribe(top, ux=0.0, uy=0.0)
        bcs.prescribe(bottom, ux=0.0, uy=0.0)
        u, _ = pd_core.solve_static(k, bcs)
        r = pd_core.reaction_force(k, u, bcs, top)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_action_reaction_balance(self):
        dom, nodes, _, _, _, k = small_model()
        bcs = BCSet(nodes.n)
        top = nodes.on_side(dom, "+y")
        bottom = nodes.on_side(dom, "-y")
        bcs.prescribe(top, ux=0.0, uy=0.01)
        bcs.prescribe(bottom, ux=0.0, uy=-0.01)
        u, _ = pd_core.solve_static(k, bcs)
        r_top = pd_core.reaction_force(k, u, bcs, top)
        r_bot = pd_core.reaction_force(k, u, bcs, bottom)
        assert r_top[1] == pytest.approx(-r_bot[1], rel=1e-10)
        assert r_top[1] > 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(["bonds", "q4"]))
    def test_rows_only_equal_full_product(self, seed, kind):
        # the reaction of a node subset is bit-identical to the sum over the
        # full residual K u - b
        positions, k = operator(kind)
        rng = np.random.default_rng(seed)
        n = len(positions)
        u = rng.normal(size=(n, 2))
        bcs = BCSet(n, loads=rng.normal(size=(n, 2)))
        ids = rng.choice(n, size=rng.integers(1, n), replace=False)
        full = (k @ u.ravel() - bcs.loads.ravel()).reshape(-1, 2)[ids].sum(axis=0)
        assert np.array_equal(pd_core.reaction_force(k, u, bcs, ids), full)

    def test_empty_node_list_is_zero(self):
        # the indentation ramp takes the force of an empty stuck set from it
        positions, k = operator("bonds")
        u = np.ones_like(positions)
        r = pd_core.reaction_force(k, u, BCSet(len(positions)), np.empty(0, dtype=int))
        assert r.tolist() == [0.0, 0.0]


class TestBondInversion:
    def test_small_strain_clean(self):
        dom, nodes, bonds, m, corr, k = small_model()
        eps = np.array([[5e-3, 0.0], [0.0, -2e-3]])
        u = AffineField(eps).displacements(nodes.positions)
        assert len(pd_core.check_bond_inversion(bonds, u)) == 0

    def test_overshoot_flagged(self):
        # one node pushed past its neighbor reverses the bond
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        nodes = geo.NodeSet(pos, np.ones(2), np.zeros(2, np.uint8), 1.0)
        bonds = geo.build_bonds(nodes, 1.5)
        u = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert pd_core.check_bond_inversion(bonds, u).tolist() == [0]


def _inverted_reference(bonds, u):
    """The row-gather formula of the inversion scan, kept as the reference."""
    deformed = bonds.xi + u[bonds.j] - u[bonds.i]
    proj = deformed[:, 0] * bonds.xi[:, 0] + deformed[:, 1] * bonds.xi[:, 1]
    return np.where(proj <= 0.0)[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.sampled_from([1e-3, 0.3, 1.0, 3.0]),
       shift=st.sampled_from([0.0, 1e8, 1e17]))
def test_inversion_scan_matches_reference(seed, scale, shift):
    # a large rigid shift makes the rounding, and so the flagged set, depend
    # on the order of the operations
    _, nodes, bonds, _, _, _ = small_model(nx=7, ny=6)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(nodes.n, 2)) * scale + shift
    # a collapsed bond: u_j - u_i = -xi, so its projection is exactly 0
    b = int(rng.integers(bonds.m))
    u[bonds.i[b]] = 0.0
    u[bonds.j[b]] = -bonds.xi[b]
    got = pd_core.check_bond_inversion(bonds, u)
    assert b in got
    assert np.array_equal(got, _inverted_reference(bonds, u))


def _lattice(virtual):
    """Nodes and bonds of a small sheet, with virtual rows on two sides or not."""
    dom = Domain.rectangle(9.0, 7.0)
    nodes = geo.build_grid(dom, GridSpec.covering(dom, 1.0))
    if virtual:
        nodes = geo.add_virtual_layers(nodes, dom, "+y", 3)
        nodes = geo.add_virtual_layers(nodes, dom, "-x", 3)
    return nodes, geo.build_bonds(nodes, 3.0)


class TestInversionScreen:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), virtual=st.booleans(),
           strain=st.sampled_from([0.0, 1e-3, 0.3, 2.0]),
           shift=st.sampled_from([0.0, 1e8, 1e17]),
           bad=st.sampled_from([None, np.inf, -np.inf, np.nan]))
    def test_matches_full_scan(self, seed, virtual, strain, shift, bad):
        nodes, bonds = _lattice(virtual)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(nodes.n, 2)) * 1e-3 + shift
        # a large local strain around one node
        near = np.linalg.norm(nodes.positions - nodes.positions[rng.integers(nodes.n)],
                              axis=1) < 2.5
        u[near] += rng.normal(size=(near.sum(), 2)) * strain
        # a collapsed bond: u_j - u_i = -xi, so its projection is exactly 0
        b = int(rng.integers(bonds.m))
        u[bonds.i[b]] = 0.0
        u[bonds.j[b]] = -bonds.xi[b]
        if bad is not None:
            u[rng.integers(nodes.n), rng.integers(2)] = bad
        screen = pd_core.InversionScreen(nodes.positions, bonds)
        with np.errstate(invalid="ignore"):
            got = screen.inverted(u)
            assert np.array_equal(got, pd_core.check_bond_inversion(bonds, u))
        assert bad is not None or b in got

    def test_small_affine_strain_leaves_no_candidates(self):
        # a screen that scans every bond would pass the property above
        for virtual in (False, True):
            nodes, bonds = _lattice(virtual)
            u = AffineField(np.array([[5e-3, 1e-3], [1e-3, -2e-3]])).displacements(
                nodes.positions)
            screen = pd_core.InversionScreen(nodes.positions, bonds)
            assert len(screen.candidates(u)) == 0
            assert len(screen.inverted(u)) == 0


def _subtree(tree, t):
    """Node ids of tree block ``t`` and all its descendants."""
    ids, children = tree[t]
    return np.concatenate([ids] + [_subtree(tree, c) for c in children])


def _reach_reference(positions, k):
    """Largest per-axis distance over every stored entry of ``k``."""
    coo = k.tocoo()
    ni, nj = coo.row // 2, coo.col // 2
    return np.array([np.abs(positions[ni, a] - positions[nj, a]).max(initial=0.0)
                     for a in (0, 1)])


class TestNestedDissection:
    @pytest.mark.parametrize("kind", ["bonds", "q4", "half-folds"])
    def test_reach_matches_entrywise_formula(self, kind, monkeypatch):
        seen = []
        reach = pd_core._operator_reach

        def checked(positions, k):
            got = reach(positions, k)
            seen.append(k.shape)
            assert np.array_equal(got.view(np.int64),
                                  _reach_reference(positions, k).view(np.int64))
            return got

        if kind != "half-folds":
            checked(*operator(kind))
        else:
            # a ramp takes one reach, the whole operator's, for its one factor:
            # the root front is the strip x <= reach of the half, and the
            # dissection below it is by that reach too
            monkeypatch.setattr(pd_core, "_operator_reach", checked)
            solvers = []

            class Recorded(RampSolver):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    solvers.append(self)

            monkeypatch.setattr(pd_core, "RampSolver", Recorded)
            nodes, bonds, k, base, top = TestIndentationRamp()._setup()
            pd_core.run_indentation(nodes.positions, k, base, top, 4.0,
                                    np.array([0.1]), bonds=bonds)
            assert seen == [k.shape] and len(solvers) == 1
            x = nodes.positions[:, 0]
            half = np.flatnonzero(x >= 0)
            strip = half[x[half] <= _reach_reference(nodes.positions, k)[0]]
            strip = strip[~base.prescribed_mask[strip].all(axis=1)]  # with a free dof
            s, e = solvers[0].lu.fronts[-1][:2]
            assert np.array_equal(np.unique(half[solvers[0].free[s:e] // 2]), strip)
        assert seen

    @pytest.mark.parametrize("kind", ["bonds", "q4"])
    def test_order_is_a_permutation(self, kind):
        positions, k = operator(kind)
        tree = pd_core.nested_dissection(positions, pd_core._operator_reach(positions, k))
        order = np.concatenate([ids for ids, _ in tree])
        assert np.array_equal(np.sort(order), np.arange(len(positions)))
        # every block follows its children, and the root is last
        assert all(c < t for t, (_, kids) in enumerate(tree) for c in kids)
        assert np.array_equal(np.sort(_subtree(tree, len(tree) - 1)), np.sort(order))

    @pytest.mark.parametrize("kind", ["bonds", "q4"])
    def test_top_split_halves_are_uncoupled(self, kind):
        positions, k = operator(kind)
        lo, hi = pd_core._bisect(positions, pd_core._operator_reach(positions, k))
        assert lo.any() and hi.any() and not (lo | hi).all()

        def dofs(mask):
            return pd_core.node_dofs(np.flatnonzero(mask)).ravel()

        assert k.tocsr()[dofs(lo)][:, dofs(hi)].nnz == 0

    @pytest.mark.parametrize("kind", ["bonds", "q4"])
    def test_children_are_uncoupled_at_every_block(self, kind, monkeypatch):
        # smaller leaves give a deeper tree on these small operators
        monkeypatch.setattr(pd_core, "_ND_LEAF", 12)
        positions, k = operator(kind)
        k = k.tocsr()
        tree = pd_core.nested_dissection(positions, pd_core._operator_reach(positions, k))
        split = [(ids, kids) for ids, kids in tree if kids]
        assert len(split) >= 4
        for ids, kids in split:
            lo, hi = (pd_core.node_dofs(_subtree(tree, c)).ravel() for c in kids)
            assert len(lo) and len(hi) and len(ids)
            assert k[lo][:, hi].nnz == 0


class TestMultifrontalCholesky:
    def _factored(self, kind, monkeypatch, whole_block=False):
        """A ramp factor of ``operator(kind)`` clamped at its bottom row."""
        monkeypatch.setattr(pd_core, "_ND_LEAF", 12)
        positions, k = operator(kind)
        base = BCSet(len(positions))
        base.prescribe(np.flatnonzero(positions[:, 1] == positions[:, 1].min()),
                       ux=0.0, uy=0.0)
        if whole_block:
            # a separator below the root has no unknowns left, so its front
            # only passes its children's updates on
            tree = pd_core.nested_dissection(positions, pd_core._operator_reach(positions, k))
            base.prescribe(next(ids for ids, kids in tree[:-1] if kids), ux=0.0, uy=0.0)
        solver = ramp_solver(k, base, positions)
        if whole_block:
            assert len(solver.lu.fronts) < len(tree)
        return solver, k, base

    @staticmethod
    def _assert_solved(solver, k, base, b, x, direct=()):
        """Residual <= 1e-12 per column; columns ``direct`` also match the dense oracle."""
        free = solver.free
        kff = k.tocsr()[free][:, free]
        res = np.linalg.norm(kff @ x - b, axis=0) / np.linalg.norm(b, axis=0)
        assert res.max() <= 1e-12
        for j in direct:
            xj = x[:, j] if x.ndim == 2 else x
            bcs = copy.deepcopy(base)
            bcs.loads.ravel()[free] = b[:, j] if b.ndim == 2 else b
            u = analytic.dense_oracle_solve(k, bcs)
            assert np.abs(u.ravel()[free] - xj).max() <= 1e-10 * np.abs(xj).max()

    @pytest.mark.parametrize("whole_block", [False, True], ids=["edge", "whole-block"])
    @pytest.mark.parametrize("kind", ["bonds", "q4"])
    def test_solves_match_direct(self, kind, whole_block, monkeypatch):
        solver, k, base = self._factored(kind, monkeypatch, whole_block)
        b = np.random.default_rng(1).normal(size=(len(solver.free), 8))
        x1, x8 = solver.lu.solve(b[:, 0]), solver.lu.solve(b)
        assert x1.shape == (len(solver.free),) and x8.shape == b.shape
        self._assert_solved(solver, k, base, b[:, 0], x1, direct=[0])
        self._assert_solved(solver, k, base, b, x8, direct=[0, 7])

    @pytest.mark.parametrize("kind", ["bonds", "q4"])
    def test_sparse_right_hand_sides(self, kind, monkeypatch):
        solver, k, base = self._factored(kind, monkeypatch)
        n, fronts = len(solver.free), solver.lu.fronts
        # the first front in postorder is a leaf, the last the root separator
        leaf, root = fronts[0][0], fronts[-1][0]
        unit = np.zeros((n, 3))
        unit[leaf, 0] = unit[root, 1] = 1.0
        unit[:, 2] = np.random.default_rng(2).normal(size=n)
        real, calls = pd_core.dtrsm, []
        monkeypatch.setattr(pd_core, "dtrsm", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        self._assert_solved(solver, k, base, unit[:, 1], solver.lu.solve(unit[:, 1]),
                            direct=[0])
        # the forward sweep of a root column visits the root front alone
        assert len(calls) == len(fronts) + 1
        self._assert_solved(solver, k, base, unit[:, 0], solver.lu.solve(unit[:, 0]),
                            direct=[0])
        self._assert_solved(solver, k, base, unit[:, :2], solver.lu.solve(unit[:, :2]),
                            direct=[0, 1])
        self._assert_solved(solver, k, base, unit, solver.lu.solve(unit), direct=[0, 1])

    @pytest.mark.parametrize("kind", ["bonds", "q4"])
    def test_zero_and_nan_right_hand_sides(self, kind, monkeypatch):
        solver, k, base = self._factored(kind, monkeypatch)
        n = len(solver.free)
        for shape in ((n,), (n, 3)):
            x = solver.lu.solve(np.zeros(shape))
            assert x.shape == shape and np.array_equal(x, np.zeros(shape))
        b = np.zeros(n)
        b[solver.lu.fronts[0][0]] = np.nan
        # a NaN row is not skipped: it reaches the root, and from there every row
        assert np.isnan(solver.lu.solve(b)).all()

    def test_duplicate_entries_are_summed(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(6, 6))
        dense = g @ g.T + 6 * np.eye(6)
        share = rng.uniform(0.2, 0.8, size=(6, 6))
        # every entry stored twice, as two unequal parts
        split = sp.csr_matrix((np.hstack([share * dense, (1 - share) * dense]).ravel(),
                               np.tile(np.arange(12) % 6, 6), 12 * np.arange(7)),
                              shape=(6, 6))
        before = [arr.copy() for arr in (split.data, split.indices, split.indptr)]
        assert split.nnz == 72 and not split.has_canonical_format
        b = rng.normal(size=6)
        for a in (sp.csr_matrix(dense), split):
            x = pd_core.MultifrontalCholesky(a, [2, 4], [(), (0,)]).solve(b)
            assert np.linalg.norm(dense @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert all(np.array_equal(arr, old) for arr, old in
                   zip((split.data, split.indices, split.indptr), before))

    @pytest.mark.parametrize("kind", ["bonds", "q4"])
    def test_fill_counts_match_fronts(self, kind, monkeypatch):
        # perfbench's fill counter reads lu.L.nnz + lu.U.nnz
        lu = self._factored(kind, monkeypatch)[0].lu
        expect = sum((e - s) * (e - s + 1) // 2 + (e - s) * len(bnd)
                     for s, e, bnd, _, _ in lu.fronts)
        assert type(lu.L.nnz) is int and type(lu.U.nnz) is int
        assert lu.L.nnz == lu.U.nnz == expect > 0

    def test_twin_rcond_refusal_names_the_twin(self):
        # A is SPD; the root's update -A_21 A_11^-1 A_12 = diag(-0.25, 0) is
        # exact, so B's root block b plus the update is exactly diag(1, 1e-20):
        # positive pivots 1 and 1e-10, whose rcond estimate 1e-20 is refused
        a = sp.csr_matrix(np.array([[1.0, 0.0, 0.5, 0.0],
                                    [0.0, 1.0, 0.0, 0.0],
                                    [0.5, 0.0, 1.0, 0.0],
                                    [0.0, 0.0, 0.0, 1.0]]))
        b = sp.csr_matrix(np.diag([1.25, 1e-20]))
        pd_core.MultifrontalCholesky(a, [2, 2], [(), (0,)])
        with pytest.raises(SolverFailure, match=r"^the twin, .*rcond estimate"):
            pd_core.MultifrontalCholesky(a, [2, 2], [(), (0,)], twin=(b, 2, "the twin"))

    def _no_shear(self):
        # horizon 1.2 at spacing 1: nearest-neighbour bonds only, so the
        # lattice has no shear stiffness and the clamped block is singular
        dom, nodes, bonds, _, _, k = small_model(nx=9, ny=9, horizon=1.2)
        base = BCSet(nodes.n)
        base.prescribe(nodes.on_side(dom, "-y"), ux=0.0, uy=0.0)
        return nodes, bonds, k, base, nodes.on_side(dom, "+y")

    def test_singular_operator_is_solver_failure(self):
        nodes, _, k, base, _ = self._no_shear()
        with pytest.raises(SolverFailure,
                           match=r"not positive definite at front \d+ \(\d+ unknowns"):
            ramp_solver(k, base, nodes.positions)

    def test_singular_ramp_is_solver_failure(self):
        nodes, bonds, k, base, top = self._no_shear()
        with pytest.raises(SolverFailure, match="not positive definite"):
            pd_core.run_indentation(nodes.positions, k, base, top, 3.0,
                                    np.array([0.1, 0.2]), bonds=bonds)

    def test_antisymmetric_fold_is_solver_failure(self):
        # the clamped block's rows slide along x, a field even in u_x and odd
        # in u_y about x = 0; its fold Q^T K Q onto the half x >= 0 keeps
        # that mechanism, and its pivots round to tiny positive values
        # instead of failing a front
        nodes, _, k, base, _ = self._no_shear()
        x = nodes.positions[:, 0]
        half = np.flatnonzero(x >= 0)
        own = np.where(x >= 0, np.arange(nodes.n), pd_core._mirror_map(nodes.positions))
        col = np.searchsorted(half, own)
        q = sp.csr_matrix((np.stack([np.ones_like(x), np.sign(x)], axis=1).ravel(),
                           (np.arange(2 * nodes.n), pd_core.node_dofs(col).ravel())),
                          shape=(2 * nodes.n, 2 * len(half)))
        held = base.prescribed_mask[half] | (x[half, None] == 0) & [False, True]
        with pytest.raises(SolverFailure, match="not positive definite"):
            ramp_solver((q.T @ k @ q).tocsr(), BCSet(len(half), held), nodes.positions[half])


class TestRampSolver:
    def test_matches_solve_static_with_constraints(self):
        dom, nodes, bonds, m, corr, k = small_model(nx=9, ny=9)
        base = BCSet(nodes.n)
        bottom = nodes.on_side(dom, "-y")
        base.prescribe(bottom, ux=0.0, uy=0.0)
        solver = ramp_solver(k, base, nodes.positions, tol=1e-11)
        top = nodes.on_side(dom, "+y")[:3]
        dofs = pd_core.node_dofs(top).ravel()
        solver.add_constraints(dofs)
        values = np.array([0.0, -0.01] * 3)
        u_ramp, _ = solver.solve(values)
        bcs = copy.deepcopy(base)
        bcs.prescribe(top, ux=0.0, uy=-0.01)
        u_ref = analytic.dense_oracle_solve(k, bcs)
        assert np.abs(u_ramp - u_ref).max() < 1e-9 * np.abs(u_ref).max()

    def test_rejects_base_prescribed_dof(self):
        dom, nodes, bonds, m, corr, k = small_model()
        base = BCSet(nodes.n)
        base.prescribe([0], ux=0.0, uy=0.0)
        base.prescribe([1], uy=0.0)
        solver = ramp_solver(k, base, nodes.positions)
        with pytest.raises(ValueError):
            solver.add_constraints([0])

    def test_no_free_dofs(self):
        _, nodes, _, _, _, k = small_model()
        base = BCSet(nodes.n).prescribe(np.arange(nodes.n), ux=0.01, uy=-0.02)
        solver = ramp_solver(k, base, nodes.positions)
        assert solver.lu.solve(np.empty(0)).shape == (0,)
        assert solver.lu.solve(np.empty((0, 3))).shape == (0, 3)
        u, diag = solver.solve(np.empty(0))
        assert np.array_equal(u, np.tile([0.01, -0.02], (nodes.n, 1)))
        assert diag.iterations == 0
        # the static solve's PCG returns at once on its empty right-hand side
        u, diag = pd_core.solve_static(k, base)
        assert np.array_equal(u, np.tile([0.01, -0.02], (nodes.n, 1)))
        assert diag.method == "pcg" and diag.iterations == 0

    def _ramp(self):
        dom, nodes, bonds, m, corr, k = small_model(nx=10, ny=9)
        base = BCSet(nodes.n)
        base.prescribe(nodes.on_side(dom, "-y"), ux=0.0, uy=0.0)
        top = nodes.on_side(dom, "+y")[2:7]
        dofs = pd_core.node_dofs(top).ravel()
        values = np.tile([0.002, -0.01], len(top))
        return ramp_solver(k, base, nodes.positions), dofs, values, base

    def test_batches_match_single_dofs(self):
        solver, dofs, values, _ = self._ramp()
        solver.add_constraints(dofs)
        u_batch, _ = solver.solve(values)
        single = self._ramp()[0]
        for dof in dofs:
            single.add_constraints([dof])
        duplicated = self._ramp()[0]
        # repeats inside one call and across calls are registered once
        duplicated.add_constraints(np.concatenate([dofs[:5], dofs[2:4], dofs[:1]]))
        duplicated.add_constraints(np.concatenate([dofs[3:], dofs[:2]]))
        assert np.array_equal(solver.free[solver.cdofs], dofs)
        for other in (single, duplicated):
            assert np.array_equal(other.free[other.cdofs], dofs)
            u, _ = other.solve(values)
            assert np.abs(u - u_batch).max() <= 1e-12 * np.abs(u_batch).max()

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_rejected_batch_leaves_solver_unchanged(self, where):
        solver, dofs, values, base = self._ramp()
        solver.add_constraints(dofs[:4])
        before = (solver.free[solver.cdofs], solver.cols[solver.cdofs],
                  solver.cols.copy(), solver.solve(values[:4])[0])
        prescribed = int(np.flatnonzero(base.prescribed_mask.ravel())[1])
        batch = list(dofs[4:])   # six free dofs
        batch.insert(where, prescribed)
        with pytest.raises(ValueError):
            solver.add_constraints(batch)
        assert np.array_equal(solver.free[solver.cdofs], before[0])
        assert np.array_equal(solver.cols[solver.cdofs], before[1])
        assert np.array_equal(solver.cols, before[2])
        assert np.array_equal(solver.solve(values[:4])[0], before[3])


    def test_indefinite_gram_is_solver_failure(self):
        solver, dofs, values, _ = self._ramp()
        solver.add_constraints(dofs[:4])
        before = (solver.free[solver.cdofs], solver.cols[solver.cdofs], solver.cols.copy())
        factor = solver.lu
        solver.lu = SimpleNamespace(solve=lambda b: -factor.solve(b))
        with pytest.raises(SolverFailure, match="Gram matrix of 10 contact dofs is not "
                                                "positive definite"):
            solver.add_constraints(dofs[4:])
        solver.lu = factor
        assert np.array_equal(solver.free[solver.cdofs], before[0])
        assert np.array_equal(solver.cols[solver.cdofs], before[1])
        assert np.array_equal(solver.cols, before[2])
        solver.solve(values[:4])

    @pytest.mark.parametrize("contacts", [False, True], ids=["free", "contacts"])
    @pytest.mark.parametrize("bad", ["inf-load", "nan-prescribed"])
    def test_non_finite_residual_is_solver_failure(self, bad, contacts):
        dom, nodes, bonds, m, corr, k = small_model()
        base = BCSet(nodes.n)
        bottom = nodes.on_side(dom, "-y")
        base.prescribe(bottom, ux=0.0, uy=0.0)
        top = nodes.on_side(dom, "+y")
        if bad == "inf-load":
            base.add_load(top[1:], fy=np.inf)
        else:
            base.prescribed_value[bottom[2], 1] = np.nan
        with np.errstate(invalid="ignore"):
            solver = ramp_solver(k, base, nodes.positions)
            if contacts:
                solver.add_constraints(pd_core.node_dofs(top[:1]).ravel())
            with pytest.raises(SolverFailure, match="relative residual nan"):
                solver.solve(np.zeros(2 if contacts else 0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_is_solver_failure(self, value):
        solver, dofs, values, _ = self._ramp()
        solver.add_constraints(dofs)
        values[3] = value
        with pytest.raises(SolverFailure, match="non-finite contact values"):
            solver.solve(values)

    @staticmethod
    def _inexact_factor(monkeypatch, symmetric=False):
        """Scale the rows of the factor's solves by ``W = 1 + 1e-7 w``, one ``w``
        per size; ``symmetric`` scales the right-hand side's too, ``W A^{-1} W``."""
        real = pd_core.MultifrontalCholesky.solve
        scale = {}

        def inexact(self, b):
            w = scale.setdefault(len(b), 1 + 1e-7 * np.random.default_rng(4).uniform(
                -1, 1, len(b)))
            w = w if np.ndim(b) == 1 else w[:, None]
            return real(self, w * b if symmetric else b) * w

        monkeypatch.setattr(pd_core.MultifrontalCholesky, "solve", inexact)

    @staticmethod
    def _loaded(tol):
        """A solver of a block clamped at its bottom, loaded at two top nodes,
        its ``K_ff`` and the other top nodes."""
        dom, nodes, bonds, m, corr, k = small_model(nx=10, ny=9)
        base = BCSet(nodes.n)
        base.prescribe(nodes.on_side(dom, "-y"), ux=0.0, uy=0.0)
        top = nodes.on_side(dom, "+y")
        base.add_load(top[:2], fx=0.3, fy=-1.0)
        solver = ramp_solver(k, base, nodes.positions, tol=tol)
        return solver, k.tocsr()[solver.free][:, solver.free], top[2:]

    @pytest.mark.parametrize("factor", ["exact", "inexact"])
    def test_residual_is_the_sparse_products(self, factor, monkeypatch):
        # a step's first residual is r0 + (K C) lam, not rhs - K u; an inexact
        # factor (rows scaled by 1 + 1e-7 w) leaves residuals far above the
        # rounding, which the tolerance then checks to five digits
        if factor == "inexact":
            self._inexact_factor(monkeypatch)
        solver, kff, top = self._loaded(1e-4)
        rng, held = np.random.default_rng(6), []
        for batch in np.array_split(top, 4):  # the column buffers grow twice
            dofs = pd_core.node_dofs(batch).ravel()
            solver.add_constraints(dofs)
            held += dofs.tolist()
            u, diag = solver.solve(rng.uniform(-0.01, 0.01, len(held)))
            r = solver.rhs - kff @ u.ravel()[solver.free]
            r[solver.local[held]] = 0.0
            direct = np.linalg.norm(r) / np.linalg.norm(solver.rhs)
            assert diag.iterations == 0
            assert abs(diag.residual - direct) <= 1e-12
            assert (direct > 1e-9) == (factor == "inexact")

    def test_refinement_round_converges(self, monkeypatch):
        # the inexact factor's first residual is about 1e-6, above tol: the
        # refinement rounds bring it below, and each round's residual is the
        # sparse one of the field it returns; a symmetric perturbation keeps
        # the Gram matrix symmetric, so the contacts hold to rounding
        self._inexact_factor(monkeypatch, symmetric=True)
        solver, kff, top = self._loaded(1e-12)
        dofs = pd_core.node_dofs(top).ravel()
        solver.add_constraints(dofs)
        values = np.random.default_rng(6).uniform(-0.01, 0.01, len(dofs))
        u, diag = solver.solve(values)
        r = solver.rhs - kff @ u.ravel()[solver.free]
        r[solver.local[dofs]] = 0.0
        direct = np.linalg.norm(r) / np.linalg.norm(solver.rhs)
        assert diag.iterations >= 1 and diag.residual <= 1e-12
        assert diag.residual == pytest.approx(direct, rel=1e-10, abs=0)
        np.testing.assert_allclose(u.ravel()[dofs], values, rtol=1e-12, atol=0)

    def test_refinement_round_corrects_contact_miss(self, monkeypatch):
        # perturbing only the rows of the factor's solves, W A^{-1}, makes
        # the Gram matrix non-symmetric: its first solve misses the contact
        # targets by about 1e-7 relative while the residual meets tol; the
        # rounds correct the miss too
        self._inexact_factor(monkeypatch)
        solver, kff, top = self._loaded(1e-12)
        dofs = pd_core.node_dofs(top).ravel()
        solver.add_constraints(dofs)
        values = np.random.default_rng(6).uniform(-0.01, 0.01, len(dofs))
        u, diag = solver.solve(values)
        assert diag.iterations >= 1 and diag.residual <= 1e-12
        miss = np.abs(u.ravel()[dofs] - values).max() / np.abs(values).max()
        assert miss <= 1e-12

    def test_contact_miss_that_stays_is_solver_failure(self):
        # a Gram factor of twice the Gram matrix halves each correction of the
        # contacts, so three rounds leave a miss far above tol; the residual,
        # whose constrained rows are zeroed, still meets it
        solver, kff, top = self._loaded(1e-10)
        dofs = pd_core.node_dofs(top).ravel()
        solver.add_constraints(dofs)
        solver._gram_factor = cho_factor(2 * solver.cols[solver.cdofs])
        with pytest.raises(SolverFailure, match=r"relative residual \S+e-1\d, contact miss "
                                                r"\S+e-0\d \(tol 1\.0e-10\)"):
            solver.solve(np.full(len(dofs), -0.01))


def full_ramp(positions, k, base, surface, radius, depths, bonds):
    """The indentation ramp solved on the whole lattice, as a reference.

    Returns the forces and stuck counts per converged depth, the stuck ids in
    attach order (the aborting step's contacts included) and the inverted
    bonds of the aborting step.
    """
    solver = ramp_solver(k, base, positions)
    top = positions[surface, 1].max()
    u = np.zeros_like(positions)
    stuck, offsets, forces, counts = np.empty(0, dtype=int), np.empty((0, 2)), [], []
    inverted = np.empty(0, dtype=int)
    for depth in depths:
        center = np.array([0.0, top + radius - depth])
        free = np.setdiff1d(surface, stuck)
        rel = positions[free] + u[free] - center
        hit = np.linalg.norm(rel, axis=1) < radius * (1 - 1e-12)
        stuck = np.concatenate([stuck, free[hit]])
        offsets = np.vstack([offsets, rel[hit] * (radius / np.linalg.norm(
            rel[hit], axis=1))[:, None]])
        solver.add_constraints(pd_core.node_dofs(free[hit]).ravel())
        u_new, _ = solver.solve((center + offsets - positions[stuck]).ravel())
        inverted = pd_core.check_bond_inversion(bonds, u_new)
        if len(inverted):
            break
        u = u_new
        forces.append(abs(pd_core.reaction_force(k, u, base, stuck)[1]))
        counts.append(len(stuck))
    return np.array(forces), np.array(counts), stuck, inverted


class TestIndentationRamp:
    def _setup(self, surfaces="all", width=12):
        spacing, horizon = 0.5, 1.5
        dom = Domain.rectangle(width, 8)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, spacing))
        bonds = geo.build_bonds(nodes, horizon)
        m = MaterialModel.calibrated(ElasticParams(E), horizon, "constant",
                                     "discrete", spacing)
        corr = mat.correct_bonds(bonds, nodes, dom, m, surfaces)
        k = pd_core.assemble(nodes, bonds, corr)
        base = BCSet(nodes.n)
        tol = 1e-7 * spacing
        bottom = np.where(np.abs(nodes.positions[:, 1] + 4) < tol)[0]
        top = np.where(np.abs(nodes.positions[:, 1] - 4) < tol)[0]
        base.prescribe(bottom, ux=0.0, uy=0.0)
        return nodes, bonds, k, base, top

    def test_zero_depth_zero_force(self):
        nodes, bonds, k, base, top = self._setup()
        res = pd_core.run_indentation(nodes.positions, k, base, top, 4.0,
                                      np.array([0.0]), bonds=bonds)
        assert res.forces.tolist() == [0.0]
        assert res.stuck_counts.tolist() == [0]
        assert not res.failed

    def test_monotone_stick_set_and_force(self):
        nodes, bonds, k, base, top = self._setup()
        depths = np.linspace(0.05, 0.8, 16)
        res = pd_core.run_indentation(nodes.positions, k, base, top, 4.0,
                                      depths, bonds=bonds)
        assert not res.failed
        assert np.all(np.diff(res.stuck_counts) >= 0)
        assert np.all(np.diff(res.forces) > 0)
        assert res.stuck_counts[-1] >= 3

    def test_attachments_stay_on_indenter(self):
        nodes, bonds, k, base, top = self._setup()
        depths = np.linspace(0.05, 0.6, 12)
        res = pd_core.run_indentation(nodes.positions, k, base, top, 4.0,
                                      depths, bonds=bonds)
        # stuck nodes track the indenter rigidly in the final state
        center = np.array([0.0, nodes.positions[top, 1].max() + 4.0 - res.depths[-1]])
        final = nodes.positions[res.stuck_ids] + res.u_final[res.stuck_ids]
        assert np.allclose(np.linalg.norm(final - center, axis=1), 4.0,
                           rtol=1e-9)

    def test_scan_sees_only_screened_bonds(self, monkeypatch):
        # the ramp scans through the module's check_bond_inversion, which a
        # wrapper can count, and passes it far fewer bonds than the table
        nodes, bonds, k, base, top = self._setup()
        scanned, full = [], pd_core.check_bond_inversion

        def counting(sub, u):
            scanned.append(sub.m)
            return full(sub, u)

        depths = np.linspace(0.05, 0.8, 16)
        monkeypatch.setattr(pd_core, "check_bond_inversion", counting)
        res = pd_core.run_indentation(nodes.positions, k, base, top, 4.0, depths,
                                      bonds=bonds)
        assert not res.failed and len(scanned) == len(depths)
        assert sum(scanned) < 0.5 * len(depths) * bonds.m

    def test_stall_names_its_depth(self):
        # an unreachable residual stalls the first step, which has contacts
        nodes, bonds, k, base, top = self._setup()
        with pytest.raises(SolverFailure, match=r"^at depth 0\.05 mm: ramp solve stalled"):
            pd_core.run_indentation(nodes.positions, k, base, top, 4.0,
                                    np.array([0.05, 0.1]), bonds=bonds, tol=1e-300)

    @pytest.mark.parametrize("surfaces", ["all", None], ids=["corrected", "uncorrected"])
    @pytest.mark.parametrize("width", [12, 11.5], ids=["axis-column", "no-axis-column"])
    def test_half_matches_full_ramp(self, width, surfaces):
        # 25 columns with one on x = 0, or 24 with none; the uncorrected
        # block reverses bonds at 1.6 mm and aborts
        nodes, bonds, k, base, top = self._setup(surfaces, width)
        depths = np.linspace(0.1, 1.6, 16)
        res = pd_core.run_indentation(nodes.positions, k, base, top, 4.0, depths,
                                      bonds=bonds)
        forces, counts, stuck, inverted = full_ramp(
            nodes.positions, k, base, top, 4.0, depths, bonds)
        assert res.failed == (surfaces is None) == (len(inverted) > 0)
        np.testing.assert_allclose(res.forces, forces, rtol=1e-10, atol=0)
        assert np.array_equal(res.stuck_counts, counts)
        assert np.array_equal(res.stuck_ids, stuck)
        assert np.array_equal(res.inverted_bonds, inverted)

    @pytest.mark.parametrize("surfaces", ["all", None], ids=["corrected", "uncorrected"])
    def test_force_is_the_whole_operator_reaction(self, surfaces):
        # the ramp reads only K's surface rows, every stuck node being a
        # surface node: the same rows, summed in the same order, give the
        # whole K's reaction bit for bit; the uncorrected block aborts
        nodes, bonds, k, base, top = self._setup(surfaces)
        res = pd_core.run_indentation(nodes.positions, k, base, top, 4.0,
                                      np.linspace(0.1, 1.6, 16), bonds=bonds)
        assert res.failed == (surfaces is None)
        stuck = res.stuck_ids[:res.stuck_counts[-1]]  # the last converged step's
        assert res.forces[-1] == abs(pd_core.reaction_force(k, res.u_final, base, stuck)[1])

    @pytest.mark.parametrize("held", ["uy-at-bottom", "ux-at-sides"])
    def test_mechanism_of_either_parity_is_solver_failure(self, held):
        # held along y at the bottom only, the block slides along x, a field
        # antisymmetric about x = 0 that the half ramp never solves for;
        # held along x at the sides only, it slides along y, a symmetric one
        nodes, bonds, k, _, top = self._setup()
        x, y = nodes.positions.T
        if held == "uy-at-bottom":
            base = BCSet(nodes.n).prescribe(np.flatnonzero(y == y.min()), uy=0.0)
        else:
            base = BCSet(nodes.n).prescribe(np.flatnonzero(np.abs(x) == x.max()), ux=0.0)
        with pytest.raises(SolverFailure, match="not positive definite"):
            pd_core.run_indentation(nodes.positions, k, base, top, 4.0,
                                    np.array([0.1, 0.2]), bonds=bonds)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [-1, 1], ids=["left", "right"])
    @pytest.mark.parametrize("what", ["load", "value"])
    def test_non_finite_base_is_refused(self, what, side, value):
        # a non-finite departure from the mirror symmetry is one too, on
        # either side of x = 0
        nodes, bonds, k, base, top = self._setup()
        x, y = nodes.positions.T
        if what == "load":
            base.loads[np.flatnonzero((x == 2 * side) & (y == 0))[0], 1] = value
        else:
            base.prescribed_value[np.flatnonzero((x == 2 * side) & (y == y.min()))[0],
                                  1] = value
        message = "loads" if what == "load" else "prescribed values"
        with pytest.raises(geo.GeometryError, match=f"base set's {message} are not odd"):
            pd_core.run_indentation(nodes.positions, k, base, top, 4.0,
                                    np.array([0.1, 0.2]), bonds=bonds)

    @staticmethod
    def _maps(nodes):
        """The half x >= 0's node ids and the explicit maps ``P`` and ``Q``."""
        x = nodes.positions[:, 0]
        half = np.flatnonzero(x >= 0)
        own = np.where(x >= 0, np.arange(nodes.n), pd_core._mirror_map(nodes.positions))
        ij = (np.arange(2 * nodes.n), pd_core.node_dofs(np.searchsorted(half, own)).ravel())
        shape = (2 * nodes.n, 2 * len(half))
        # u_x odd and u_y even under P, the other way round under Q
        p, q = (sp.csr_matrix((np.stack(signs, axis=1).ravel(), ij), shape=shape)
                for signs in ((np.sign(x), np.ones_like(x)), (np.ones_like(x), np.sign(x))))
        return half, p, q

    @classmethod
    def _folds(cls, nodes, k):
        """The half x >= 0's node ids and the explicit ``P^T K P`` and ``Q^T K Q``."""
        half, p, q = cls._maps(nodes)
        return half, (p.T @ k @ p).tocsr(), (q.T @ k @ q).tocsr()

    @pytest.mark.parametrize("surfaces", ["all", None], ids=["corrected", "uncorrected"])
    @pytest.mark.parametrize("width", [12, 11.5], ids=["axis-column", "no-axis-column"])
    def test_half_is_the_explicit_fold(self, width, surfaces):
        # the half's operator is P^T K P and its loads are P^T f, for loads
        # odd in u_x and even in u_y
        nodes, bonds, k, base, top = self._setup(surfaces, width)
        base.add_load(top, fy=-1.0)
        base.loads[top, 0] = 0.3 * np.sign(nodes.positions[top, 0])
        ids, _, _, folds = pd_core._mirror_half(nodes.positions, k, base, top)
        ks, half_base = folds()[:2]
        half, p, _ = self._maps(nodes)
        ptkp = (p.T @ k @ p).tocsr()
        assert np.array_equal(ids, half) and ks.shape == ptkp.shape
        assert abs(ks - ptkp).max() <= 1e-14 * abs(ptkp).max()
        assert np.array_equal(half_base.loads.ravel(), p.T @ base.loads.ravel())

    @pytest.mark.parametrize("surfaces", ["all", None], ids=["corrected", "uncorrected"])
    @pytest.mark.parametrize("width", [12, 11.5], ids=["axis-column", "no-axis-column"])
    def test_src_is_the_column_of_p(self, width, surfaces):
        # the ramp's half-to-whole map: every nonzero of P's row lies in the
        # columns of src, and two nodes map to a half node exactly off x = 0
        nodes, bonds, k, base, top = self._setup(surfaces, width)
        ids, src = pd_core._mirror_half(nodes.positions, k, base, top)[:2]
        half, p, _ = self._maps(nodes)
        p.eliminate_zeros()  # the u_x rows on x = 0
        rows, cols = p.nonzero()
        assert np.array_equal(ids, half)
        assert np.array_equal(cols // 2, src[rows // 2])
        assert np.array_equal(np.unique(rows // 2), np.arange(nodes.n))
        assert np.array_equal(np.bincount(src, minlength=len(ids)) == 2,
                              nodes.positions[ids, 0] != 0)

    @pytest.mark.parametrize("surfaces", ["all", None], ids=["corrected", "uncorrected"])
    @pytest.mark.parametrize("width", [12, 11.5], ids=["axis-column", "no-axis-column"])
    def test_folds_differ_only_in_the_strip(self, width, surfaces):
        # the premise of the single factor: K_a - K_s is nonzero only where
        # both dofs lie in the strip 0 <= x <= reach of the whole operator
        nodes, bonds, k, base, top = self._setup(surfaces, width)
        half, ks, ka = self._folds(nodes, k)
        outside = np.repeat(nodes.positions[half, 0] > _reach_reference(nodes.positions, k)[0], 2)
        d = ks - ka
        d.eliminate_zeros()
        rows, cols = d.nonzero()
        assert len(rows) and not (outside[rows] | outside[cols]).any()

    @pytest.mark.parametrize("case", ["clamped", "no-shear", "uy-at-bottom", "ux-at-sides"])
    def test_fold_verdicts_match_explicit_factors(self, case):
        # the ramp refuses a set-up exactly when a direct factor of the
        # explicit P^T K P or Q^T K Q does, and names the antisymmetric
        # fields exactly when the one of Q^T K Q does
        if case == "no-shear":
            nodes, bonds, k, base, top = TestMultifrontalCholesky()._no_shear()
        else:
            nodes, bonds, k, base, top = self._setup()
        x, y = nodes.positions.T
        if case == "uy-at-bottom":
            base = BCSet(nodes.n).prescribe(np.flatnonzero(y == y.min()), uy=0.0)
        elif case == "ux-at-sides":
            base = BCSet(nodes.n).prescribe(np.flatnonzero(np.abs(x) == x.max()), ux=0.0)
        half, ks, ka = self._folds(nodes, k)
        axis = (x[half] == 0)[:, None]

        def refused(kf, held):
            try:
                ramp_solver(kf, BCSet(len(half), base.prescribed_mask[half] | held),
                           nodes.positions[half])
            except SolverFailure as exc:
                assert "not positive definite" in str(exc)
                return True
            return False

        sym, anti = refused(ks, axis & [True, False]), refused(ka, axis & [False, True])
        try:
            pd_core.run_indentation(nodes.positions, k, base, top, 3.0,
                                    np.array([0.1, 0.2]), bonds=bonds)
            message = None
        except SolverFailure as exc:
            message = str(exc)
        assert (message is not None) == (sym or anti)
        assert (message is not None and "not positive definite" in message) == (sym or anti)
        assert (message is not None and message.startswith(
            "on fields antisymmetric about x = 0, ")) == anti
        assert (case == "clamped") == (not sym and not anti)

    def _asymmetric(self, what):
        nodes, bonds, k, base, top = self._setup()
        positions, x = nodes.positions, nodes.positions[:, 0]
        if what == "mirror-missing":
            keep = np.flatnonzero(~((x == 2.5) & (positions[:, 1] == 0)))
            dofs = pd_core.node_dofs(keep).ravel()
            sub = BCSet(len(keep), base.prescribed_mask[keep], base.prescribed_value[keep])
            return positions[keep], k[dofs][:, dofs], sub, np.searchsorted(keep, top)
        if what.startswith("perturbed-pair"):
            # K = K^T still, but the pair couples two nodes of one side only;
            # the first (u_x) and last (u_y) half rows lie in the first and
            # last of the symmetry check's row blocks
            half = np.flatnonzero(x >= 0)
            a = {"perturbed-pair": 2 * np.flatnonzero((x == 2.5) & (positions[:, 1] == 0))[0],
                 "perturbed-pair-first-half-row": 2 * half[0],
                 "perturbed-pair-last-half-row": 2 * half[-1] - 1}[what]
            a, b = a + np.array([0, 2])
            k = k.tolil()
            k[a, b] += 1e-6 * abs(k[a, a])
            k[b, a] += 1e-6 * abs(k[a, a])
            k = k.tocsr()
        elif what == "one-sided-base":
            base.prescribe(np.flatnonzero(x == -6), ux=0.0)
        elif what == "even-ux":
            base.prescribe(np.flatnonzero(np.abs(x) == 6), ux=0.01)
        else:
            top = top[x[top] <= 4]
        return positions, k, base, top

    @pytest.mark.parametrize("what, message", [
        ("mirror-missing", r"^1 node\(s\) have no mirror image across x = 0"),
        ("perturbed-pair", r"^the operator is not mirror-symmetric about x = 0: "
                           r"\|\|R K R\^T - K\|\|_F / \|\|K\|\|_F = \d"),
        ("one-sided-base", r"prescribes a dof whose mirror image is free"),
        ("even-ux", r"prescribed values are not odd in u_x"),
        ("one-sided-surface", r"surface is not mirror-symmetric"),
    ] + [(f"perturbed-pair-{row}-half-row", r"^the operator is not mirror-symmetric about "
          r"x = 0: \|\|R K R\^T - K\|\|_F / \|\|K\|\|_F = \d") for row in ("first", "last")])
    def test_asymmetric_set_up_is_refused(self, what, message):
        positions, k, base, top = self._asymmetric(what)
        with pytest.raises(ValueError, match=message):
            pd_core.run_indentation(positions, k, base, top, 4.0, np.array([0.1]))

    def test_mirror_map_of_a_point_cloud(self):
        # no lattice: the images are found by position alone
        rng = np.random.default_rng(24)
        right = rng.uniform([0.1, -5.0], [5.0, 5.0], (200, 2))
        axis = np.column_stack([np.zeros(7), rng.uniform(-5.0, 5.0, 7)])
        positions = rng.permutation(np.vstack([right, right * [-1.0, 1.0], axis]))
        m = pd_core._mirror_map(positions)
        np.testing.assert_array_equal(m[m], np.arange(len(positions)))
        np.testing.assert_array_equal(positions[m] * [-1.0, 1.0], positions)
        gap = min(np.diff(np.unique(positions[:, a])).min() for a in (0, 1))
        positions[np.flatnonzero(positions[:, 0] > 0)[0], 1] += 1e-3 * gap
        with pytest.raises(geo.GeometryError, match=r"^2 node\(s\) have no mirror image"):
            pd_core._mirror_map(positions)
