"""Grid building, neighbor search and ray-boundary queries."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdsc import geometry as geo, material as mat
from pdsc.geometry import Domain, GridSpec, GeometryError
from pdsc.material import ElasticParams, MaterialModel


def lattice_disk_count(m_inv: int) -> int:
    """Brute-force count of lattice points in the closed disk of radius m_inv."""
    n = 0
    for i in range(-m_inv, m_inv + 1):
        for j in range(-m_inv, m_inv + 1):
            if 0 < i * i + j * j <= m_inv * m_inv:
                n += 1
    return n


def bisect_exit_distance(x, e, domain, hi=1e3, iters=200):
    """Independent ray-exit oracle: bisection on the inside/outside predicate."""
    x = np.asarray(x, float)
    e = np.asarray(e, float)
    lo = 0.0
    assert not domain.contains((x + hi * e)[None])[0]
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if domain.contains((x + mid * e)[None])[0]:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDomain:
    def test_rectangle_properties(self):
        dom = Domain.rectangle(50, 100)
        assert len(dom.vertices) == 4
        assert dom.contains(np.array([[0, 0], [25, 50], [25.1, 0]])).tolist() == \
            [True, True, False]
        assert dom.boundary_distance(np.array([[0.0, 0.0]]))[0] == pytest.approx(25.0)

    def test_boundary_distance_to_an_edge_subset(self):
        dom = Domain.rectangle(50, 100)
        pts = np.array([[0.0, 0.0], [20.0, 45.0], [-24.0, -10.0]])
        assert dom.boundary_distance(pts, dom.side_edge_indices(["+y"])).tolist() == \
            [50.0, 5.0, 60.0]
        assert dom.boundary_distance(pts, np.arange(4)).tolist() == \
            dom.boundary_distance(pts).tolist() == [25.0, 5.0, 1.0]
        assert np.all(dom.boundary_distance(pts, np.array([], dtype=int)) == np.inf)

    def test_rejects_clockwise_polygon(self):
        with pytest.raises(GeometryError):
            Domain(np.array([[0, 0], [0, 1], [1, 1], [1, 0]]))

    def test_rejects_nonconvex_polygon(self):
        verts = np.array([[0, 0], [2, 0], [1, 0.5], [2, 2], [0, 2]])
        with pytest.raises(GeometryError):
            Domain(verts)

    def test_side_edge_lookup(self):
        dom = Domain.rectangle(2, 2)
        normals = dom.outward_normals()
        for side, vec in (("-y", [0, -1]), ("+x", [1, 0]), ("+y", [0, 1]),
                          ("-x", [-1, 0])):
            (idx,) = dom.side_edge_indices([side]).tolist()
            assert np.allclose(normals[idx], vec)


class TestBuildGrid:
    def test_tension_sheet_counts(self):
        # 50 mm x 100 mm at 1 mm spacing puts 51 x 101 nodes, outermost on
        # the boundary
        dom = Domain.rectangle(50, 100)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, 1.0))
        assert nodes.n == 51 * 101
        on_surface = nodes.roles == geo.ROLE_SURFACE
        assert on_surface.sum() == 2 * 51 + 2 * 101 - 4
        assert np.max(np.abs(nodes.positions[on_surface, 0])) == pytest.approx(25)

    def test_single_node_grid(self):
        dom = Domain.rectangle(10, 10)
        nodes = geo.build_grid(dom, GridSpec(2.0, (0.0, 0.0), (1, 1)))
        assert nodes.n == 1
        assert nodes.volumes[0] == pytest.approx(4.0)

    def test_square_sheet_m6_counts(self):
        delta = 1.0
        dom = Domain.rectangle(4 * delta, 4 * delta)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, delta / 6))
        assert nodes.n == 25 * 25

    def test_empty_grid_raises(self):
        dom = Domain.rectangle(1, 1, center=(100.0, 100.0))
        with pytest.raises(GeometryError):
            geo.build_grid(dom, GridSpec(0.5, (0.0, 0.0), (2, 2)))

    def test_tributary_volumes_sum_to_body_volume(self):
        # vertex-centered cells are clipped, so the discretized volume is exact
        dom = Domain.rectangle(50, 100, thickness=2.0)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, 1.0))
        assert nodes.volumes.sum() == pytest.approx(50 * 100 * 2.0, rel=1e-12)
        corner = np.argmin(np.linalg.norm(nodes.positions - [-25, -50], axis=1))
        assert nodes.volumes[corner] == pytest.approx(0.25 * 1.0**2 * 2.0)

    def test_cell_centered_volumes_full(self):
        dom = Domain.rectangle(4, 4)
        nodes = geo.build_grid(dom, GridSpec.cell_centered(dom, 1 / 6))
        assert nodes.n == 24 * 24
        assert np.allclose(nodes.volumes, (1 / 6) ** 2)


class TestVirtualLayers:
    def test_clamped_buffer_counts(self):
        # 24 x 24 interior grid plus two buffers of 6 rows -> 24 x 36
        dom = Domain.rectangle(4, 4)
        nodes = geo.build_grid(dom, GridSpec.cell_centered(dom, 1 / 6))
        nodes = geo.add_virtual_layers(nodes, dom, "+y", 6)
        nodes = geo.add_virtual_layers(nodes, dom, "-y", 6)
        assert nodes.n == 24 * 36
        assert nodes.virtual_mask.sum() == 2 * 6 * 24

    def test_zero_layers_noop(self):
        dom = Domain.rectangle(4, 4)
        nodes = geo.build_grid(dom, GridSpec.cell_centered(dom, 1 / 6))
        assert geo.add_virtual_layers(nodes, dom, "+y", 0) is nodes

    def test_vertex_grid_one_buffer(self):
        dom = Domain.rectangle(4, 4)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, 1 / 6))
        grown = geo.add_virtual_layers(nodes, dom, "+y", 6)
        assert grown.n == 25 * 31
        new = grown.positions[nodes.n:]
        assert new[:, 1].min() > 2.0

    @pytest.mark.parametrize("side", ["-y", "-x"])
    def test_negative_side_layer_order(self, side):
        # layer 1 lies next to the body, each layer ascending along the edge,
        # the same bits as building the layers one by one
        dom = Domain.rectangle(4, 3)
        nodes = geo.build_grid(dom, GridSpec.cell_centered(dom, 1 / 6))
        grown = geo.add_virtual_layers(nodes, dom, side, 3)
        axis, other = (1, 0) if side == "-y" else (0, 1)
        edge = nodes.positions[:, axis].min()
        along = np.unique(nodes.positions[:, other])
        layers = []
        for k in (1, 2, 3):
            block = np.empty((len(along), 2))
            block[:, axis] = edge - k * nodes.spacing
            block[:, other] = along
            layers.append(block)
        assert np.array_equal(grown.positions[nodes.n:], np.vstack(layers))
        assert grown.virtual_mask.sum() == 3 * len(along)

    def test_non_axis_aligned_surface_rejected(self):
        tri = Domain(np.array([[0, 0], [4, 0], [2, 3]]))
        nodes = geo.build_grid(tri, GridSpec(0.5, (0.5, 0.5), (6, 4)))
        with pytest.raises(GeometryError):
            geo.add_virtual_layers(nodes, tri, "+y", 1)


class TestBuildBonds:
    def test_closed_ball_inclusion(self):
        pos = np.array([[0.0, 0.0], [5.0, 0.0]])
        ns = geo.NodeSet(pos, np.ones(2), np.zeros(2, np.uint8), 5.0)
        assert geo.build_bonds(ns, 5.0).m == 1
        pos2 = np.array([[0.0, 0.0], [5.005, 0.0]])
        ns2 = geo.NodeSet(pos2, np.ones(2), np.zeros(2, np.uint8), 5.0)
        assert geo.build_bonds(ns2, 5.0).m == 0

    def test_interior_neighbor_count_m6(self):
        # disk of radius 6 lattice spacings: 112 neighbors by enumeration
        assert lattice_disk_count(6) == 112
        dom = Domain.rectangle(4, 4)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, 1 / 6))
        bonds = geo.build_bonds(nodes, 1.0)
        counts = np.bincount(np.concatenate([bonds.i, bonds.j]), minlength=nodes.n)
        center = np.argmin(np.linalg.norm(nodes.positions, axis=1))
        assert counts[center] == 112

    @pytest.mark.parametrize("nx,ny", [(7, 5), (12, 9)])
    def test_matches_brute_force(self, nx, ny):
        rng = np.random.default_rng(nx * 100 + ny)
        dom = Domain.rectangle(nx, ny)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, 1.0))
        horizon = 2.5
        bonds = geo.build_bonds(nodes, horizon)
        got = set(zip(bonds.i.tolist(), bonds.j.tolist()))
        # sorted by (i, j), which assembly relies on for sorted rows
        assert sorted(got) == list(zip(bonds.i.tolist(), bonds.j.tolist()))
        expect = set()
        for a in range(nodes.n):
            for b in range(a + 1, nodes.n):
                d = np.linalg.norm(nodes.positions[a] - nodes.positions[b])
                if d <= horizon * (1 + 1e-12):
                    expect.add((a, b))
        assert got == expect

    def test_bond_lengths_within_horizon(self):
        dom = Domain.rectangle(10, 10)
        nodes = geo.build_grid(dom, GridSpec.covering(dom, 1.0))
        bonds = geo.build_bonds(nodes, 3.0)
        assert np.all(bonds.length > 0)
        assert np.all(bonds.length <= 3.0 * (1 + 1e-12))
        assert np.all(bonds.i < bonds.j)


class TestRayQueries:
    def test_unit_square_center(self):
        sq = Domain.rectangle(1, 1, center=(0.5, 0.5))
        assert geo.rays_boundary_distance([[0.5, 0.5]], [[1, 0]], sq)[0] == pytest.approx(0.5)

    def test_diagonal_exit(self):
        sq = Domain.rectangle(1, 1, center=(0.5, 0.5))
        e = np.array([1.0, 1.0]) / np.sqrt(2)
        a = geo.rays_boundary_distance([[0.25, 0.25]], [e], sq)[0]
        assert a == pytest.approx(0.75 * np.sqrt(2))
        assert a == pytest.approx(bisect_exit_distance([0.25, 0.25], e, sq), abs=1e-9)
        a2 = geo.rays_boundary_distance([[0.25, 0.5]], [e], sq)[0]
        assert a2 == pytest.approx(bisect_exit_distance([0.25, 0.5], e, sq), abs=1e-9)

    def test_tangential_along_edge(self):
        # from a boundary point the collinear edge is transparent; the exit is
        # the far perpendicular edge
        sq = Domain.rectangle(1, 1, center=(0.5, 0.5))
        assert geo.rays_boundary_distance([[0.2, 0.0]], [[1, 0]], sq)[0] == pytest.approx(0.8)

    def test_origin_outside_raises(self):
        sq = Domain.rectangle(1, 1, center=(0.5, 0.5))
        with pytest.raises(GeometryError):
            geo.rays_boundary_distance([[2.0, 0.5]], [[1, 0]], sq)

    def test_origin_beyond_inactive_edge_raises(self):
        # containment checks every edge, not only the ones that cast crossings
        dom = Domain.rectangle(8, 6)
        with pytest.raises(GeometryError, match="ray origin lies outside the domain"):
            geo.truncated_lengths([[0.0, 3.25]], [[1, 0]], dom, 2.0,
                                  dom.side_edge_indices(("-x", "+x")))

    def test_truncated_length_cases(self):
        sq = Domain.rectangle(10, 10)
        # interior point with full horizon
        assert geo.truncated_lengths([[0, 0]], [[1, 0]], sq, 2.0)[0] == pytest.approx(2.0)
        # point half a horizon below the top surface, aimed at it
        assert geo.truncated_lengths([[0, 4.0]], [[0, 1]], sq, 2.0)[0] == pytest.approx(1.0)
        # corner aimed along the inward diagonal of a large square
        e = np.array([-1.0, -1.0]) / np.sqrt(2)
        assert geo.truncated_lengths([[5.0, 5.0]], [e], sq, 2.0)[0] == pytest.approx(2.0)

    @settings(max_examples=60, deadline=None)
    @given(px=st.floats(-4.9, 4.9), py=st.floats(-2.4, 2.4),
           ang=st.floats(0, 2 * np.pi))
    def test_exit_point_lies_on_boundary(self, px, py, ang):
        dom = Domain.rectangle(10, 5)
        e = np.array([np.cos(ang), np.sin(ang)])
        a = geo.rays_boundary_distance([[px, py]], [e], dom)[0]
        assert np.isfinite(a) and a > 0
        exit_point = np.array([px, py]) + a * e
        assert dom.boundary_distance(exit_point[None])[0] < 1e-10 * dom.diameter()

    @settings(max_examples=40, deadline=None)
    @given(px=st.floats(-4.5, 4.5), py=st.floats(-2.0, 2.0),
           ang=st.floats(0.01, 2 * np.pi - 0.01))
    def test_agrees_with_bisection_oracle(self, px, py, ang):
        dom = Domain.rectangle(10, 5)
        e = np.array([np.cos(ang), np.sin(ang)])
        a = geo.rays_boundary_distance([[px, py]], [e], dom)[0]
        assert a == pytest.approx(bisect_exit_distance([px, py], e, dom), abs=1e-8)


def test_bond_chords_stay_inside_truncated_horizon():
    # for every bond the exit distance along the bond from either end is at
    # least the bond length (convexity)
    dom = Domain.rectangle(6, 4)
    nodes = geo.build_grid(dom, GridSpec.covering(dom, 0.5))
    bonds = geo.build_bonds(nodes, 1.5)
    a_i = geo.rays_boundary_distance(nodes.positions[bonds.i], bonds.unit, dom,
                                     min_dist=1e-9 * 1.5)
    assert np.all(a_i >= bonds.length * (1 - 1e-9))


def test_csv_dumps(tmp_path):
    dom = Domain.rectangle(4, 4)
    nodes = geo.build_grid(dom, GridSpec.covering(dom, 1.0))
    bonds = geo.build_bonds(nodes, 1.5)
    m = MaterialModel.calibrated(ElasticParams(1000.0), 1.5, "constant", "discrete", 1.0)
    geo.write_nodes_csv(tmp_path / "nodes.csv", nodes)
    geo.write_bonds_csv(tmp_path / "bonds.csv", bonds,
                        mat.correct_bonds(bonds, nodes, dom, m, None))
    header = (tmp_path / "nodes.csv").read_text().splitlines()[0]
    assert header == "id,x,y,volume,role"
    lines = (tmp_path / "bonds.csv").read_text().splitlines()
    assert lines[0].startswith("i,j,xi_x,xi_y,len,c_ij")
    assert len(lines) == bonds.m + 1


def test_write_csv_formats_like_per_value_repr(tmp_path):
    # column-wise output must match formatting each value on its own
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1 / 3, -2.5e-300,
                       1e300, 5e-324, 123456789.0])
    ids = np.arange(len(values), dtype=np.int32)
    labels = np.array(["a", "bc"] * 5)
    geo.write_csv(tmp_path / "t.csv", ("i", "v", "s"), (ids, values, labels))
    want = ["i,v,s"] + [f"{k},{v:.17g},{s}" for k, v, s in zip(ids, values, labels)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


def per_cell_csv(header, columns) -> str:
    """Reference CSV text: every cell formatted on its own."""
    texts = [[("%.17g" % v) if c.dtype.kind == "f" else str(v) for v in c.tolist()]
             for c in columns]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*texts)])


def nan_with_bits(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def test_write_csv_is_per_cell_text_across_blocks(tmp_path):
    # values repeat across block boundaries and keep distinct bit patterns apart
    floats = np.array([0.0, -0.0, np.nan, nan_with_bits(0xFFF8000000000000),
                       nan_with_bits(0x7FF8000000000001), np.inf, -np.inf,
                       5e-324, 2.2250738585072009e-308, 1 / 3, -0.1, 1e300])
    assert np.signbit(floats[3]) and np.isnan(floats[3])
    singles = np.array([0.0, -0.0, 1e-45, 1 / 3, -2.5, np.inf, np.nan], dtype=np.float32)
    ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 7])
    n = 3 * geo._CSV_BLOCK + 123
    rows = np.arange(n)
    columns = (rows, floats[rows % len(floats)], singles[(rows * 5) % len(singles)],
               ints[(rows * 3) % len(ints)], rows % 3 == 0,
               np.array(["left", "right", "x,y"])[rows % 3])
    header = ("id", "f64", "f32", "i64", "flag", "label")
    geo.write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_text() == per_cell_csv(header, columns)


POOL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1 / 3, 1.0, -1e-300]


@given(st.lists(st.sampled_from(POOL), max_size=40),
       st.lists(st.integers(-3, 3), min_size=40, max_size=40),
       st.integers(1, 7))
@settings(max_examples=50, deadline=None)
def test_write_csv_matches_per_cell_text(tmp_path_factory, values, ints, block):
    values = np.array(values)
    columns = (values, values.astype(np.float32), np.array(ints[:len(values)]),
               values > 0)
    header = ("f64", "f32", "int", "flag")
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with mock.patch.object(geo, "_CSV_BLOCK", block):
        geo.write_csv(path, header, columns)
    assert path.read_text() == per_cell_csv(header, columns)


@pytest.mark.parametrize("header, columns", [
    (("id", "v"), (np.arange(5), np.ones(3))),
    (("a", "b", "c"), (np.arange(2), np.ones(2), np.zeros(2), np.ones(2))),
], ids=["unequal-lengths", "more-columns-than-header"])
def test_write_csv_refuses_a_ragged_table(tmp_path, header, columns):
    with pytest.raises(ValueError):
        geo.write_csv(tmp_path / "t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("corrected", [False, True], ids=["plain", "corrected"])
def test_bonds_csv_reads_back_bit_for_bit(tmp_path, corrected):
    dom = Domain.rectangle(6, 4)
    nodes = geo.build_grid(dom, GridSpec.covering(dom, 0.5))
    bonds = geo.build_bonds(nodes, 1.5)
    m = MaterialModel.calibrated(ElasticParams(1000.0), 1.5, "constant", "discrete", 0.5)
    # the uncorrected model's field: phi = 1 at both ends
    corr = mat.correct_bonds(bonds, nodes, dom, m, "all" if corrected else None)
    geo.write_bonds_csv(tmp_path / "bonds.csv", bonds, corr)
    header, *lines = (tmp_path / "bonds.csv").read_text().splitlines()
    cells = list(zip(*(line.split(",") for line in lines)))
    want = {"i": bonds.i, "j": bonds.j, "xi_x": bonds.xi[:, 0], "xi_y": bonds.xi[:, 1],
            "len": bonds.length, "c_ij": corr.coeff, "phi_i": corr.phi_i,
            "phi_j": corr.phi_j}
    assert header.split(",") == list(want) and len(lines) == bonds.m
    for name, column in zip(want, cells):
        if name in ("i", "j"):
            assert [int(v) for v in column] == want[name].tolist()
        else:
            got = np.array([float(v) for v in column])
            assert got.view(np.int64).tolist() == want[name].view(np.int64).tolist(), name
    if corrected:
        assert len(np.unique(corr.coeff)) > 1
