"""Planar body geometry, lattice discretization, and horizon neighbor search.

Lengths are in mm throughout. A body is a closed convex polygon with
counterclockwise winding, a sheet of unit thickness; the discretization is a
uniform square lattice of nodes carrying fixed cell areas (spacing**2 in mm^2
in the bulk), which serve as their volumes. All structures are plain
immutable arrays once built, so distance/containment/ray queries can be
issued concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


class GeometryError(ValueError):
    """Invalid geometric configuration (bad polygon, empty grid, ...)."""


ROLE_INTERIOR = 0
ROLE_SURFACE = 1
ROLE_VIRTUAL = 2

# indexed by role
ROLE_NAMES = ("interior", "surface", "virtual")

# axis-aligned side name -> (axis index, outward sign)
SIDES = {"-x": (0, -1.0), "+x": (0, 1.0), "-y": (1, -1.0), "+y": (1, 1.0)}


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class Domain:
    """Strictly convex polygonal body.

    ``vertices`` is an (V, 2) array in counterclockwise order; consecutive
    duplicate or collinear vertices are rejected so every edge has a
    well-defined outward normal, and so is a star polygon, whose turns are
    all positive but which winds more than once.
    """

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
            raise GeometryError("polygon needs at least 3 planar vertices")
        object.__setattr__(self, "vertices", verts)
        e = np.roll(verts, -1, axis=0) - verts
        e_next = np.roll(e, -1, axis=0)
        turn = _cross2(e, e_next)
        scale = np.max(np.abs(verts)) + 1.0
        if np.any(turn <= 1e-14 * scale**2):
            raise GeometryError("vertices must form a strictly convex CCW polygon")
        # the exterior angles sum to 2 pi times the winding number
        if np.sum(np.arctan2(turn, np.sum(e * e_next, axis=1))) >= 3.0 * np.pi:
            raise GeometryError("vertices must form a strictly convex CCW polygon, "
                                "not a star that winds more than once")

    @classmethod
    def rectangle(cls, size_x: float, size_y: float, center=(0.0, 0.0)) -> "Domain":
        cx, cy = center
        hx, hy = 0.5 * size_x, 0.5 * size_y
        verts = np.array([
            [cx - hx, cy - hy],
            [cx + hx, cy - hy],
            [cx + hx, cy + hy],
            [cx - hx, cy + hy],
        ])
        return cls(verts)

    def edge_vectors(self) -> np.ndarray:
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    def outward_normals(self) -> np.ndarray:
        e = self.edge_vectors()
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def diameter(self) -> float:
        d = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((d**2).sum(-1)).max())

    def contains(self, points: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Inside-or-on test for an array of points, shape (..., 2)."""
        pts = np.asarray(points, dtype=float)
        if tol is None:
            tol = 1e-12 * self.diameter()
        v = self.vertices
        e = self.edge_vectors()
        rel = pts[..., None, :] - v  # (..., V, 2)
        side = _cross2(e, rel)
        return np.all(side >= -tol, axis=-1)

    def boundary_distance(self, points: np.ndarray,
                          edge_indices: np.ndarray | None = None) -> np.ndarray:
        """Unsigned distance from each point to the polygon boundary.

        Only the edges in ``edge_indices`` count (all by default); a point's
        distance to no edge at all is +inf.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.vertices
        e = self.edge_vectors()
        if edge_indices is not None:
            v, e = v[edge_indices], e[edge_indices]
        ee = (e**2).sum(1)
        rel = pts[:, None, :] - v[None, :, :]
        t = np.clip((rel * e[None, :, :]).sum(-1) / ee[None, :], 0.0, 1.0)
        foot = v[None, :, :] + t[..., None] * e[None, :, :]
        d = np.linalg.norm(pts[:, None, :] - foot, axis=-1)
        return d.min(axis=1, initial=np.inf)

    def side_edge_indices(self, sides) -> np.ndarray:
        """Edge indices whose outward normal matches the named sides.

        Supports axis-aligned edges only; ``sides`` is an iterable of
        {"-x", "+x", "-y", "+y"}. Raises when a requested side has no
        matching edge.
        """
        normals = self.outward_normals()
        out = []
        for name in sides:
            if name not in SIDES:
                raise GeometryError(f"unknown side {name!r}")
            axis, sign = SIDES[name]
            target = np.zeros(2)
            target[axis] = sign
            match = np.where(np.linalg.norm(normals - target, axis=1) < 1e-9)[0]
            if len(match) == 0:
                raise GeometryError(f"domain has no axis-aligned {name} edge")
            out.extend(match.tolist())
        return np.array(sorted(set(out)), dtype=int)


@dataclass(frozen=True)
class GridSpec:
    """Uniform square lattice: ``origin + (ix, iy) * spacing``."""

    spacing: float
    origin: tuple[float, float]
    counts: tuple[int, int]

    def __post_init__(self):
        if self.spacing <= 0:
            raise GeometryError("lattice spacing must be positive")
        if min(self.counts) < 1:
            raise GeometryError("lattice counts must be at least 1 per axis")

    @classmethod
    def covering(cls, domain: Domain, spacing: float) -> "GridSpec":
        """Vertex-centered lattice over the domain bounding box.

        For a rectangle whose edges are integer multiples of the spacing the
        outermost nodes fall exactly on the boundary.
        """
        lo = domain.vertices.min(axis=0)
        hi = domain.vertices.max(axis=0)
        counts = tuple(int(round((hi[k] - lo[k]) / spacing)) + 1 for k in range(2))
        return cls(spacing, (float(lo[0]), float(lo[1])), counts)

    @classmethod
    def cell_centered(cls, domain: Domain, spacing: float) -> "GridSpec":
        """Lattice of cell centers: outermost nodes sit spacing/2 inside."""
        lo = domain.vertices.min(axis=0)
        hi = domain.vertices.max(axis=0)
        counts = tuple(int(round((hi[k] - lo[k]) / spacing)) for k in range(2))
        origin = (float(lo[0]) + 0.5 * spacing, float(lo[1]) + 0.5 * spacing)
        return cls(spacing, origin, counts)

    def points(self) -> np.ndarray:
        nx, ny = self.counts
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
        pts = np.empty((nx * ny, 2))
        pts[:, 0] = self.origin[0] + ix.ravel() * self.spacing
        pts[:, 1] = self.origin[1] + iy.ravel() * self.spacing
        return pts


@dataclass
class NodeSet:
    """Meshfree discretization: positions, fixed volumes and role flags.

    ``volumes`` are cell areas (mm^2), which are the volumes of the unit sheet.

    Distances to the body surface come from ``Domain.boundary_distance``.
    """

    positions: np.ndarray        # (N, 2)
    volumes: np.ndarray          # (N,)
    roles: np.ndarray            # (N,) uint8, ROLE_* constants
    spacing: float

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def virtual_mask(self) -> np.ndarray:
        return self.roles == ROLE_VIRTUAL

    @property
    def real_mask(self) -> np.ndarray:
        return self.roles != ROLE_VIRTUAL

    def on_side(self, domain: Domain, side: str) -> np.ndarray:
        """Ids of real nodes on the given axis-aligned edge, to 1e-7 spacings."""
        edge = domain.side_edge_indices([side])[0]
        v = domain.vertices[edge]
        e = domain.edge_vectors()[edge]
        rel = self.positions - v
        dist = np.abs(_cross2(np.broadcast_to(e, rel.shape), rel)) / np.linalg.norm(e)
        t = (rel * e).sum(1) / (e**2).sum()
        hit = (dist < 1e-7 * self.spacing) & (t > -1e-9) & (t < 1 + 1e-9) & self.real_mask
        return np.where(hit)[0]


def _clip_cell_area(center: np.ndarray, spacing: float, domain: Domain) -> float:
    """Area of the node's square lattice cell clipped to the polygon."""
    h = 0.5 * spacing
    poly = [
        (center[0] - h, center[1] - h),
        (center[0] + h, center[1] - h),
        (center[0] + h, center[1] + h),
        (center[0] - h, center[1] + h),
    ]
    for (vx, vy), (ex, ey) in zip(domain.vertices, domain.edge_vectors()):
        inside = [ex * (py - vy) - ey * (px - vx) >= 0.0 for px, py in poly]
        clipped = []
        for a in range(len(poly)):
            b = (a + 1) % len(poly)
            if inside[a]:
                clipped.append(poly[a])
            if inside[a] != inside[b]:
                ax, ay = poly[a]
                bx, by = poly[b]
                da = ex * (ay - vy) - ey * (ax - vx)
                db = ex * (by - vy) - ey * (bx - vx)
                t = da / (da - db)
                clipped.append((ax + t * (bx - ax), ay + t * (by - ay)))
        poly = clipped
        if len(poly) < 3:
            return 0.0
    area = 0.0
    for a in range(len(poly)):
        bx, by = poly[(a + 1) % len(poly)]
        ax, ay = poly[a]
        area += ax * by - bx * ay
    return 0.5 * area


def build_grid(domain: Domain, spec: GridSpec) -> NodeSet:
    """Keep the lattice points inside or on the body.

    Each node carries the area of its lattice cell clipped to the body, so
    boundary rows of vertex-centered grids carry their tributary half/quarter
    cells and the discretized area adds up to the body area exactly.

    Raises GeometryError when no lattice point intersects the domain.
    """
    pts = spec.points()
    keep = domain.contains(pts, tol=1e-9 * spec.spacing)
    pts = pts[keep]
    if len(pts) == 0:
        raise GeometryError("grid does not intersect the domain")
    bd = domain.boundary_distance(pts)
    roles = np.where(bd < 1e-7 * spec.spacing, ROLE_SURFACE, ROLE_INTERIOR).astype(np.uint8)
    vol = np.full(len(pts), spec.spacing**2)
    near = bd < spec.spacing / np.sqrt(2.0)  # only these cells can be cut
    for idx in np.where(near)[0]:
        vol[idx] = _clip_cell_area(pts[idx], spec.spacing, domain)
    return NodeSet(pts, vol, roles, spec.spacing)


def add_virtual_layers(nodes: NodeSet, domain: Domain, side: str, layers: int) -> NodeSet:
    """Append rows of virtual nodes outside an axis-aligned flat surface.

    Virtual nodes continue the lattice beyond the body; they participate in
    bonds but their displacements are always prescribed. ``layers == 0`` is a
    no-op.
    """
    if layers < 0:
        raise GeometryError("layers must be non-negative")
    if layers == 0:
        return nodes
    domain.side_edge_indices([side])  # raises for unknown or non-axis-aligned sides
    axis, sign = SIDES[side]
    other = 1 - axis
    real = nodes.positions[nodes.real_mask]
    extreme = real[:, axis].max() if sign > 0 else real[:, axis].min()
    row = real[np.abs(real[:, axis] - extreme) < 1e-7 * nodes.spacing]
    cols = np.unique(row[:, other])
    # layer by layer outward, each in ascending order along the edge
    new_pts = np.empty((layers * len(cols), 2))
    new_pts[:, axis] = np.repeat(extreme + sign * np.arange(1, layers + 1) * nodes.spacing,
                                 len(cols))
    new_pts[:, other] = np.tile(cols, layers)
    vol = np.full(len(new_pts), nodes.spacing**2)
    roles = np.full(len(new_pts), ROLE_VIRTUAL, dtype=np.uint8)
    return NodeSet(
        np.vstack([nodes.positions, new_pts]),
        np.concatenate([nodes.volumes, vol]),
        np.concatenate([nodes.roles, roles]),
        nodes.spacing,
    )


@dataclass
class BondTable:
    """Unordered node pairs within the horizon (closed ball, no self-bonds)."""

    i: np.ndarray         # (M,) int32, i < j
    j: np.ndarray         # (M,) int32
    xi: np.ndarray        # (M, 2) reference vectors x_j - x_i
    length: np.ndarray    # (M,)
    unit: np.ndarray      # (M, 2)
    horizon: float

    @property
    def m(self) -> int:
        return len(self.i)


def build_bonds(nodes: NodeSet, horizon: float) -> BondTable:
    """All unordered pairs with 0 < |x_j - x_i| <= horizon, sorted by (i, j).

    Uses a k-d tree so the cost is proportional to nodes times neighbors.
    Pairs at exactly the horizon are kept (closed-ball convention); the query
    radius carries a 1e-12 relative slack to keep that inclusion robust. The
    pairs are unique, so one sort of the key ``i * N + j`` orders them.
    """
    if horizon <= 0:
        raise GeometryError("horizon must be positive")
    tree = cKDTree(nodes.positions)
    pairs = tree.query_pairs(horizon * (1 + 1e-12), output_type="ndarray")
    pairs = pairs[np.argsort(pairs[:, 0].astype(np.int64) * nodes.n + pairs[:, 1])]
    i = pairs[:, 0].astype(np.int32)
    j = pairs[:, 1].astype(np.int32)
    xi = nodes.positions[j] - nodes.positions[i]
    length = np.linalg.norm(xi, axis=1)
    keep = length <= horizon * (1 + 1e-12)
    if not keep.all():
        i, j, xi, length = i[keep], j[keep], xi[keep], length[keep]
    unit = xi / length[:, None]
    return BondTable(i, j, xi, length, unit, horizon)


def rays_boundary_distance(origins: np.ndarray, directions: np.ndarray,
                           domain: Domain, edge_indices: np.ndarray | None = None,
                           min_dist: float | None = None) -> np.ndarray:
    """Distance along each ray to the first boundary crossing.

    Vectorized over rays: ``origins`` and ``directions`` are (M, 2) with unit
    directions; every origin must lie inside or on the domain (GeometryError
    otherwise). Only the edges in ``edge_indices`` are considered (all by
    default), which lets callers treat selected surfaces as transparent.
    Rays that never cross an active edge get +inf. Crossings closer than
    ``min_dist`` are ignored so a ray starting exactly on the boundary does
    not report itself.

    One pass visits every edge once. Each edge's ``cross(v - o, e)`` is
    :meth:`Domain.contains`' ``cross(e, o - v)`` bit for bit, so it decides
    containment against that test's tolerance, and on an active edge it is
    also the crossing's numerator.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    diameter = domain.diameter()
    if min_dist is None:
        min_dist = 1e-9 * diameter
    active = np.zeros(len(domain.vertices), dtype=bool)
    active[slice(None) if edge_indices is None else np.asarray(edge_indices, dtype=int)] = True
    inside = np.ones(len(origins), dtype=bool)
    best = np.full(len(origins), np.inf)
    for v, e, cast in zip(domain.vertices, domain.edge_vectors(), active):
        w = v - origins
        num = _cross2(w, np.broadcast_to(e, w.shape))
        inside &= num >= -1e-12 * diameter
        if not cast:
            continue
        denom = _cross2(directions, np.broadcast_to(e, directions.shape))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = num / denom
            s = _cross2(w, directions) / denom
        ok = (np.abs(denom) > 1e-15) & (a > min_dist) & (s >= -1e-10) & (s <= 1 + 1e-10)
        best = np.where(ok & (a < best), a, best)
    if not inside.all():
        raise GeometryError("ray origin lies outside the domain")
    return best


def truncated_lengths(origins, directions, domain: Domain, horizon: float,
                      edge_indices=None) -> np.ndarray:
    """min(crossing distance, horizon) per ray; the incomplete-horizon bound."""
    a = rays_boundary_distance(origins, directions, domain, edge_indices,
                               min_dist=1e-9 * horizon)
    return np.minimum(a, horizon)


# rows joined per write: bounds the row text of million-row tables
_CSV_BLOCK = 4096
_FLOAT = "%.17g".__mod__


def _column_cells(col: np.ndarray):
    """Return ``rows -> list of cell texts`` for one column.

    A numeric column is formatted by its distinct values, each once: a float
    column keyed by its bit pattern, so ``0.0``/``-0.0`` and NaN payloads keep
    their own text. Other columns print with ``str`` per cell.
    """
    kind = col.dtype.kind
    if kind not in "fiu":
        return lambda rows: list(map(str, col[rows].tolist()))
    key = col.view(f"i{col.dtype.itemsize}") if kind == "f" else col
    distinct, index = np.unique(key, return_inverse=True)
    fmt = _FLOAT if kind == "f" else str
    texts = np.array(list(map(fmt, distinct.view(col.dtype).tolist())), dtype=object)
    return lambda rows: texts[index[rows]].tolist()


def write_csv(path, header, columns) -> None:
    """Write equal-length array columns under a header row.

    Floating columns print with ``%.17g``, which round-trips every float64;
    integer, bool and string columns print with ``str``. Each distinct value
    of a numeric column is formatted once; the text is the same as formatting
    every cell. Rows are joined and written in blocks of ``_CSV_BLOCK``.
    Raises ``ValueError``, before the file is opened, when the column count
    differs from the header's or the columns differ in length.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns under a {len(header)}-name header")
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    cells = [_column_cells(c) for c in columns]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, lengths[0] if lengths else 0, _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            f.write("".join(",".join(row) + "\n" for row in zip(*(c(rows) for c in cells))))


def write_nodes_csv(path, nodes: NodeSet) -> None:
    write_csv(path, ("id", "x", "y", "volume", "role"),
              (np.arange(nodes.n), nodes.positions[:, 0], nodes.positions[:, 1],
               nodes.volumes, np.array(ROLE_NAMES)[nodes.roles]))


def write_bonds_csv(path, bonds: BondTable, correction) -> None:
    """Bond table dump with the per-bond coefficient and endpoint factors.

    An uncorrected bond model passes its correction field, with ``phi = 1``.
    """
    write_csv(path, ("i", "j", "xi_x", "xi_y", "len", "c_ij", "phi_i", "phi_j"),
              (bonds.i, bonds.j, bonds.xi[:, 0], bonds.xi[:, 1], bonds.length,
               correction.coeff, correction.phi_i, correction.phi_j))
