"""Quasi-static assembly, constrained solves, energies and contact ramping.

The linear operator over the 2N displacement degrees of freedom follows from
the pairwise force

    F_i = sum_j (c_ij / xi) [e x e] (u_j - u_i) V_i V_j

so K is symmetric positive semi-definite with a rigid-translation null space
before constraints. Degrees of freedom are interleaved: dof = 2*node + axis.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cholesky
from scipy.linalg.blas import dgemm, dgemv, dnrm2, dsyrk, dtrsm
from scipy.spatial import cKDTree

from .geometry import BondTable, GeometryError, NodeSet
from .material import CorrectionField


class SolverFailure(RuntimeError):
    """The constrained linear solve did not reach the requested residual."""


def node_dofs(ids: np.ndarray) -> np.ndarray:
    """``(len(ids), 2)`` dofs ``2 * node + axis`` of an array of node ids."""
    return 2 * ids[:, None] + np.arange(2)


@dataclass
class BCSet:
    """Prescribed displacements (per axis) and applied nodal forces.

    A node/axis pair may be prescribed or loaded, never both; virtual nodes
    must always be fully prescribed by the caller.
    """

    n: int
    prescribed_mask: np.ndarray = None   # (N, 2) bool
    prescribed_value: np.ndarray = None  # (N, 2) mm
    loads: np.ndarray = None             # (N, 2) N

    def __post_init__(self):
        if self.prescribed_mask is None:
            self.prescribed_mask = np.zeros((self.n, 2), dtype=bool)
        if self.prescribed_value is None:
            self.prescribed_value = np.zeros((self.n, 2))
        if self.loads is None:
            self.loads = np.zeros((self.n, 2))

    def prescribe(self, ids, ux: float | np.ndarray | None = None,
                  uy: float | np.ndarray | None = None) -> "BCSet":
        ids = np.asarray(ids, dtype=int)
        for axis, val in ((0, ux), (1, uy)):
            if val is not None:
                self.prescribed_mask[ids, axis] = True
                self.prescribed_value[ids, axis] = val
        return self

    def add_load(self, ids, fx=0.0, fy=0.0) -> "BCSet":
        ids = np.asarray(ids, dtype=int)
        self.loads[ids, 0] += fx
        self.loads[ids, 1] += fy
        return self

    def validate(self) -> None:
        clash = self.prescribed_mask & (self.loads != 0.0)
        if np.any(clash):
            raise ValueError("a node/axis pair is both prescribed and loaded")


@dataclass
class SolveDiagnostics:
    method: str
    iterations: int
    residual: float


def _upper_blocks(nodes: NodeSet, bonds: BondTable,
                  correction: CorrectionField) -> sp.csr_matrix:
    """``U`` of ``K = U + U^T`` (see :func:`assemble`).

    A function of its own so that its per-bond temporaries and COO arrays
    are freed before the sum, which holds the allocation peak.
    """
    n, m = nodes.n, bonds.m
    w = (correction.coeff / bonds.length
         * nodes.volumes[bonds.i] * nodes.volumes[bonds.j])
    ex, ey = bonds.unit[:, 0], bonds.unit[:, 1]
    bxx, bxy, byy = w * ex * ex, w * ex * ey, w * ey * ey
    # COO entries: three per node, then four per bond
    rows = np.empty(3 * n + 4 * m, dtype=np.int32)
    cols = np.empty_like(rows)
    data = np.empty(len(rows))
    nr, nc, nd = (a[:3 * n].reshape(n, 3) for a in (rows, cols, data))
    br, bc, bd = (a[3 * n:].reshape(m, 4) for a in (rows, cols, data))
    nr[:] = 2 * np.arange(n)[:, None] + [0, 0, 1]
    nc[:] = 2 * np.arange(n)[:, None] + [0, 1, 1]
    # node-diagonal blocks from both bond endpoints
    for col, b in enumerate((bxx, bxy, byy)):
        nd[:, col] = np.bincount(bonds.i, b, n) + np.bincount(bonds.j, b, n)
    nd[:, ::2] *= 0.5  # the sum with U^T doubles the diagonal back
    np.add(2 * bonds.i[:, None], np.array([0, 0, 1, 1], dtype=np.int32), out=br)
    np.add(2 * bonds.j[:, None], np.array([0, 1, 0, 1], dtype=np.int32), out=bc)
    for col, b in enumerate((bxx, bxy, bxy, byy)):
        np.negative(b, out=bd[:, col])
    return sp.coo_matrix((data, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()


def assemble(nodes: NodeSet, bonds: BondTable,
             correction: CorrectionField) -> sp.csr_matrix:
    """Stiffness operator from per-bond coefficients (2N x 2N CSR).

    ``K = U + U^T`` from one sum of CSR matrices. ``U`` holds each node's
    2x2 diagonal block as its upper triangle with the diagonal halved
    (``0.5 * d + 0.5 * d == d`` exactly), then each bond's ``(i, j)`` block.
    The diagonal blocks are accumulated once per node and mirrored entries
    share the same values, so K equals its transpose exactly; the sum drops
    exact zeros. ``U``'s entries are laid out node blocks first, then bonds
    in table order, so a table sorted by ``(i, j)``, as
    :func:`~pdsc.geometry.build_bonds` returns it, gives sorted rows and
    nothing to sort; any other order gives the same ``K``.
    """
    u = _upper_blocks(nodes, bonds, correction)
    return u + u.T


def _pcg(a: sp.csr_matrix, rhs: np.ndarray, tol: float,
         max_iter: int) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned conjugate gradients for an SPD matrix ``a``."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    ref = np.linalg.norm(rhs)
    if ref == 0.0:
        return x, 0, 0.0
    diag = a.diagonal()
    inv_diag = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 1.0)
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for it in range(1, max_iter + 1):
        q = a @ p
        pq = p @ q
        if not pq > 0.0:
            raise SolverFailure(f"pcg breakdown at iteration {it}: p.Kp = {pq:.3e}")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        res = np.linalg.norm(r) / ref
        if not np.isfinite(res):
            raise SolverFailure(f"pcg breakdown at iteration {it}: residual {res}")
        if res <= tol:
            return x, it, res
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iter, np.linalg.norm(r) / ref


# nested-dissection leaves: below this many nodes a block is not split further
_ND_LEAF = 64


def _operator_reach(positions: np.ndarray, k: sp.spmatrix) -> np.ndarray:
    """Largest distance per axis between two nodes that share a stored entry.

    Both dof rows of every node count: the x-x entries of a bond along y are
    exactly zero, so the x rows alone would miss it. Each nonempty row's
    extreme column positions are compared with its own node's: the rounded
    difference ``x_c - x_r`` is monotone in ``x_c``, so this is the largest
    ``|x_r - x_c|`` over the stored entries, bit for bit.
    """
    k = sp.csr_matrix(k)
    rows = np.flatnonzero(np.diff(k.indptr))
    reach = np.zeros(2)
    if len(rows) == 0:
        return reach
    starts = k.indptr[rows]
    for a in (0, 1):
        x = np.repeat(positions[:, a], 2)  # per dof
        xc, xr = x[k.indices], x[rows]
        reach[a] = max(np.abs(np.maximum.reduceat(xc, starts) - xr).max(),
                       np.abs(xr - np.minimum.reduceat(xc, starts)).max())
        del xc  # one axis's column positions alive at a time, each as long as K
    return reach


def _bisect(p: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the two halves of the points ``p``; the rest is the separator.

    The cut is the median of the longer axis and the separator the half-open
    slab ``cut - r/2 <= p < cut + r/2`` of the reach ``r`` along it, so no
    stored entry couples one half to the other.
    """
    axis = int(np.ptp(p[:, 1]) > np.ptp(p[:, 0]))
    x = p[:, axis]
    cut = np.median(x)
    return x < cut - 0.5 * reach[axis], x >= cut + 0.5 * reach[axis]


def nested_dissection(positions: np.ndarray, reach: np.ndarray) -> list[tuple]:
    """Separator tree of a geometric nested dissection (George, 1973).

    Each block is ``(ids, children)``: the nodes are bisected recursively by
    :func:`_bisect` with the operator's :func:`_operator_reach` ``reach``, a
    block keeps the separator's node ids and has the indices of its halves'
    blocks as children, so no stored entry couples them. Blocks of at most
    ``_ND_LEAF`` nodes, or that cannot be split, are leaves with no children.
    The list is in postorder, each block after its children: its ids,
    concatenated, are an elimination order.
    """
    tree = []

    def split(ids) -> int:
        children = ()
        if len(ids) > _ND_LEAF:
            lo, hi = _bisect(positions[ids], reach)
            if lo.any() and hi.any():
                children = (split(ids[lo]), split(ids[hi]))
                ids = ids[~(lo | hi)]
        tree.append((ids, children))
        return len(tree) - 1

    split(np.arange(len(positions)))
    return tree


def _available_memory() -> int | None:
    """The lower of the ``RLIMIT_AS`` soft limit and ``MemAvailable``, or None."""
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    known = [] if soft == resource.RLIM_INFINITY else [soft]
    try:
        with open("/proc/meminfo") as fh:
            known += [int(line.split()[1]) * 1024 for line in fh
                      if line.startswith("MemAvailable:")]
    except (OSError, ValueError):
        pass
    return min(known, default=None)


def _rcond_verdict(diagonals) -> str | None:
    """Why a factor with these pivot diagonals is refused, or None.

    CHOLMOD's rcond estimate ``(min L_ii / max L_ii)^2`` below the machine
    epsilon: a mechanism whose pivots round to tiny positive values.
    """
    pivots = np.concatenate([np.ones(0), *diagonals])
    rcond = (pivots.min() / pivots.max()) ** 2 if len(pivots) else 1.0
    if rcond < np.finfo(float).eps:
        return f"the matrix is not positive definite: its factor's rcond estimate is {rcond:.3g}"
    return None


class MultifrontalCholesky:
    """``A = L L^T`` of an SPD matrix by dense fronts on an assembly tree.

    ``sizes[t]`` consecutive unknowns belong to tree node ``t``, which comes
    after its ``children[t]``, and no entry of ``A`` couples two children of
    one node. Each front, its unknowns plus the later ones its subtree couples
    to, sums its rows of ``A`` (duplicate entries too) and its children's
    updates, is factored, and passes ``F_BB - L_BI L_BI^T`` on (Duff & Reid
    1983; Liu 1992). A solve's forward sweep skips the fronts that no nonzero
    row of the right-hand side reaches (Gilbert & Peierls 1988; Liu 1990).
    Dense kernels run on scipy's BLAS only: numpy's own BLAS threads would
    fight it.
    A factor that would not fit in :func:`_available_memory` raises
    :class:`SolverFailure` before anything is allocated, and so do a front
    that is not positive definite and a mechanism whose pivots round to tiny
    positive values (see :func:`_rcond_verdict`).
    ``L.nnz`` (``U = L^T``) counts stored entries, zeros in the fronts too.

    ``twin = (b, r, name)`` also decides, in the same pass, whether a second
    matrix ``B`` is positive definite, without factoring it: ``B`` equals
    ``A`` outside the last node's (the root's) own block, its root unknowns
    are the first ``r`` of ``A``'s followed by ``B``'s own, which no other
    node couples to, and ``b`` is ``B``'s block on them. Every front below the
    root is then the same for both, so ``B``'s root front is ``A``'s with
    ``A``'s own entries replaced by ``b``: one more dense Cholesky, whose
    verdict, over the shared pivots and its own, comes first and is prefixed
    with ``name``. The memory estimate counts it.
    """

    def __init__(self, a: sp.spmatrix, sizes, children, twin=None):
        a = sp.csr_matrix(a)
        ends = np.cumsum(sizes, dtype=np.int64)
        starts = ends - sizes
        root = len(ends) - 1
        bounds, alive, nnz, stored, peak = [], [], 0, 0, 0
        for t, (s, e, kids) in enumerate(zip(starts, ends, children)):
            cols = a.indices[a.indptr[s]:a.indptr[e]]
            bounds.append(np.unique(np.concatenate(
                [cols[cols >= e]] + [bounds[c][bounds[c] >= e] for c in kids])))
            p, b = e - s, len(bounds[-1])
            nnz += p * (p + 1) // 2 + p * b
            stored += p * p + p * b
            front = (p + b) ** 2 + b * b
            if t == root and twin is not None:
                front += twin[0].shape[0] ** 2  # B's root front
            peak = max(peak, stored + sum(alive) + front)
            alive[len(alive) - len(kids):] = [b * b]
        need, have = 8 * peak, _available_memory()
        if have is not None and need > have:
            raise SolverFailure(f"the factor of {a.shape[0]} unknowns needs about "
                                f"{need / 1e9:.3g} GB, more than the {have / 1e9:.3g} "
                                "GB available")
        self.L = self.U = SimpleNamespace(nnz=int(nnz))
        self.fronts, updates = [], {}
        loc = np.empty(a.shape[0], dtype=np.int64)  # front position of each unknown
        for t, (s, e, bnd, kids) in enumerate(zip(starts, ends, bounds, children)):
            p, m = e - s, e - s + len(bnd)
            loc[s:e], loc[bnd] = np.arange(p), np.arange(p, m)
            # the own columns, with F_BB apart so that dsyrk can overwrite
            # it; own rows of A go in as columns (only the lower triangle
            # is used), summed so that duplicate entries add up
            span = slice(a.indptr[s], a.indptr[e])
            cols = a.indices[span]
            rows = np.repeat(np.arange(p), np.diff(a.indptr[s:e + 1]))
            mine = cols >= s
            at, val = loc[cols[mine]] + m * rows[mine], a.data[span][mine]
            split = t == root and twin is not None  # B's root front needs the updates alone
            f = (np.zeros((m, p), order="F") if split else
                 np.bincount(at, val, m * p).reshape((m, p), order="F"))
            fbb = np.zeros((m - p, m - p), order="F")
            for c in kids:
                # by runs of consecutive positions, few on these fronts;
                # a run ends where F_BB begins
                pos, u = loc[bounds[c]], updates.pop(c)
                first = np.flatnonzero((np.diff(pos, prepend=-2) != 1) | (pos == p))
                for i, j in zip(first, [*first[1:], len(pos)]):
                    if pos[i] < p:
                        f[pos[i:], pos[i]:pos[i] + j - i] += u[i:, i:j]
                    else:
                        fbb[pos[i:] - p, pos[i] - p:pos[i] - p + j - i] += u[i:, i:j]
            u = None  # freed before the dense factors
            if split:
                self._decide_twin(t, f, twin)
                f += np.bincount(at, val, m * p).reshape((m, p), order="F")
            if p == 0:  # a node with no unknowns passes its children's updates on
                updates[t] = fbb
                continue
            try:
                # in place on a front without boundary, copied on the others
                l11 = cholesky(f[:p], lower=True, overwrite_a=True, check_finite=False)
            except LinAlgError as exc:
                raise SolverFailure(f"the matrix is not positive definite at front "
                                    f"{t} ({p} unknowns, {len(bnd)} boundary)") from exc
            w = dtrsm(1.0, l11, f[p:], side=1, lower=1, trans_a=1)
            if len(bnd):
                updates[t] = dsyrk(-1.0, w, beta=1.0, c=fbb, lower=1, overwrite_c=1)
            self.fronts.append((s, e, bnd, l11, w))
        refused = _rcond_verdict(np.diag(f[3]) for f in self.fronts)
        if refused:
            raise SolverFailure(refused)

    def _decide_twin(self, t: int, update: np.ndarray, twin) -> None:
        """Raise SolverFailure if the twin ``B`` is not positive definite.

        ``update`` is the sum of the root's children's updates, on ``A``'s
        root unknowns; ``self.fronts`` holds every front below the root.
        """
        b, r, name = twin
        fb = b.toarray(order="F")
        fb[:r, :r] += update[:r, :r]
        try:
            lb = cholesky(fb, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError as exc:
            raise SolverFailure(f"{name}, the matrix is not positive definite at front "
                                f"{t} ({len(fb)} unknowns, 0 boundary)") from exc
        refused = _rcond_verdict([np.diag(lb), *(np.diag(f[3]) for f in self.fronts)])
        if refused:
            raise SolverFailure(f"{name}, {refused}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^{-1} b`` for one column ``(n,)`` or many ``(n, k)``.

        The forward sweep visits only the fronts that a nonzero (or NaN) row
        of ``b`` reaches through the tree, from its own front up to the root;
        the others would pass zeros on. The backward sweep visits them all.
        """
        x = np.array(b, dtype=float)
        v = x[:, None] if x.ndim == 1 else x  # a view: writes go through to x
        live = (v != 0).any(axis=1)  # NaN != 0 too
        if not live.any():
            return x
        for s, e, bnd, l11, w in self.fronts:
            if live[s:e].any():
                y = v[s:e] = dtrsm(1.0, l11, v[s:e], lower=1)
                if len(bnd):
                    v[bnd] = dgemm(-1.0, w, y, 1.0, v[bnd])
                    live[bnd] = True
        for s, e, bnd, l11, w in reversed(self.fronts):
            z = dgemm(-1.0, w, v[bnd], 1.0, v[s:e], trans_a=1) if len(bnd) else v[s:e]
            v[s:e] = dtrsm(1.0, l11, z, lower=1, trans_a=1)
        return x


def _reduced(k: sp.csr_matrix, bcs: BCSet, dofs: np.ndarray):
    """``K u = f`` split: the free dofs among ``dofs`` in their order, the
    prescribed field ``u`` (zero where free), ``rhs = (f - K u)[free]``, ``K_ff``."""
    bcs.validate()
    pres = bcs.prescribed_mask.ravel()
    free = dofs[~pres[dofs]]
    u = np.zeros(k.shape[0])
    u[pres] = bcs.prescribed_value.ravel()[pres]
    rhs = (bcs.loads.ravel() - k @ u)[free]
    return free, u, rhs, k[free][:, free]


def solve_static(k: sp.csr_matrix, bcs: BCSet,
                 tol: float = 1e-10) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve K u = b with prescribed dofs eliminated.

    The residual contract is ||K_ff u_f - (b_f - K_fp u_p)|| / ||rhs|| <= tol,
    met by Jacobi-preconditioned conjugate gradients in at most
    ``ceil(50 sqrt(nfree))`` iterations; a breakdown or a stall raises
    SolverFailure. The tests check it against ``analytic.dense_oracle_solve``
    and the :class:`MultifrontalCholesky` of a :class:`RampSolver`.
    """
    free, u, rhs, kff = _reduced(k, bcs, np.arange(k.shape[0]))
    uf, iters, res = _pcg(kff, rhs, tol, int(np.ceil(50 * np.sqrt(len(rhs)))))
    if not res <= tol:
        raise SolverFailure(
            f"pcg solve stalled at relative residual {res:.3e} (tol {tol:.1e})")
    u[free] = uf
    return u.reshape(-1, 2), SolveDiagnostics("pcg", iters, float(res))


def strain_energy_density(nodes: NodeSet, bonds: BondTable,
                          correction: CorrectionField, u: np.ndarray) -> np.ndarray:
    """Per-node stored energy density (MPa).

    Each bond's energy splits between its endpoints with the endpoint's own
    stiffened amplitude c_b(xi) * phi(x, e), not the symmetric bond
    coefficient; summed against the partner volume. Virtual nodes receive
    their share too, so callers can report energy residing outside the body
    separately.
    """
    w = np.zeros(nodes.n)
    du = u[bonds.j] - u[bonds.i]
    stretch_sq = (bonds.unit[:, 0] * du[:, 0] + bonds.unit[:, 1] * du[:, 1]) ** 2
    base = 0.25 * correction.bulk * stretch_sq / bonds.length
    w += np.bincount(bonds.i, weights=base * correction.phi_i * nodes.volumes[bonds.j],
                     minlength=nodes.n)
    w += np.bincount(bonds.j, weights=base * correction.phi_j * nodes.volumes[bonds.i],
                     minlength=nodes.n)
    return w


def reaction_force(k: sp.csr_matrix, u: np.ndarray, bcs: BCSet,
                   node_ids: np.ndarray) -> np.ndarray:
    """Sum of constraint residual forces (N) over the given nodes.

    Only the given nodes' rows of ``k`` are multiplied; each row sums its
    entries in stored order, as the full product would. So ``k`` need hold
    no other row: the indentation ramp keeps only ``K``'s surface rows.
    """
    rows = node_dofs(np.asarray(node_ids, dtype=int)).ravel()
    r = (k[rows] @ u.ravel() - bcs.loads.ravel()[rows]).reshape(-1, 2)
    return r.sum(axis=0)


def check_bond_inversion(bonds: BondTable, u: np.ndarray) -> np.ndarray:
    """Bond indices whose deformed vector reversed against the reference.

    A non-empty result means the deformed configuration maps material points
    past each other, so a static continuation is no longer meaningful. The
    indentation ramp passes only the bonds its :class:`InversionScreen`
    cannot clear, as a sub-table.
    """
    deformed = bonds.xi + u[bonds.j] - u[bonds.i]
    proj = deformed[:, 0] * bonds.xi[:, 0] + deformed[:, 1] * bonds.xi[:, 1]
    return np.flatnonzero(proj <= 0.0)


class InversionScreen:
    """Exact pre-filter of :func:`check_bond_inversion` by displacement spans.

    The nodes are binned into square cells of side ``bonds.horizon`` and the
    bonds grouped by their (unordered) pair of cells. Per call, the per-cell,
    per-axis range of ``u`` bounds the relative displacement of every bond of
    a cell pair by ``D``; since ``(xi + du).xi >= |xi| (|xi| - |du|)``, a
    pair whose ``D`` stays below its shortest bond by a margin that covers the
    rounding of the full formula (relative 1e-6 of the longest bond plus
    ``max|u|``) holds no reversed bond. Only the other pairs' bonds are
    scanned, so the result is the full scan's bit for bit; a non-finite ``u``
    clears nothing.
    """

    def __init__(self, positions: np.ndarray, bonds: BondTable):
        self.bonds = bonds
        cell = np.floor((positions - positions.min(axis=0)) / bonds.horizon).astype(np.int64)
        _, cell_of = np.unique(cell[:, 0] * (cell[:, 1].max() + 1) + cell[:, 1],
                               return_inverse=True)
        ncell = cell_of.max() + 1
        self.nodes = np.argsort(cell_of, kind="stable")
        self.starts = np.searchsorted(cell_of[self.nodes], np.arange(ncell))
        a, b = cell_of[bonds.i], cell_of[bonds.j]
        key = np.minimum(a, b) * ncell + np.maximum(a, b)
        del a, b  # each as long as the table, as are the keys below
        self.order = np.argsort(key, kind="stable")
        key = key[self.order]  # sorted, so each pair's first bond is where the key changes
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        self.cell_i, self.cell_j = np.divmod(key[first], ncell)
        self.first, self.count = first, np.diff(np.append(first, bonds.m))
        self.shortest = np.minimum.reduceat(bonds.length[self.order], first)
        self.longest = bonds.length.max(initial=0.0)

    def candidates(self, u: np.ndarray) -> np.ndarray:
        """Sorted ids of the bonds whose cell pair the span bound cannot clear."""
        us = u[self.nodes]
        lo = np.minimum.reduceat(us, self.starts)
        hi = np.maximum.reduceat(us, self.starts)
        ci, cj = self.cell_i, self.cell_j
        span = np.maximum(hi[cj] - lo[ci], hi[ci] - lo[cj])
        reach = np.hypot(span[:, 0], span[:, 1]) + 1e-6 * (self.longest + np.abs(u).max())
        hit = np.flatnonzero(~(reach < self.shortest))  # NaN counts as a hit
        start, count = self.first[hit], self.count[hit]
        offsets = np.repeat(start - (np.cumsum(count) - count), count)
        return np.sort(self.order[np.arange(count.sum()) + offsets])

    def inverted(self, u: np.ndarray) -> np.ndarray:
        """``check_bond_inversion(bonds, u)``, scanning only the candidates."""
        ids, b = self.candidates(u), self.bonds
        sub = BondTable(b.i[ids], b.j[ids], b.xi[ids], b.length[ids], b.unit[ids],
                        b.horizon)
        return ids[check_bond_inversion(sub, u)]


class RampSolver:
    """Repeated solves of one operator under a growing set of point constraints.

    The stiffness is factorized once over the base free set by a
    :class:`MultifrontalCholesky` on the elimination ``tree``, a list of
    ``(node ids, child blocks)`` like :func:`nested_dissection`'s (both dofs
    of a node together), with ``twin`` the factor's optional twin. The
    constructor takes :meth:`reduced`'s split of the operator, not the
    operator, so that a caller can drop the operator before the factor runs;
    the solver keeps only the free block ``kff``. Later
    constraints (the stick-contact set) are enforced through a bordered Schur
    complement: each :meth:`add_constraints` call backsolves all of its new
    dofs in one multi-column solve, whose forward sweep visits only the fronts
    from theirs up to the root, extends the Gram matrix by one block and
    ``K C`` by the new columns, and each step solves with the Gram matrix's
    Cholesky factor. A step's first residual is then ``r0 + (K C) lam``, one
    dense ``gemv`` from the cached residual ``r0`` of the unconstrained
    solution; it is verified against the same contract as
    :func:`solve_static` and polished by iterative refinement when needed,
    each round's residual taken from the sparse product.
    """

    @staticmethod
    def reduced(k: sp.csr_matrix, base_bcs: BCSet, tree: list[tuple]):
        """:func:`_reduced` over the dofs of ``tree``'s nodes in tree order."""
        return _reduced(k, base_bcs, node_dofs(np.concatenate([ids for ids, _ in tree])).ravel())

    def __init__(self, split, tree: list[tuple], twin=None, tol: float = 1e-10):
        self.tol = tol
        self.free, self.u_base, self.rhs, self.kff = split
        self.local = np.full(len(self.u_base), -1, dtype=np.int64)
        self.local[self.free] = np.arange(len(self.free))
        # each block's free dofs are consecutive in this numbering
        sizes = [(self.local[node_dofs(ids)] >= 0).sum() for ids, _ in tree]
        self.lu = MultifrontalCholesky(self.kff, sizes, [kids for _, kids in tree], twin)
        self.y = self.lu.solve(self.rhs)       # unconstrained solution, cached
        self.r0 = self.rhs - self.kff @ self.y  # and its residual
        self._cols = np.empty((len(self.free), 0), order="F")
        self._kcols = np.empty_like(self._cols)     # K times each of _cols
        self.cdofs: list[int] = []                  # free-local constrained dofs
        self._gram_factor = None                    # cho_factor of S^T A^{-1} S

    @property
    def cols(self) -> np.ndarray:
        """A^{-1} e_c per constrained dof, in attach order."""
        return self._cols[:, :len(self.cdofs)]

    def add_constraints(self, dofs) -> None:
        """Register additional constrained dofs (must be base-free).

        Every dof is checked and the new Gram matrix, gathered from the column
        buffer, factored before any state a caller sees changes; repeated or
        already constrained dofs count once. Buffer columns past
        ``len(cdofs)`` are scratch, so a refused batch changes nothing.
        """
        local = self.local[np.asarray(dofs, dtype=int)]
        if np.any(local < 0):
            raise ValueError("cannot constrain a dof prescribed in the base set")
        known = set(self.cdofs)
        new = [c for c in dict.fromkeys(local.tolist()) if c not in known]
        if not new:
            return
        n, m = len(self.cdofs), len(new)
        e = np.zeros((len(self.free), m))
        e[new, np.arange(m)] = 1.0
        if n + m > self._cols.shape[1]:
            width, old = max(2 * self._cols.shape[1], n + m), (self._cols, self._kcols)
            self._cols, self._kcols = (np.empty((len(self.free), width), order="F")
                                       for _ in old)
            self._cols[:, :n], self._kcols[:, :n] = (a[:, :n] for a in old)
        cols = self._cols[:, n:n + m] = self.lu.solve(e)
        try:
            factor = cho_factor(self._cols[self.cdofs + new, :n + m], check_finite=False)
        except LinAlgError as exc:
            raise SolverFailure(f"the Gram matrix of {n + m} contact dofs is not "
                                "positive definite") from exc
        # column by column: most batches are one node, two columns, where
        # scipy's block product is slower (equal at one column, faster from three)
        self._kcols[:, n:n + m] = np.column_stack([self.kff @ c for c in cols.T])
        self._gram_factor = factor
        self.cdofs += new

    def solve(self, values: np.ndarray) -> tuple[np.ndarray, SolveDiagnostics]:
        """Solve with the registered dofs held at ``values`` (attach order).

        The contract holds both the residual and the contact miss
        ``max|uf[cdofs] - values|``, relative to ``max|values|`` (1.0 when
        every value is zero), to ``tol``; a refinement round corrects both. A
        non-finite value, residual or miss raises :class:`SolverFailure`.
        """
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise SolverFailure("ramp solve given non-finite contact values")
        if not len(self.free):  # the base set prescribes every dof; dnrm2 rejects empty vectors
            return self.u_base.reshape(-1, 2).copy(), SolveDiagnostics("direct", 0, 0.0)
        uf, r = self.y.copy(), self.r0.copy()
        if self.cdofs:
            lam = cho_solve(self._gram_factor, uf[self.cdofs] - values, check_finite=False)
            uf = dgemv(-1.0, self.cols, lam, beta=1.0, y=uf, overwrite_y=1)
            # rhs - K (y - C lam) = r0 + (K C) lam
            r = dgemv(1.0, self._kcols[:, :len(self.cdofs)], lam, beta=1.0, y=r,
                      overwrite_y=1)
        rounds, ref = 0, dnrm2(self.rhs) or 1.0
        scale = np.abs(values).max(initial=0.0) or 1.0
        while True:
            r[self.cdofs] = 0.0  # constrained rows carry reaction, not residual
            res = dnrm2(r) / ref
            miss = np.abs(uf[self.cdofs] - values).max(initial=0.0) / scale
            if not np.maximum(res, miss) > self.tol or rounds >= 3:  # NaN stops too
                break
            d = self.lu.solve(r)
            if self.cdofs:
                lam = cho_solve(self._gram_factor, d[self.cdofs] + uf[self.cdofs] - values,
                                check_finite=False)
                d = dgemv(-1.0, self.cols, lam, beta=1.0, y=d, overwrite_y=1)
            uf += d
            rounds += 1
            r = self.rhs - self.kff @ uf
        if not (res <= self.tol and miss <= self.tol):
            raise SolverFailure(f"ramp solve stalled at relative residual {res:.3e}, "
                                f"contact miss {miss:.3e} (tol {self.tol:.1e})")
        u = self.u_base.copy()
        u[self.free] = uf
        return u.reshape(-1, 2), SolveDiagnostics("direct", rounds, float(res))


@dataclass
class IndentationResult:
    """A ramp's converged steps; the punch centre is ``(0, top + radius - depth)``.

    Fields are of the whole lattice, the half's mapped by ``u = P v``. When
    the ramp aborts, ``inverted_bonds`` and ``stuck_ids`` include the aborting
    step; the per-step fields and ``u_final`` stop at the last converged one.
    """

    depths: np.ndarray               # converged depths (mm)
    forces: np.ndarray               # indenter force per converged depth (N)
    failed: bool
    failure_depth: float | None      # the aborting step's depth
    inverted_bonds: np.ndarray       # bonds reversed at the aborting step, else empty
    u_final: np.ndarray              # last converged displacement field
    stuck_ids: np.ndarray            # stuck nodes of the whole lattice, attach order
    stuck_counts: np.ndarray         # len(stuck_ids) per converged depth


_FLIP = np.array([-1.0, 1.0])  # the mirror x -> -x acting on (u_x, u_y)


def _mirror_map(positions: np.ndarray) -> np.ndarray:
    """Id of each node's mirror image across x = 0.

    The image is the node nearest to ``(-x, y)``. If that node lies farther
    than 1e-6 of the smallest coordinate gap, there is none: GeometryError.
    """
    gap = min(np.diff(np.unique(positions[:, a])).min(initial=np.inf) for a in (0, 1))
    dist, mirror = cKDTree(positions).query(positions * _FLIP)
    lost = np.flatnonzero(~(dist <= 1e-6 * gap))
    if len(lost):
        x, y = positions[lost[0]]
        raise GeometryError(f"{len(lost)} node(s) have no mirror image across x = 0, "
                            f"the first node {lost[0]} at ({x:g}, {y:g})")
    return mirror


def _mirror_half(positions: np.ndarray, k: sp.csr_matrix, base_bcs: BCSet,
                 surface_ids: np.ndarray):
    """The ramp on the half x >= 0 of a set-up symmetric about x = 0.

    Every field of such a set-up satisfies ``u(-x, y) = (-u_x, u_y)``, so
    ``u = P v`` for a field ``v`` of the half: each node takes the field of
    its own or its mirror image's half node, with ``u_x`` negated on the
    other side and ``u_x = 0`` on x = 0. Checked first, with ``R`` the mirror
    and its ``u_x`` flip: ``||R K R^T - K||_F <= 1e-12 ||K||_F``; the base
    set's prescribed dofs map onto themselves, with values and loads odd in
    ``u_x`` and even in ``u_y``; the surface maps onto itself. A failed check
    raises GeometryError naming it. Every fold below is a product of ``K_h``,
    the half's rows of ``K``, with maps of one signed entry per row: the
    check's ``R_h K R^T - K_h``, formed over eight blocks of half rows so
    that its transient is an eighth of the whole product's (each row, and
    so the check's verdict and message, is the same), and
    ``K_s = P^T K P = diag(rowfac) K_h P``.

    ``K`` is positive definite on the base set's free dofs only if both
    ``K_s`` and its antisymmetric fold ``K_a = Q^T K Q`` are, ``Q`` keeping
    ``u_y`` odd and ``u_x`` even. The ramp never meets a field of ``Q``, but
    a mechanism of the set-up must still raise the factor's SolverFailure
    "not positive definite" on either side of the fold, as the whole factor
    did. The folds differ only where both dofs lie in the strip
    ``0 <= x <= reach`` of ``K``'s :func:`_operator_reach` (a half entry
    couples node ``i`` to the image of ``j`` only when ``x_i + x_j <=
    reach``), and in their held dofs on x = 0. So the strip, those nodes
    last, is the root of ``K_s``'s tree, and only ``K_a``'s block on its root
    unknowns is folded, ``diag(rowfac_a) K_h[dofs] Q``: the factor's twin,
    whose message names the antisymmetric fields.

    Returns the half's node ids, ``src`` (each node's half node, whose field
    ``P`` gives it, negated in ``u_x`` unless ``ids[src]`` is the node),
    ``K``'s rows of the surface nodes with every other row empty (all that
    the ramp's :func:`reaction_force` reads of ``K``), and ``folds``. That
    function returns ``K_s``, the half's base set (the half's own, plus
    ``u_x = 0`` on x = 0, with the loads ``P^T f``), and
    :class:`RampSolver`'s ``tree`` and ``twin``. It reads ``K_h``, not
    ``K``: a caller that drops ``K`` before calling it folds without ``K``.
    """
    n = len(positions)
    mirror = _mirror_map(positions)
    axis, right = mirror == np.arange(n), positions[:, 0] > 0
    ids = np.flatnonzero(right | axis)
    hdof = node_dofs(ids).ravel()
    k = sp.csr_matrix(k)
    reach = _operator_reach(positions, k)
    hk = k[hdof]

    def signed(to, signs, width):  # each node's dofs to those of node ``to``
        return sp.csr_matrix((signs.ravel(), (np.arange(2 * n), node_dofs(to).ravel())),
                             shape=(2 * n, width))

    r = signed(mirror, np.tile(_FLIP, n), 2 * n)
    rt = r.T.tocsr()
    # the half's rows of R K R^T - K; the other rows are their images
    sums = np.empty(len(hdof))
    for b in np.array_split(np.arange(len(hdof)), 8):
        d = r[hdof[b]] @ k @ rt - hk[b]
        sums[b] = np.bincount(np.repeat(np.arange(len(b)), np.diff(d.indptr)), d.data ** 2,
                              len(b))
    twice = np.repeat(np.where(axis[ids], 1.0, 2.0), 2)
    asym = np.sqrt(twice @ sums) / (np.linalg.norm(k.data) or 1.0)
    if not asym <= 1e-12:
        raise GeometryError("the operator is not mirror-symmetric about x = 0: "
                            f"||R K R^T - K||_F / ||K||_F = {asym:.3g}")
    mask, value, loads = (base_bcs.prescribed_mask, base_bcs.prescribed_value,
                          base_bcs.loads)

    def skewed(a):  # departs from u(-x, y) = (-u_x, u_y) beyond rounding, or is not finite
        gap = np.abs(a[mirror] * _FLIP - a)
        return not np.isfinite(gap).all() or gap.max() > 1e-12 * np.abs(a).max()

    surface = np.unique(surface_ids)
    for broken, what in (
            (not np.array_equal(mask[mirror], mask),
             "base set prescribes a dof whose mirror image is free"),
            (skewed(np.where(mask, value, 0.0)),
             "base set's prescribed values are not odd in u_x and even in u_y"),
            (skewed(loads), "base set's loads are not odd in u_x and even in u_y"),
            (not np.array_equal(np.unique(mirror[surface]), surface),
             "surface is not mirror-symmetric")):
        if broken:
            raise GeometryError(f"the indentation {what} about x = 0")
    rows = node_dofs(surface).ravel()
    top = k[rows]  # each row in its stored order
    k_surface = sp.csr_matrix(
        (top.data, top.indices, top.indptr[np.searchsorted(rows, np.arange(2 * n + 1))]),
        shape=k.shape)
    src = np.searchsorted(ids, np.where(right | axis, np.arange(n), mirror))  # half node

    def fold(flip):
        # P (Q for the flip -_FLIP), the half's held dofs and the row factors
        # of P^T K P = diag(rowfac) K_h P: a half row of K P counts twice off
        # the axis; on the axis P has no column for the dof the flip negates,
        # and the other dof's column takes the row once
        keep = flip > 0
        signs = np.where(axis[:, None], keep, np.where(right[:, None], 1.0, flip))
        return (signed(src, signs, 2 * len(ids)),
                mask[ids] | (axis[ids, None] & ~keep), np.where(axis[ids, None], keep, 2.0))

    def folds():
        p, held, rowfac = fold(_FLIP)
        ks = sp.diags(rowfac.ravel()) @ (hk @ p)
        ks.sort_indices()  # K_ff's products then sum each row in column order
        q, held_a, rowfac_a = fold(-_FLIP)
        # the strip is the root, its nodes whose held dofs differ (on x = 0) last
        strip = positions[ids, 0] <= reach[0]
        rest, band = np.flatnonzero(~strip), np.flatnonzero(strip)
        differ = (held[band] != held_a[band]).any(axis=1)
        band = band[np.argsort(differ, kind="stable")]
        tree = [(rest[block], kids)
                for block, kids in nested_dissection(positions[ids[rest]], reach)]
        tree.append((band, (len(tree) - 1,)))
        # K_a's root unknowns: the shared ones in K_s's order, then its own
        own = ~held_a[band]
        dofs = node_dofs(band)[own]
        twin = (sp.diags(rowfac_a.ravel()[dofs]) @ (hk[dofs] @ q)[:, dofs],
                int(own[:len(band) - differ.sum()].sum()), "on fields antisymmetric about x = 0")
        base = BCSet(len(ids), held, np.where(axis[ids, None] & [True, False], 0.0, value[ids]),
                     loads[ids] * rowfac)
        return ks, base, tree, twin

    return ids, src, k_surface, folds


def run_indentation(positions: np.ndarray, k: sp.csr_matrix, base_bcs: BCSet,
                    surface_ids: np.ndarray, radius: float, depths: np.ndarray,
                    bonds: BondTable | None = None, tol: float = 1e-10) -> IndentationResult:
    """Displacement-controlled stick contact against a rigid circular punch at x = 0.

    Per depth increment: surface nodes whose current position penetrates the
    disk are projected radially onto it and recorded in the indenter frame;
    all stuck nodes then move rigidly with the indenter; the static problem
    is solved and the bond-inversion scan (when bonds are supplied) either
    passes or aborts the ramp. The indenter force is the sum of the vertical
    reactions on the stuck set. The stuck set only ever grows, so the
    operator is factorized once and contacts are appended incrementally. A
    step whose solve stalls raises SolverFailure naming its depth.

    The lattice, ``k``, the base set and the surface must be mirror-symmetric
    about x = 0, else GeometryError (a ValueError). The ramp then solves on
    the half x >= 0 (see :func:`_mirror_half`), contact detection included;
    a stuck node on x = 0 holds only its ``u_y``, its ``u_x = 0`` being in
    the half's base set. The inversion scan, the reaction and the result see
    the whole field ``v[src] * sign``, with :func:`_mirror_half`'s ``src``
    and ``sign`` its ``u_x`` flip; a half node is paired where two nodes map
    to it, and the result's ``stuck_ids`` are the nodes whose ``src`` is
    stuck, attached per step in node id order. A mechanism on fields of
    either parity raises SolverFailure before the first step, from the one
    factor of ``K_s`` and its root's twin for ``K_a``.

    The scan goes through an :class:`InversionScreen` built once per ramp: it
    hands :func:`check_bond_inversion` only the bonds whose cell pair's
    displacement span could reverse them, and its result is the full scan's.

    The ramp holds only what it reads. It keeps no reference to ``k`` once
    :func:`_mirror_half` has taken its reach, its symmetry check, its half
    rows and its surface rows: every stuck node is a surface node, so each
    step's reaction sums the same rows in the same stored order. ``K_s`` goes
    once :meth:`RampSolver.reduced` has split it, before the factor runs. So
    a caller that passes its only reference to ``k`` frees ``K`` before the
    folds, and the factor runs beside nothing but ``K_s``'s free block
    (CPython 3.11 and later move a call's arguments into the callee's
    frame; 3.10 keeps them on the caller's stack until the call returns).
    """
    surface_ids = np.asarray(surface_ids, dtype=int)
    top_y = positions[surface_ids, 1].max()
    ids, src, k_surface, folds = _mirror_half(positions, k, base_bcs, surface_ids)
    del k  # the folds read K's half rows, the reaction its surface rows
    ks, base, tree, twin = folds()
    del folds  # and K's half rows with it
    split = RampSolver.reduced(ks, base, tree)
    del ks  # the factor reads only the free block
    solver = RampSolver(split, tree, twin, tol=tol)
    del split, tree, twin  # the solver keeps the split, not the tree or the twin's block
    half, pair = positions[ids], np.bincount(src, minlength=len(ids)) == 2
    sign = np.where((ids[src] != np.arange(len(src)))[:, None], _FLIP, 1.0)
    screen = InversionScreen(positions, bonds) if bonds is not None else None
    surface = np.flatnonzero(np.isin(ids, surface_ids))
    u, v = np.zeros_like(positions), np.zeros_like(half)
    stuck, offsets = np.empty(0, dtype=int), np.empty((0, 2))  # on the half
    held = np.stack([pair, np.ones_like(pair)], axis=1)  # each half node's dofs a contact holds
    stuck_ids = np.empty(0, dtype=int)  # whole block
    out_depths, out_forces, out_stuck = [], [], []
    failure_depth = None
    inverted = np.empty(0, dtype=int)
    for depth in np.asarray(depths, dtype=float):
        center = np.array([0.0, top_y + radius - float(depth)])
        # detect new contacts from the previously converged configuration
        candidates = np.setdiff1d(surface, stuck)
        rel = half[candidates] + v[candidates] - center
        dist = np.linalg.norm(rel, axis=1)
        hit = dist < radius * (1 - 1e-12)
        newly = candidates[hit]
        stuck = np.concatenate([stuck, newly])
        offsets = np.vstack([offsets, rel[hit] * (radius / dist[hit])[:, None]])
        solver.add_constraints(node_dofs(newly)[held[newly]])
        stuck_ids = np.concatenate([stuck_ids, np.flatnonzero(np.isin(src, newly))])
        target = center[None, :] + offsets - half[stuck]
        try:
            v_new, _ = solver.solve(target[held[stuck]])
        except SolverFailure as exc:
            raise SolverFailure(f"at depth {depth:g} mm: {exc}") from exc
        u_new = v_new[src] * sign
        if screen is not None:
            inverted = screen.inverted(u_new)
            if len(inverted) > 0:
                failure_depth = float(depth)
                break
        u, v = u_new, v_new
        # prescribing the stuck nodes leaves the loads the reaction subtracts
        force = reaction_force(k_surface, u, base_bcs, stuck_ids)[1]
        out_depths.append(float(depth))
        out_forces.append(abs(float(force)))
        out_stuck.append(len(stuck_ids))
    return IndentationResult(
        depths=np.array(out_depths), forces=np.array(out_forces),
        failed=failure_depth is not None, failure_depth=failure_depth,
        inverted_bonds=inverted, u_final=u, stuck_ids=stuck_ids,
        stuck_counts=np.array(out_stuck, dtype=int))
