"""Galerkin systems on tensor products of P1 FEM spaces and Legendre chaos.

The discrete operator is a Kronecker sum: stiffness matrices A_m weighted by
the coefficient modes act on the spatial component, the Legendre coupling
matrices G_m on the index-set component.  Column mu of G_m has entries only in
rows mu -+ e_m, so ``Coupling`` keeps G_m as at most two gather passes, found
by row lookups in the index sets' degree arrays, and the columns that hold an
entry at all (the coupled columns).  The sum sum_m A_m U G_m, on coefficient
arrays U of shape (free nodes, #indices), is the Galerkin operator and the
core of both estimators' residuals.  ``Coupling.plan`` decides for all three
which columns each mode adds to and from which rows: a mode whose G_m couples
at most half of the columns is worked on those alone (the others would add
zeros); a denser mode keeps the full width, which is cheaper than scattering
into most columns by index.  ``accumulate`` is the one index-major kernel:
on U^T of shape (#indices, free nodes) it gathers each mode's sources as
contiguous rows and adds A_m times each to its row of the transposed
result.  Below the pool's gate ``apply`` runs it, transposing U once on the
way in and the result once on the way out.  On the pool ``apply`` transposes
U once, and each worker forms U G_m on its column range as one CSR product
of G_m^T on the range (``Coupling.range_matrices``) with U^T, made
node-major by one transpose for A_m.  Solves use PCG with the
mean-based preconditioner A_0 x I; its normaliser <b, (A_0^{-1} x I) b>
solves only the column block that holds the load.  PCG gives up past twice
the iteration bound that the problem's contrast gives, plus two (``solve``).
Every array PCG itself touches is C-ordered (free nodes, #indices), and it
scales its updates in the buffer of the product A p.  The
SPD A_0 is factored by SuperLU in symmetric mode, with the minimum-degree
ordering of A_0 + A_0^T and no pivoting off the diagonal.

Every integral of the coefficient over a triangle uses one rule, the 7-point
symmetric rule of degree 5: the two-level estimator bounds the error of the
discrete problem only if it integrates as the Galerkin assembly does.  The
load f = 1 needs none: a hat function integrates to a third of the area of
each triangle it lives on, on the mesh and on its NVB children alike.

A ``TensorSystem`` is the one handle on a (mesh x index set) space, made of
two objects that outlive it, and the solver, the estimators, the energy
``b_energy`` and ``prolong`` all take it; a ``GalerkinSolution`` keeps its
coefficients and energy but no system.  A ``MeshOperator`` holds what
depends on the mesh alone: the stiffness pattern (geometry and the
free-node CSR pattern with its scatter map), A_m per mode (built on first
use), the load, the LU of A_0 and one per-triangle table of each mode's
integrals over the triangles and of the spatial estimator's terms on the
NVB children of each triangle, laid out by ``mesh``.  A ``Coupling`` holds
the passes of G_m for one index set, against itself and against its detail
set, and the plans built from them.  An adaptive step changes either the
mesh or the index set, so the loop keeps one object and drops the other:
the operator goes with its mesh on refinement, the coupling with its index
set on enrichment.  Refinement leaves most triangles as they were, so the
operator of the refined mesh copies their rows of the table from the
outgoing one and computes only those of the new triangles; the geometry is
rebuilt.  Nothing is cached on the mesh or at module level but a thread
pool, on which large systems apply the operator and solve with A_0 in
column blocks, each column computed as on one thread and written into the
one result.  The parametric estimator's A_0 solves take such blocks at
every size, in turn below the pool's gate, so that none wakes scipy's
OpenBLAS worker (see ``_BLOCK``).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .indices import IndexSet, ZERO, row_positions
from .mesh import MIDPOINT_SLOTS, Mesh, bisected_edges, child_corners
from .problem import ProblemSpec, contrast_bounds, coupling_coefficient

__all__ = [
    "SolverError",
    "GalerkinSolution",
    "TensorSystem",
    "MeshOperator",
    "Coupling",
    "StiffnessPattern",
    "assemble_stiffness",
    "prolong",
    "solve",
    "b_energy",
]


class SolverError(RuntimeError):
    """PCG failed to reach the requested tolerance; carries the residual
    history for diagnosis."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


# Systems (and A_0 solves) of at least this many dofs run on the pool.  One
# apply plus one precondition on 2 vCPUs, serial / two workers: 1.5 / 2.9 ms
# at 26k dofs, 3.5-5.4 / 4.4-4.9 ms at 47k, 7.5 / 5.5 ms at 65k, 12 / 8.7 ms at 109k.
PARALLEL_DOFS = 1 << 16
# Columns per SuperLU call of ``MeshOperator.solve_blocks``; each column comes
# out as from one solve of the whole block (blocks of 2, 3, 5 or 6 do not).  A
# wide call (from 33k entries on the workloads' meshes) wakes scipy's OpenBLAS
# worker, which then spins some 130 ms on another core; one of 4 columns did
# not up to n = 12,033 free nodes (uniform L-shape meshes) but did at 48,641.
_BLOCK = 4
_WORKERS = min(len(os.sched_getaffinity(0)), 4)
# the worker threads, started on first use; a forked child starts its own
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _on_pool(job, items) -> list:
    """[job(item) for item in items], run on the pool; raises the first
    exception a job raised."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="sgfem")
    return list(_pool.map(job, items))


_SQ15 = math.sqrt(15.0)

# 7-point degree-5 symmetric triangle rule, barycentric points and weights
# normalized to sum to one.
_QP_DEG5 = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [(9 - 2 * _SQ15) / 21, (6 + _SQ15) / 21, (6 + _SQ15) / 21],
        [(6 + _SQ15) / 21, (9 - 2 * _SQ15) / 21, (6 + _SQ15) / 21],
        [(6 + _SQ15) / 21, (6 + _SQ15) / 21, (9 - 2 * _SQ15) / 21],
        [(9 + 2 * _SQ15) / 21, (6 - _SQ15) / 21, (6 - _SQ15) / 21],
        [(6 - _SQ15) / 21, (9 + 2 * _SQ15) / 21, (6 - _SQ15) / 21],
        [(6 - _SQ15) / 21, (6 - _SQ15) / 21, (9 + 2 * _SQ15) / 21],
    ]
)
_QW_DEG5 = np.array(
    [9 / 40]
    + [(155 + _SQ15) / 1200] * 3
    + [(155 - _SQ15) / 1200] * 3
)


def element_geometry(p: np.ndarray):
    """Areas and P1 basis gradients of triangles with vertex coordinates
    ``p`` of shape (nt, 3, 2), vectorized over triangles."""
    area = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    )
    grads = np.empty((p.shape[0], 3, 2))
    for i in range(3):
        a = p[:, (i + 1) % 3]
        b = p[:, (i + 2) % 3]
        grads[:, i, 0] = a[:, 1] - b[:, 1]
        grads[:, i, 1] = b[:, 0] - a[:, 0]
    grads /= (2.0 * area)[:, None, None]
    return area, grads


def quadrature_points(p: np.ndarray) -> np.ndarray:
    """Points of the rule in triangles with vertex coordinates ``p``, shape
    (nt, 7, 2)."""
    return np.matmul(_QP_DEG5, p)


def element_integrals(points: np.ndarray, area: np.ndarray, coefficient):
    """int_T a dx per triangle, by the rule at its ``points`` (see
    ``quadrature_points``)."""
    cvals = np.broadcast_to(np.asarray(coefficient(points), dtype=np.float64), points.shape[:2])
    return area * (cvals @ _QW_DEG5)


def element_load(area: np.ndarray) -> np.ndarray:
    """int_T phi_i per triangle and local vertex, shape (nt, 3): the load
    f = 1, integrated exactly (area / 3)."""
    return np.repeat(area / 3.0, 3).reshape(-1, 3)


class StiffnessPattern:
    """What P1 stiffness matrices on one mesh share, whatever the coefficient:
    areas, basis gradients, products of basis gradients, and the CSR pattern
    with a scatter map from (triangle, i, j) to data slots, all built from
    the mesh alone.  A matrix then costs one ``bincount`` of the integrals
    of its coefficient over the triangles.  The matrices live on the free
    (interior) nodes; the CSR pattern, the diagonal and both directions of
    each edge between free nodes, is read off the mesh's edge table."""

    def __init__(self, mesh: Mesh):
        self.area, self.grads = element_geometry(mesh.vertices[mesh.triangles])
        self._products = np.einsum("tid,tjd->tij", self.grads, self.grads)
        n, free = mesh.free_nodes.size, mesh.free_index
        a, b = (free[v] for v in np.divmod(mesh.edge_keys, mesh.num_vertices))
        inner = np.flatnonzero((a >= 0) & (b >= 0))
        a, b = a[inner], b[inner]
        # the keys row * n + col of the diagonal and both directions of each
        # free-free edge; the data slot of each is its place among them, sorted
        keys = np.concatenate([np.arange(n) * (n + 1), a * n + b, b * n + a])
        order = np.argsort(keys)
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        diagonal, forward, backward = np.split(place, [n, n + a.size])
        self._indices = (keys[order] % n).astype(np.int32)
        self._indptr = np.searchsorted(keys[order], np.arange(n + 1) * n).astype(np.int32)
        edge_slot = np.zeros((mesh.edge_keys.size, 2), dtype=np.int32)
        edge_slot[inner] = np.stack([forward, backward], axis=1)
        tri, local = mesh.triangles, free[mesh.triangles]
        # local edge k joins local vertices i = k + 1 and j = k + 2 (mod 3);
        # entry (i, j) is its edge's (b, a) where v_i > v_j
        i, j = [1, 2, 0], [2, 0, 1]
        flip = (tri[:, i] > tri[:, j]).astype(np.intp)
        slot = np.empty(tri.shape + (3,), dtype=np.int32)
        slot[:, i, j] = edge_slot[mesh.triangle_edges, flip]
        slot[:, j, i] = edge_slot[mesh.triangle_edges, 1 - flip]
        slot[:, [0, 1, 2], [0, 1, 2]] = np.append(diagonal, 0)[local]
        # an entry with a boundary vertex adds to one slot past the data
        boundary = local < 0
        slot[boundary[:, :, None] | boundary[:, None, :]] = keys.size
        self._slot = slot.ravel()
        self.shape = (n, n)

    def matrix(self, weights: np.ndarray) -> sp.csr_matrix:
        """The stiffness matrix of per-triangle weights int_T a dx: entry
        (t, i, j) of the local matrices is weight_t * grad_i . grad_j."""
        data = np.bincount(
            self._slot, weights=(weights[:, None, None] * self._products).ravel(),
            minlength=self._indices.size + 1,
        )[:-1]
        return sp.csr_matrix((data, self._indices, self._indptr), shape=self.shape)


def assemble_stiffness(mesh: Mesh, coefficient, pattern: StiffnessPattern | None = None,
                       weights: np.ndarray | None = None) -> sp.csr_matrix:
    """Weighted P1 stiffness matrix with entries int_D a grad(phi_i).grad(phi_j)
    on the free (interior) nodes.

    The coefficient is integrated per element with the 7-point rule
    (gradients are elementwise constant).  A ``pattern`` built for the mesh
    saves rebuilding it, and the integrals over its triangles, where the
    caller has them as `weights`, save evaluating the coefficient.
    """
    if pattern is None:
        pattern = StiffnessPattern(mesh)
    if weights is None:
        points = quadrature_points(mesh.vertices[mesh.triangles])
        weights = element_integrals(points, pattern.area, coefficient)
    return pattern.matrix(weights)


def _per_midpoint(values: np.ndarray) -> np.ndarray:
    """Sum child-vertex values (nt, 4, 3, ...) into values at the midpoints
    m, w1, w2 (nt, 3, ...)."""
    return np.stack(
        [sum(values[:, c, k] for c, k in slots) for slots in MIDPOINT_SLOTS], axis=1
    )


class MeshOperator:
    """What the Galerkin system and the two-level spatial estimator need of
    one mesh, whatever the index set.  Each part is built on first use and
    kept while the operator lives; the adaptive loop replaces the operator
    when it refines the mesh.

    Coarse side: the stiffness pattern (areas, gradients, gradient products,
    CSR scatter), A_m per mode, the load and the LU of A_0.  Per triangle,
    ``table`` keeps by (kind, mode) the integrals int_T a_m dx that A_m is
    assembled from ("integrals"), and the estimator's terms on the NVB
    children of the triangle (the uniform refinement, never built as a
    mesh): per midpoint m, w1, w2 the hat terms int a_m grad phi_z, and for
    mode 0 also the fine A_0 diagonal and the load ("children").

    A row of the table depends on a triangle's vertices and reference edge
    alone.  Given the ``previous`` operator, built for the same problem on a
    mesh that `mesh` is one refinement step from, the new operator fills
    every entry of the previous table at once: the triangles the step kept
    (``Mesh.source``) take their rows from it, and only the new triangles'
    rows are computed.  The pattern is rebuilt from the mesh.  The operator
    keeps no reference to ``previous``; any other ``previous`` is ignored.
    """

    def __init__(self, mesh: Mesh, spec: ProblemSpec, previous: MeshOperator | None = None):
        self.mesh = mesh
        self.spec = spec
        self._stiffness: dict[int, sp.csr_matrix] = {}
        self.table: dict[tuple[str, int], tuple[np.ndarray, ...]] = {}
        if (previous is not None and previous.spec == spec
                and bisected_edges(previous.mesh, mesh) is not None):
            self._fill(previous.table, carried=previous.table)

    def _fill(self, keys, carried: dict | None = None) -> None:
        """Compute the entries `keys` of the table that it lacks, on every
        triangle; or, from the `carried` table of the operator of the mesh
        one step coarser, on the new triangles, the kept ones taking their
        rows from it by ``Mesh.source``."""
        keys = [key for key in keys if key not in self.table]
        mesh = self.mesh
        if carried is None:
            rows = np.arange(mesh.num_triangles)
        else:
            rows = np.flatnonzero(mesh.source < 0)
            # a new row takes row 0 at first, then its computed values
            origin = np.maximum(mesh.source, 0)
        kinds = {kind for kind, _ in keys}
        if "integrals" in kinds:
            corners = mesh.vertices[mesh.triangles[rows]]
            area, points = element_geometry(corners)[0], quadrature_points(corners)
        if "children" in kinds:
            corners = child_corners(mesh, rows).reshape(4 * rows.size, 3, 2)
            child_area, grads = element_geometry(corners)
            child_points, grads = quadrature_points(corners), grads.reshape(-1, 4, 3, 2)
        for kind, m in keys:
            a_m = self.spec.coefficient(m)
            if kind == "integrals":
                values = (element_integrals(points, area, a_m),)
            else:
                w = element_integrals(child_points, child_area, a_m).reshape(-1, 4)
                values = (_per_midpoint(w[:, :, None, None] * grads),)
                if m == 0:
                    values += (_per_midpoint(w[:, :, None] * (grads**2).sum(axis=3)),
                               _per_midpoint(element_load(child_area).reshape(-1, 4, 3)))
            if carried is not None:
                merged = tuple(old.take(origin, axis=0) for old in carried[kind, m])
                for out, new in zip(merged, values):
                    out[rows] = new
                values = merged
            self.table[kind, m] = values

    @cached_property
    def pattern(self) -> StiffnessPattern:
        return StiffnessPattern(self.mesh)

    def stiffness(self, m: int) -> sp.csr_matrix:
        """A_m on the free nodes, assembled once from the integrals of a_m."""
        if m not in self._stiffness:
            self._fill([("integrals", m)])
            self._stiffness[m] = assemble_stiffness(
                self.mesh, self.spec.coefficient(m), self.pattern, self.table["integrals", m][0])
        return self._stiffness[m]

    @cached_property
    def load(self) -> np.ndarray:
        """int phi_z for the free nodes z: the load f = 1."""
        mesh, load = self.mesh, element_load(self.pattern.area)
        full = np.bincount(mesh.triangles.ravel(), load.ravel(), minlength=mesh.num_vertices)
        return full[mesh.free_nodes]

    @cached_property
    def a0_solver(self):
        return splu(self.stiffness(0).tocsc(), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))

    def solve_blocks(self, R: np.ndarray) -> np.ndarray:
        """A_0^{-1} R for R of shape (free nodes, k), in C order, solved in
        SuperLU calls of _BLOCK columns: on the pool at or above PARALLEL_DOFS
        (SuperLU.solve releases the GIL), in turn on this thread below it."""
        solver = self.a0_solver
        out = np.empty(R.shape)

        def block(c):
            out[:, c] = solver.solve(R[:, c])

        blocks = [slice(j, j + _BLOCK) for j in range(0, R.shape[1], _BLOCK)]
        if R.size >= PARALLEL_DOFS:
            _on_pool(block, blocks)
        else:
            for c in blocks:
                block(c)
        return out

    def child_terms(self, n_modes: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Per triangle and midpoint z: the hat terms int a_m grad phi_z
        (nt, 3, 2) for m = 0..n_modes, and the parts of B_0(phi_z, phi_z) and
        of int f phi_z (nt, 3)."""
        self._fill([("children", m) for m in range(n_modes + 1)])
        _, diagonal, load = self.table["children", 0]
        return [self.table["children", m][0] for m in range(n_modes + 1)], diagonal, load


def _coupling_passes(rows: IndexSet, cols: IndexSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """G_m on rows x cols for m = 1..W, W the wider of the two degree arrays,
    as (sources, coefficients) of shape (#passes, #cols) per mode.

    Column mu of G_m has entries in the rows mu - e_m and mu + e_m that are
    members, with coefficients c(mu_m) and c(mu_m + 1).  Pass k holds the
    k-th entry of each column in row order (source 0, coefficient 0 where a
    column has fewer), up to the most any column has.  Each mode also gets
    its coupled columns, those with an entry, in increasing order."""
    width = max(rows.max_dimension(), cols.max_dimension())
    at = row_positions(rows.degrees, cols.neighbours(width)).reshape(2, width, len(cols))
    mu = np.pad(cols.degrees, ((0, 0), (0, width - cols.max_dimension()))).T
    c = np.where(at >= 0, coupling_coefficient(np.stack([np.maximum(mu, 1), mu + 1])), 0.0)
    order = np.argsort(np.where(at >= 0, at, len(rows)), axis=0, kind="stable")
    sources = np.maximum(np.take_along_axis(at, order, axis=0), 0)
    coefficients = np.take_along_axis(c, order, axis=0)
    held = at >= 0
    counts = held.sum(axis=0).max(axis=1, initial=0)
    coupled = held.any(axis=0)
    return [(sources[:k, m], coefficients[:k, m], np.flatnonzero(coupled[m]))
            for m, k in enumerate(counts)]


_NO_COLUMNS = np.zeros(0, dtype=np.intp)


class Coupling:
    """The blocks G_m of one index set P, on P x P and, for a detail set Q,
    on P x Q, as gather passes for every mode either set touches, with the
    columns each G_m couples and the plans of the products built from them.
    The adaptive loop replaces the object when it enriches P."""

    def __init__(self, indices: IndexSet, detail: IndexSet | None = None):
        self.indices = indices
        self.detail = detail
        self._passes = {False: _coupling_passes(indices, indices)}
        if detail is not None:
            self._passes[True] = _coupling_passes(indices, detail)
        # per (block, column range): see ``plan`` and ``range_matrices``
        self._plans: dict[tuple, list] = {}

    def _mode(self, m: int, detail: bool):
        if m < 1:
            raise ValueError("G_0 is the identity; coupling modes are m >= 1")
        passes = self._passes[detail]
        return passes[m - 1] if m <= len(passes) else ((), (), _NO_COLUMNS)

    def coupled_columns(self, m: int, detail: bool = False, within: slice = slice(None)):
        """The columns of (U G_m)[:, within] worth computing.  Where G_m
        couples at most half of its columns, those of them in the range
        ``within``, an index array; otherwise ``within`` itself.  A column
        left out is a zero column of G_m."""
        coupled = self._mode(m, detail)[2]
        width = len(self.detail if detail else self.indices)
        if 2 * coupled.size > width:
            return within
        start, stop, _ = within.indices(width)
        return coupled[np.searchsorted(coupled, start):np.searchsorted(coupled, stop)]

    def plan(self, detail: bool = False, within: slice = slice(None)) -> list:
        """What sum_m A_m (U G_m)[:, within] needs of the G_m on P x P (on
        P x Q with ``detail``): (m, targets, passes) for each mode m >= 1
        that adds anything.  A mode adds on its ``coupled_columns`` in the
        range, and is left out where those or its passes are none.  Its
        targets are those columns counted from the start of the range (a
        slice where it is worked full width), and its passes are restricted
        to them, for ``gather``.  Built once per block and range, on the
        calling thread: the pool's workers only read plans."""
        key = (detail, within.start, within.stop)
        if key not in self._plans:
            start = within.indices(len(self.detail if detail else self.indices))[0]
            plan = []
            for m, (sources, coefficients, _) in enumerate(self._passes[detail], 1):
                cols = self.coupled_columns(m, detail, within)
                targets = slice(None) if isinstance(cols, slice) else cols - start
                if len(sources) and (isinstance(targets, slice) or targets.size):
                    plan.append((m, targets, [(source[cols], coefficient[cols])
                                              for source, coefficient in zip(sources, coefficients)]))
            self._plans[key] = plan
        return self._plans[key]

    def range_matrices(self, detail: bool = False, within: slice = slice(None)) -> list:
        """``plan(detail, within)`` with each entry's passes as one CSR
        matrix: (m, targets, Gt), Gt the transpose of G_m on the targets, of
        shape (#targets, #P).  Row j holds the passes' entries of target j in
        pass order, a padded pass as an explicit zero, so ``Gt @ U^T`` sums
        each row as ``gather`` does.  Built once per block and range, on the
        calling thread, for the pool's workers."""
        key = (detail, within.start, within.stop, "csr")
        if key not in self._plans:
            matrices = []
            for m, targets, passes in self.plan(detail, within):
                sources, coefficients = (np.stack(a, axis=1) for a in zip(*passes))
                indptr = np.arange(0, sources.size + 1, len(passes))
                Gt = sp.csr_matrix((coefficients.ravel(), sources.ravel(), indptr),
                                   shape=(sources.shape[0], len(self.indices)))
                matrices.append((m, targets, Gt))
            self._plans[key] = matrices
        return self._plans[key]


def gather(UT: np.ndarray, passes) -> np.ndarray | None:
    """(U G_m)^T on the passes' columns of a ``Coupling.plan`` entry, for an
    index-major U^T of shape (P, n).  Pass k gathers, for every column, the
    k-th of its rows mu +- e_m of U^T and scales it.  Summing the passes in
    row order sums as scipy's sparse product does, whatever the columns.
    None without passes."""
    out = None
    for source, coefficient in passes:
        term = np.take(UT, source, axis=0)
        term *= coefficient[:, None]
        out = term if out is None else np.add(out, term, out=out)
    return out


def accumulate(RT: np.ndarray, UT: np.ndarray, plan, stiffness) -> None:
    """Add sum_m (A_m U G_m)^T to RT, index-major: U^T has shape (P, n), RT
    one row per column of G_m.  For each (m, targets, passes) of a
    ``Coupling.plan`` of all columns, the passes' rows of U^T are gathered,
    and A_m = ``stiffness(m)`` times each is added to its target row of RT.
    A row receives its modes in mode order, each as the node-major product
    of the whole block would give it."""
    rows = np.arange(RT.shape[0])
    for m, targets, passes in plan:
        A = stiffness(m)
        for j, row in zip(rows[targets], gather(UT, passes)):
            RT[j] += A @ row


class TensorSystem:
    """Assembled Galerkin system on (free nodes of a mesh) x (index set): the
    one handle on a space.  Its mesh and spec are the per-mesh
    ``operator``'s, its index set the per-index-set ``coupling``'s, and it
    reads the stiffness matrices and the load from the one, the coupling
    passes from the other.  A deterministic right-hand side loads only the
    zero-index column.
    """

    def __init__(self, operator: MeshOperator, coupling: Coupling):
        self.operator = operator
        self.coupling = coupling
        self.mesh = operator.mesh
        self.spec = operator.spec
        self.indices = coupling.indices
        modes = range(self.indices.max_dimension() + 1)
        # the integrals a fresh operator lacks come from one quadrature geometry
        operator._fill([("integrals", m) for m in modes])
        self.A = [operator.stiffness(m) for m in modes]
        self.load = np.zeros(self.shape)
        if ZERO in self.indices:
            self.load[:, self.indices.position(ZERO)] = operator.load

    @property
    def shape(self) -> tuple[int, int]:
        return (self.mesh.free_nodes.size, len(self.indices))

    @property
    def num_dof(self) -> int:
        return self.shape[0] * self.shape[1]

    def apply(self, U: np.ndarray) -> np.ndarray:
        """Matrix-free operator: sum_m A_m U G_m, in C order.

        A system below PARALLEL_DOFS is accumulated index-major: U is
        transposed once, ``accumulate`` adds the modes row by row into the
        transposed result, which is transposed back at the end.  A larger
        system splits the columns into one range per worker of the pool,
        each computed node-major and copied into its columns of the
        result: there one product by A_m per range, which reads A_m once,
        beats one per index row.  Both walk the coupling's plans, the pool
        as ``Coupling.range_matrices``."""
        if U.size >= PARALLEL_DOFS:
            return self._apply_on_pool(U)
        RT = np.ascontiguousarray((self.A[0] @ U).T)
        accumulate(RT, np.ascontiguousarray(U.T), self.coupling.plan(), self.operator.stiffness)
        return np.ascontiguousarray(RT.T)

    def _apply_on_pool(self, U: np.ndarray) -> np.ndarray:
        """``apply`` in one column range per worker.  U is transposed once,
        here, and each worker reads the shared U^T; the range matrices are
        built here too, never on a worker."""
        bounds = [U.shape[1] * k // _WORKERS for k in range(_WORKERS + 1)]
        ranges = [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
        matrices = [self.coupling.range_matrices(within=c) for c in ranges]
        UT = np.ascontiguousarray(U.T)
        R = np.empty(self.shape)

        def columns(job):
            c, plan = job
            R[:, c] = self._columns(U, UT, c, plan)

        _on_pool(columns, list(zip(ranges, matrices)))
        return R

    def _columns(self, U: np.ndarray, UT: np.ndarray, c: slice, plan) -> np.ndarray:
        """Columns c of sum_m A_m U G_m, node-major, each summed as in the
        whole product.  For each (m, targets, Gt) of ``range_matrices``, U
        G_m on the targets is one sparse product ``Gt @ U^T`` (rows of U^T
        read whole, not columns of U gathered with a stride), made
        node-major by one transpose for the product by A_m."""
        R = self.A[0] @ U[:, c]
        for m, targets, Gt in plan:
            R[:, targets] += self.A[m] @ np.ascontiguousarray((Gt @ UT).T)
        return R

    def precondition(self, R: np.ndarray) -> np.ndarray:
        """Mean-based preconditioner: A_0^{-1} applied columnwise, returned in
        C order, in one SuperLU call below PARALLEL_DOFS."""
        if R.size < PARALLEL_DOFS:
            return np.ascontiguousarray(self.operator.a0_solver.solve(R))
        return self.operator.solve_blocks(R)

    def load_norm_sq(self) -> float:
        """<b, (A_0^{-1} x I) b> for the load b, PCG's normaliser.  b is
        nonzero in the zero-index column alone, so only the block of _BLOCK
        columns holding it is solved: such a block gives each of its columns
        as the solve of the whole array does, and the other columns of
        A_0^{-1} b are zero."""
        Z = np.zeros(self.shape)
        if ZERO in self.indices:
            j = self.indices.position(ZERO)
            block = slice(j - j % _BLOCK, j - j % _BLOCK + _BLOCK)
            Z[:, block] = self.operator.a0_solver.solve(self.load[:, block])
        return _inner(self.load, Z)


@dataclass(frozen=True)
class GalerkinSolution:
    """Coefficients of a Galerkin solution, bound to mesh and index set, with
    its squared energy norm |||u|||^2 = B(u, u) where ``solve`` made it."""

    mesh: Mesh
    indices: IndexSet
    coeffs: np.ndarray
    energy_sq: float = math.nan
    residual: float = 0.0
    iterations: int = 0

    @property
    def num_dof(self) -> int:
        return self.coeffs.size

    def vertex_values(self) -> np.ndarray:
        """Coefficients on all vertices (zeros on the boundary)."""
        full = np.zeros((self.mesh.num_vertices, len(self.indices)))
        full[self.mesh.free_nodes] = self.coeffs
        return full


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product of two equally shaped arrays.  Not np.vdot:
    a threaded BLAS ddot pays a thread hand-off per call on long vectors and
    sums in an order that depends on the thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _pcg(apply_op, precond, b, x0, tol, cap, b_norm_sq):
    """Preconditioned CG on arrays from x0 (zero for None), which it updates
    in place, for at most `cap` iterations; returns x and the history of
    residuals relative to sqrt(b_norm_sq) = sqrt(<b, M^{-1} b>), which ends
    above `tol` if the cap stopped it.  It overwrites each array that
    `apply_op` returns with its scaled updates and drops it before calling
    `precond`: no array of the system's size but x, r, p and z is alive at
    a `precond` call.

    Raises SolverError on breakdown: a non-finite preconditioned norm, or a
    curvature p.Ap that is non-finite or not positive (the operator or the
    preconditioner is not positive definite)."""

    def finite(name, value, positive=False):
        if not math.isfinite(value) or (positive and value <= 0.0):
            raise SolverError(f"PCG breakdown: {name} = {value} at iteration {it}", history)
        return value

    it, history = 0, []
    denom = math.sqrt(max(finite("b.Mb", b_norm_sq), 0.0))
    if denom == 0.0:
        return np.zeros_like(b), [0.0]
    x = np.zeros_like(b) if x0 is None else x0
    r = b - apply_op(x)
    z = precond(r)
    rho = finite("r.Mr", _inner(r, z))
    p = z.copy()
    history.append(math.sqrt(max(rho, 0.0)) / denom)
    while history[-1] > tol and it < cap:
        Ap = apply_op(p)
        alpha = rho / finite("p.Ap", _inner(p, Ap), positive=True)
        r -= np.multiply(Ap, alpha, out=Ap)
        x += np.multiply(p, alpha, out=Ap)
        del Ap
        z = precond(r)
        rho_new = finite("r.Mr", _inner(r, z))
        p *= rho_new / rho
        p += z
        rho = rho_new
        it += 1
        history.append(math.sqrt(max(rho, 0.0)) / denom)
    return x, history


def solve(
    system: TensorSystem, tol: float = 1e-10, initial: np.ndarray | None = None
) -> GalerkinSolution:
    """Solve the Galerkin system by mean-preconditioned CG from the
    coefficients ``initial`` (zero without), and take the energy of the
    result.  From an initial error no larger in energy than the solution,
    CG reaches the relative residual `tol` within
    ceil(ln(2 sqrt(kappa) / tol) / -ln rho) iterations, rho = (sqrt(kappa)
    - 1) / (sqrt(kappa) + 1) but at least eps, with kappa = Lambda / lambda
    of ``contrast_bounds`` (Powell and Elman 2009); past twice that bound
    plus two it raises SolverError.  A `tol` outside (0, 1) raises
    ValueError."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"solver tol must lie in (0, 1), got {tol}")
    if initial is not None and initial.shape != system.shape:
        raise ValueError("initial guess does not match the system shape")
    bounds = contrast_bounds(system.spec)
    k = math.sqrt(bounds.Lam / bounds.lam)  # sqrt(kappa)
    # rounding lets no iteration gain more than about eps, rho = 0 at tau = 0 included
    rho = max((k - 1.0) / (k + 1.0), np.finfo(float).eps)
    bound = math.ceil((math.log(2.0 * k) - math.log(tol)) / -math.log(rho))
    cap = 2 * bound + 2
    # PCG iterates on a copy; the caller's guess is not held while it runs
    initial = None if initial is None else initial.copy()
    U, history = _pcg(system.apply, system.precondition, system.load, initial, tol, cap,
                      system.load_norm_sq())
    if history[-1] > tol:
        raise SolverError(f"PCG did not reach tol {tol:g} in its cap of {cap} iterations (the "
                          f"bound at tau = {system.spec.tau:.6g} is {bound}; relative residual "
                          f"{history[-1]:.3e})", history)
    return GalerkinSolution(
        mesh=system.mesh,
        indices=system.indices,
        coeffs=U,
        energy_sq=_inner(U, system.apply(U)),
        residual=history[-1],
        iterations=len(history) - 1,
    )


def _index_embedding(small: IndexSet, large: IndexSet) -> np.ndarray:
    cols = row_positions(large.degrees, small.degrees)
    if (cols < 0).any():
        missing = small[int(np.argmax(cols < 0))]
        raise ValueError(f"index {missing} missing from the enlarged index set")
    return cols


def prolong(u: GalerkinSolution, system: TensorSystem) -> np.ndarray:
    """The coefficients of `u` in the system's space, whose mesh is
    ``u.mesh`` or one refinement step from it and whose index set contains
    ``u.indices``.  A new vertex takes the mean of its edge's endpoints, a
    new index coefficient zero."""
    mesh = system.mesh
    spatial = u.coeffs
    if mesh is not u.mesh:
        if bisected_edges(u.mesh, mesh) is None:
            raise ValueError("mesh is not one refinement step from the solution's mesh")
        full = u.vertex_values()
        a, b = mesh.new_vertex_edge.T
        spatial = np.concatenate([full, 0.5 * full[a] + 0.5 * full[b]])[mesh.free_nodes]
    U = np.zeros(system.shape)
    U[:, _index_embedding(u.indices, system.indices)] = spatial
    return U


def b_energy(system: TensorSystem, U: np.ndarray, V: np.ndarray) -> float:
    """The bilinear form B(u, v) of coefficients U, V of the system's space,
    via the Kronecker operator."""
    if U.shape != system.shape or V.shape != system.shape:
        raise ValueError("coefficients of another space; prolong first")
    return _inner(U, system.apply(V))
