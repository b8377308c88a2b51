"""Galerkin systems on tensor products of P1 FEM spaces and Legendre chaos.

The discrete operator is a Kronecker sum: stiffness matrices A_m weighted by
the coefficient modes act on the spatial component, sparse coupling matrices
G_m (tridiagonal in each parameter degree) act on the index-set component.
The operator is applied matrix-free as sum_m A_m U G_m on coefficient arrays
U of shape (free nodes, #indices); solves use PCG with the mean-based
preconditioner A_0 x I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .indices import IndexSet, ZERO
from .legendre import coupling_coefficient
from .mesh import Mesh, TwoLevelOverlay, uniform_refine
from .problem import ProblemSpec

__all__ = [
    "SolverError",
    "GalerkinSolution",
    "EnhancedSolution",
    "TensorSystem",
    "triangle_quadrature",
    "assemble_stiffness",
    "assemble_coupling",
    "assemble_load",
    "prolongation_matrix",
    "prolong",
    "solve",
    "solve_enhanced",
    "b_energy",
    "b0_energy",
]


class SolverError(RuntimeError):
    """PCG failed to reach the requested tolerance; carries the residual
    history for diagnosis."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


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


def triangle_quadrature(order: int = 5):
    """Barycentric points and weights (summing to one) of a symmetric
    triangle rule exact to the given polynomial degree."""
    if order <= 1:
        return np.full((1, 3), 1 / 3), np.array([1.0])
    if order <= 2:
        pts = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])
        return pts, np.full(3, 1 / 3)
    return _QP_DEG5, _QW_DEG5


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


def quadrature_points(p: np.ndarray, quad_order: int = 5) -> np.ndarray:
    """Points of the symmetric rule of `quad_order` in triangles with vertex
    coordinates ``p``, shape (nt, #points, 2)."""
    qp, _ = triangle_quadrature(quad_order)
    return np.einsum("qk,tkd->tqd", qp, p)


def element_integrals(points: np.ndarray, area: np.ndarray, coefficient, quad_order: int = 5):
    """int_T a dx per triangle, by the symmetric rule of `quad_order` at its
    ``points`` (see ``quadrature_points``)."""
    _, qw = triangle_quadrature(quad_order)
    cvals = np.asarray(coefficient(points), dtype=np.float64)
    if cvals.shape != points.shape[:2]:
        cvals = np.broadcast_to(cvals, points.shape[:2])
    return area * (cvals @ qw)


def element_load(p: np.ndarray, area: np.ndarray, f, quad_order: int = 5) -> np.ndarray:
    """int_T f phi_i per triangle and local vertex, shape (nt, 3); ``f=None``
    means f == 1, integrated exactly (area / 3)."""
    if f is None:
        return np.repeat(area / 3.0, 3).reshape(-1, 3)
    qp, qw = triangle_quadrature(quad_order)
    fvals = np.asarray(f(quadrature_points(p, quad_order)), dtype=np.float64)
    # int_T f phi_i = area * sum_q w_q f(x_q) lambda_i(x_q)
    return np.einsum("t,tq,qi->ti", area, fvals, qp * qw[:, None])


def assemble_stiffness(
    mesh: Mesh,
    coefficient,
    quad_order: int = 5,
    restrict: bool = True,
) -> sp.csr_matrix:
    """Weighted P1 stiffness matrix with entries int_D a grad(phi_i).grad(phi_j).

    The coefficient is integrated per element with a symmetric quadrature
    rule (gradients are elementwise constant).  With ``restrict`` the matrix
    lives on the free (interior) nodes, otherwise on all vertices.
    """
    p = mesh.vertices[mesh.triangles]
    area, grads = element_geometry(p)
    weights = element_integrals(quadrature_points(p, quad_order), area, coefficient, quad_order)

    local = np.einsum("t,tid,tjd->tij", weights, grads, grads)
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    mat = sp.coo_matrix(
        (local.ravel(), (rows, cols)),
        shape=(mesh.num_vertices, mesh.num_vertices),
    ).tocsr()
    if restrict:
        free = mesh.free_nodes
        mat = mat[free][:, free].tocsr()
    return mat


def assemble_coupling(rows: IndexSet, cols: IndexSet, m: int) -> sp.csr_matrix:
    """Parameter-domain coupling block for dimension `m`.

    Entry (nu, mu) is nonzero only when mu = nu +- e_m, with value
    ``coupling_coefficient(max(nu_m, mu_m))``.  For m = 0 the block is the
    identity pattern (orthonormality of the chaos basis).
    """
    data, ri, ci = [], [], []
    if m == 0:
        for i, nu in enumerate(rows):
            if nu in cols:
                ri.append(i)
                ci.append(cols.position(nu))
                data.append(1.0)
    else:
        for i, nu in enumerate(rows):
            for step in (+1, -1):
                mu = nu.bump(m, step)
                if mu is not None and mu in cols:
                    ri.append(i)
                    ci.append(cols.position(mu))
                    data.append(coupling_coefficient(max(nu.degree(m), mu.degree(m))))
    return sp.csr_matrix(
        (data, (ri, ci)), shape=(len(rows), len(cols))
    )


def assemble_load(mesh: Mesh, f, indices: IndexSet, quad_order: int = 5) -> np.ndarray:
    """Load array F[z, nu] over free nodes and indices.

    Deterministic right-hand sides load only the zero-index column; ``f=None``
    means f == 1 and uses the exact hat-function integral (patch area / 3).
    """
    n_free = mesh.free_nodes.size
    F = np.zeros((n_free, len(indices)))
    if ZERO not in indices:
        return F
    col = indices.position(ZERO)
    p = mesh.vertices[mesh.triangles]
    area, _ = element_geometry(p)
    full = np.zeros(mesh.num_vertices)
    np.add.at(full, mesh.triangles.ravel(), element_load(p, area, f, quad_order).ravel())
    F[:, col] = full[mesh.free_nodes]
    return F


class TensorSystem:
    """Assembled Galerkin system on (free nodes of a mesh) x (index set)."""

    def __init__(
        self,
        mesh: Mesh,
        indices: IndexSet,
        spec: ProblemSpec,
        n_modes: int | None = None,
        quad_order: int = 5,
    ):
        self.mesh = mesh
        self.indices = indices
        self.spec = spec
        self.n_modes = indices.max_dimension() if n_modes is None else n_modes
        self.quad_order = quad_order

        self.A = [
            assemble_stiffness(mesh, spec.coefficient(m), quad_order)
            for m in range(self.n_modes + 1)
        ]
        self.G = [
            assemble_coupling(indices, indices, m) for m in range(self.n_modes + 1)
        ]
        self.load = assemble_load(mesh, spec.rhs, indices, quad_order)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.mesh.free_nodes.size, len(self.indices))

    @property
    def num_dof(self) -> int:
        return self.shape[0] * self.shape[1]

    @cached_property
    def a0_solver(self):
        return splu(self.A[0].tocsc())

    def apply(self, U: np.ndarray) -> np.ndarray:
        """Matrix-free operator: sum_m A_m U G_m."""
        R = self.A[0] @ U
        for m in range(1, self.n_modes + 1):
            G = self.G[m]
            if G.nnz:
                R += self.A[m] @ (G @ U.T).T  # G is symmetric
        return R

    def precondition(self, R: np.ndarray) -> np.ndarray:
        """Mean-based preconditioner: A_0^{-1} applied columnwise."""
        return self.a0_solver.solve(R)

    def apply_mean(self, U: np.ndarray) -> np.ndarray:
        return self.A[0] @ U


@dataclass(frozen=True)
class GalerkinSolution:
    """Coefficients of a Galerkin solution, bound to mesh and index set."""

    mesh: Mesh
    indices: IndexSet
    coeffs: np.ndarray
    system: TensorSystem | None = None
    residual: float = 0.0
    iterations: int = 0

    @property
    def num_dof(self) -> int:
        return self.coeffs.size

    def energy_sq(self) -> float:
        """Squared energy norm |||u|||^2 = B(u, u)."""
        return b_energy(self, self)

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


def _pcg(apply_op, precond, b, x0=None, tol=1e-10, maxiter=100000):
    """Preconditioned CG on arrays; returns (x, relative residual, iters).

    Raises SolverError on breakdown: a non-finite preconditioned norm, or a
    curvature p.Ap that is non-finite or not positive (the operator or the
    preconditioner is not positive definite)."""

    def finite(name, value, positive=False):
        if not math.isfinite(value) or (positive and value <= 0.0):
            raise SolverError(f"PCG breakdown: {name} = {value} at iteration {it}", history)
        return value

    it, history = 0, []
    zb = precond(b)
    denom = math.sqrt(max(finite("b.Mb", _inner(b, zb)), 0.0))
    if denom == 0.0:
        return np.zeros_like(b), 0.0, 0
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - apply_op(x)
    z = precond(r)
    rho = finite("r.Mr", _inner(r, z))
    p = z.copy()
    history.append(math.sqrt(max(rho, 0.0)) / denom)
    while history[-1] > tol:
        if it >= maxiter:
            raise SolverError(
                f"PCG did not converge in {maxiter} iterations "
                f"(relative residual {history[-1]:.3e})",
                history,
            )
        Ap = apply_op(p)
        alpha = rho / finite("p.Ap", _inner(p, Ap), positive=True)
        x += alpha * p
        r -= alpha * Ap
        z = precond(r)
        rho_new = finite("r.Mr", _inner(r, z))
        p = z + (rho_new / rho) * p
        rho = rho_new
        it += 1
        history.append(math.sqrt(max(rho, 0.0)) / denom)
    return x, history[-1], it


def solve(
    system: TensorSystem,
    tol: float = 1e-10,
    maxiter: int = 100000,
    initial: GalerkinSolution | None = None,
) -> GalerkinSolution:
    """Solve the Galerkin system by mean-preconditioned CG."""
    x0 = None
    if initial is not None:
        if initial.coeffs.shape != system.shape:
            raise ValueError("initial guess does not match the system shape")
        x0 = initial.coeffs
    U, res, its = _pcg(
        system.apply, system.precondition, system.load, x0=x0, tol=tol, maxiter=maxiter
    )
    return GalerkinSolution(
        mesh=system.mesh,
        indices=system.indices,
        coeffs=U,
        system=system,
        residual=res,
        iterations=its,
    )


def prolongation_matrix(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """P1 prolongation on free nodes between nested meshes.

    Walks the refinement lineage from `coarse` to `fine`, composing one-step
    interpolation matrices (new vertices average their parent-edge endpoints).
    """
    chain = fine.lineage_to(coarse)
    P = sp.identity(coarse.num_vertices, format="csr")
    prev = coarse
    for step in chain:
        n_old, n_new = prev.num_vertices, step.num_vertices
        rows = np.concatenate([np.arange(n_old), np.repeat(np.arange(n_old, n_new), 2)])
        cols = np.concatenate([np.arange(n_old), step.new_vertex_edge.ravel()])
        data = np.concatenate([np.ones(n_old), np.full(2 * (n_new - n_old), 0.5)])
        P = sp.csr_matrix((data, (rows, cols)), shape=(n_new, n_old)) @ P
        prev = step
    return P[fine.free_nodes][:, coarse.free_nodes].tocsr()


def _index_embedding(small: IndexSet, large: IndexSet) -> np.ndarray:
    cols = np.empty(len(small), dtype=np.int64)
    for i, nu in enumerate(small):
        if nu not in large:
            raise ValueError(f"index {nu} missing from the enlarged index set")
        cols[i] = large.position(nu)
    return cols


def prolong(
    u: GalerkinSolution,
    mesh: Mesh,
    indices: IndexSet,
    system: TensorSystem | None = None,
) -> GalerkinSolution:
    """Represent `u` in the larger space (finer nested mesh, larger index
    set); new-vertex values by interpolation, new-index coefficients zero."""
    P = prolongation_matrix(u.mesh, mesh) if mesh is not u.mesh else None
    spatial = u.coeffs if P is None else P @ u.coeffs
    U = np.zeros((spatial.shape[0], len(indices)))
    U[:, _index_embedding(u.indices, indices)] = spatial
    return GalerkinSolution(mesh=mesh, indices=indices, coeffs=U, system=system)


def _matching_system(u: GalerkinSolution, v: GalerkinSolution) -> TensorSystem:
    if u.mesh is not v.mesh or u.indices != v.indices:
        raise ValueError("operands live in different spaces; prolong first")
    for cand in (u.system, v.system):
        if cand is not None and cand.mesh is u.mesh and cand.indices == u.indices:
            return cand
    raise ValueError("no assembled system attached to either operand")


def b_energy(u: GalerkinSolution, v: GalerkinSolution) -> float:
    """Full bilinear form B(u, v) via the Kronecker operator."""
    system = _matching_system(u, v)
    return _inner(u.coeffs, system.apply(v.coeffs))


def b0_energy(u: GalerkinSolution, v: GalerkinSolution) -> float:
    """Mean-field bilinear form B_0(u, v)."""
    system = _matching_system(u, v)
    return _inner(u.coeffs, system.apply_mean(v.coeffs))


class EnhancedSystem:
    """Galerkin system on the enhanced space: (fine FEM x current indices)
    plus (current FEM x detail indices), a direct sum."""

    def __init__(
        self,
        mesh: Mesh,
        indices_p: IndexSet,
        indices_q: IndexSet,
        spec: ProblemSpec,
        overlay: TwoLevelOverlay | None = None,
        quad_order: int = 5,
    ):
        self.mesh = mesh
        self.indices_p = indices_p
        self.indices_q = indices_q
        self.spec = spec
        self.overlay = uniform_refine(mesh) if overlay is None else overlay
        fine = self.overlay.fine

        n_modes = max(indices_p.max_dimension(), indices_q.max_dimension())
        self.n_modes = n_modes
        self.A_fine = [
            assemble_stiffness(fine, spec.coefficient(m), quad_order)
            for m in range(n_modes + 1)
        ]
        self.A_coarse = [
            assemble_stiffness(mesh, spec.coefficient(m), quad_order)
            for m in range(n_modes + 1)
        ]
        self.P = prolongation_matrix(mesh, fine)
        self.C = [(Am @ self.P).tocsr() for Am in self.A_fine]
        self.Gpp = [
            assemble_coupling(indices_p, indices_p, m) for m in range(n_modes + 1)
        ]
        self.Gqq = [
            assemble_coupling(indices_q, indices_q, m) for m in range(n_modes + 1)
        ]
        self.Gpq = [
            assemble_coupling(indices_p, indices_q, m) for m in range(n_modes + 1)
        ]
        self.load_fine = assemble_load(fine, spec.rhs, indices_p, quad_order)
        self.shape1 = (fine.free_nodes.size, len(indices_p))
        self.shape2 = (mesh.free_nodes.size, len(indices_q))

    @property
    def num_dof(self) -> int:
        return self.shape1[0] * self.shape1[1] + self.shape2[0] * self.shape2[1]

    @cached_property
    def _fine_solver(self):
        return splu(self.A_fine[0].tocsc())

    @cached_property
    def _coarse_solver(self):
        return splu(self.A_coarse[0].tocsc())

    def split(self, x: np.ndarray):
        k = self.shape1[0] * self.shape1[1]
        return x[:k].reshape(self.shape1), x[k:].reshape(self.shape2)

    def join(self, U1: np.ndarray, U2: np.ndarray) -> np.ndarray:
        return np.concatenate([U1.ravel(), U2.ravel()])

    def apply(self, x: np.ndarray) -> np.ndarray:
        U1, U2 = self.split(x)
        R1 = np.zeros(self.shape1)
        R2 = np.zeros(self.shape2)
        for m in range(self.n_modes + 1):
            Gpp, Gqq, Gpq = self.Gpp[m], self.Gqq[m], self.Gpq[m]
            if Gpp.nnz:
                R1 += self.A_fine[m] @ (Gpp @ U1.T).T
            if Gpq.nnz:
                R1 += self.C[m] @ (Gpq @ U2.T).T
                R2 += (Gpq.T @ (self.C[m].T @ U1).T).T
            if Gqq.nnz:
                R2 += self.A_coarse[m] @ (Gqq @ U2.T).T
        return self.join(R1, R2)

    def precondition(self, x: np.ndarray) -> np.ndarray:
        U1, U2 = self.split(x)
        return self.join(self._fine_solver.solve(U1), self._coarse_solver.solve(U2))


@dataclass(frozen=True)
class EnhancedSolution:
    """Solution in the enhanced space, stored blockwise."""

    system: EnhancedSystem
    fine_coeffs: np.ndarray
    detail_coeffs: np.ndarray
    residual: float
    iterations: int

    def energy_sq(self) -> float:
        # the detail block carries no load (loads are deterministic)
        return _inner(self.system.load_fine, self.fine_coeffs)


def solve_enhanced(
    mesh: Mesh,
    indices_p: IndexSet,
    indices_q: IndexSet,
    spec: ProblemSpec,
    tol: float = 1e-10,
    maxiter: int = 100000,
    overlay: TwoLevelOverlay | None = None,
    quad_order: int = 5,
) -> EnhancedSolution:
    """Galerkin solve in the enhanced space used by the two-sided estimate."""
    system = EnhancedSystem(mesh, indices_p, indices_q, spec, overlay, quad_order)
    b = system.join(system.load_fine, np.zeros(system.shape2))
    x, res, its = _pcg(system.apply, system.precondition, b, tol=tol, maxiter=maxiter)
    U1, U2 = system.split(x)
    return EnhancedSolution(
        system=system,
        fine_coeffs=U1,
        detail_coeffs=U2,
        residual=res,
        iterations=its,
    )
