"""Independent reference computations used to validate the library.

Everything here is written from scratch against the mathematical definitions,
deliberately avoiding the library's assembly and evaluation routines: dense
loops instead of vectorized einsum, collapsed Gauss product quadrature instead
of the symmetric triangle rule, and explicit parameter-space integration
instead of closed-form coupling coefficients.  The exceptions are former
library implementations kept as references for their replacements: the
fine-mesh and the node-major spatial and parametric estimators with their
node-major coupling product, the COO stiffness assembly,
the CSR pattern made unique from the triangles' entries, the three-factor
coefficient modes, the per-call load assembly, the loop-based newest-vertex bisection, the CSR
coupling blocks with the transposed products formed from them, the
prolongation matrix, and the loop-based detail set and index embedding, and former library code that only
tests use: the mesh audit with its minimum angle, the orthonormal Legendre
polynomials with their Gauss rule, the
Galerkin solve in the enhanced space of the two-sided estimate, the mean-field
energy and the contraction series of reference errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_legendre, roots_jacobi, roots_legendre

import scipy.sparse as sp

from sgfem.galerkin import (
    GalerkinSolution,
    MeshOperator,
    SolverError,
    TensorSystem,
    _inner,
    _QP_DEG5,
    _pcg,
    assemble_stiffness,
    element_geometry,
    element_integrals,
    element_load,
    gather,
)
from sgfem.indices import ZERO, IndexSet, MultiIndex
from sgfem.mesh import Mesh, uniform_refine
from sgfem.problem import ProblemSpec, coupling_coefficient, mode_frequencies


# ---------------------------------------------------------------------------
# parameter-space integration

def gauss_quadrature(num_points: int = 64):
    """Gauss-Legendre nodes and weights for the measure dy/2 on [-1, 1]."""
    y, w = roots_legendre(num_points)
    return y, 0.5 * w


def legendre_eval(n: int, y):
    """Orthonormal Legendre polynomial sqrt(2n+1) L_n(y) of degree `n` at
    `y` in [-1, 1], L_n the classical Legendre polynomial."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return math.sqrt(2 * n + 1) * eval_legendre(n, y)


def triple_moment(k: int, n: int, m: int, quad: int = 48) -> float:
    """integral of y P_n(y) P_m(y) dy/2 when k == 1, or P_n P_m for k == 0."""
    y, w = gauss_quadrature(quad)
    return float(np.sum(w * y**k * legendre_eval(n, y) * legendre_eval(m, y)))


def param_moment(nu, mu, m: int, quad: int = 32) -> float:
    """integral of y_m P_nu(y) P_mu(y) over the product measure.

    `nu`, `mu` are MultiIndex-like objects exposing ``degree(dim)``; the
    integral factorizes over the active dimensions.
    """
    dims = sorted(set(nu.support) | set(mu.support) | {m})
    out = 1.0
    y, w = gauss_quadrature(quad)
    for dim in dims:
        f = legendre_eval(nu.degree(dim), y) * legendre_eval(mu.degree(dim), y)
        if dim == m:
            f = f * y
        out *= float(np.sum(w * f))
    return out


# ---------------------------------------------------------------------------
# triangle quadrature (collapsed Gauss product rule, independent of the
# library's symmetric rule)

def collapsed_triangle_rule(n: int = 10):
    """Barycentric points and weights (summing to one) exact for polynomials
    of degree <= 2n - 1 on the triangle, via the Duffy transform."""
    xj, wj = roots_jacobi(n, 1, 0)
    x = 0.5 * (xj + 1.0)
    wx = wj / 4.0
    yl, wl = roots_legendre(n)
    y = 0.5 * (yl + 1.0)
    wy = wl / 2.0
    pts = []
    wts = []
    for i in range(n):
        for j in range(n):
            l1 = x[i]
            l2 = y[j] * (1.0 - x[i])
            pts.append((1.0 - l1 - l2, l1, l2))
            wts.append(wx[i] * wy[j] * 2.0)
    return np.asarray(pts), np.asarray(wts)


def dense_stiffness(mesh, coeff, quad_n: int = 10, restrict: bool = True) -> np.ndarray:
    """Dense stiffness matrix for integral of coeff * grad phi_i . grad phi_j,
    assembled triangle by triangle with explicit loops."""
    bary, w = collapsed_triangle_rule(quad_n)
    n = mesh.num_vertices
    A = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.vertices[np.asarray(tri)]
        d1 = p[1] - p[0]
        d2 = p[2] - p[0]
        det = d1[0] * d2[1] - d1[1] * d2[0]
        area = 0.5 * det
        grads = np.array(
            [
                [p[1][1] - p[2][1], p[2][0] - p[1][0]],
                [p[2][1] - p[0][1], p[0][0] - p[2][0]],
                [p[0][1] - p[1][1], p[1][0] - p[0][0]],
            ]
        ) / det
        xq = bary @ p
        cq = np.asarray(coeff(xq), dtype=np.float64)
        cint = float(np.sum(w * cq)) * area
        for a in range(3):
            for b in range(3):
                A[tri[a], tri[b]] += cint * float(grads[a] @ grads[b])
    if not restrict:
        return A
    free = mesh.free_nodes
    return A[np.ix_(free, free)]


def dense_load_one(mesh) -> np.ndarray:
    """Load vector for f == 1 on the free nodes: one third of the patch area."""
    n = mesh.num_vertices
    F = np.zeros(n)
    for tri in mesh.triangles:
        p = mesh.vertices[np.asarray(tri)]
        area = 0.5 * (
            (p[1][0] - p[0][0]) * (p[2][1] - p[0][1])
            - (p[1][1] - p[0][1]) * (p[2][0] - p[0][0])
        )
        for a in range(3):
            F[tri[a]] += area / 3.0
    return F[mesh.free_nodes]


def dense_tensor_system(mesh, indices, spec, n_modes: int, quad_n: int = 10):
    """Dense matrix and load of the parametric Galerkin system, enumerating
    the basis as phi_i P_nu with nu varying fastest over the index set."""
    free = mesh.free_nodes.size
    card = len(indices)
    A = np.zeros((free * card, free * card))
    for m in range(n_modes + 1):
        Am = dense_stiffness(mesh, spec.coefficient(m), quad_n)
        for a, nu in enumerate(indices):
            for b, mu in enumerate(indices):
                if m == 0:
                    g = 1.0 if nu == mu else 0.0
                else:
                    g = param_moment(nu, mu, m)
                if abs(g) > 1e-14:
                    A[a * free:(a + 1) * free, b * free:(b + 1) * free] += g * Am
    F = np.zeros(free * card)
    F[:free] = dense_load_one(mesh)  # the load is deterministic
    return A, F


def dense_tensor_solve(mesh, indices, spec, n_modes: int, quad_n: int = 10) -> np.ndarray:
    """Direct dense solve; returns coefficients shaped (free, card)."""
    A, F = dense_tensor_system(mesh, indices, spec, n_modes, quad_n)
    x = np.linalg.solve(A, F)
    return x.reshape(len(indices), mesh.free_nodes.size).T


# ---------------------------------------------------------------------------
# pointwise P1 evaluation by brute-force triangle location

def evaluate_p1(mesh, vertex_values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the P1 function with the given vertex values at each point."""
    points = np.atleast_2d(points)
    out = np.full(points.shape[0], np.nan)
    for i, x in enumerate(points):
        for tri in mesh.triangles:
            p = mesh.vertices[np.asarray(tri)]
            T = np.column_stack((p[1] - p[0], p[2] - p[0]))
            lam12 = np.linalg.solve(T, x - p[0])
            lam = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
            if np.all(lam >= -1e-12):
                out[i] = float(lam @ vertex_values[np.asarray(tri)])
                break
    return out


# ---------------------------------------------------------------------------
# exhaustive bulk-marking search

def subset_sums(values_sq: np.ndarray) -> np.ndarray:
    """Sum of values_sq over every bitmask subset, by dynamic programming."""
    n = values_sq.size
    sums = np.zeros(1 << n)
    for i in range(n):
        bit = 1 << i
        sums[bit:2 * bit] = sums[:bit] + values_sq[i]
    return sums


def exhaustive_bulk(values: np.ndarray, theta: float, sums: np.ndarray | None = None):
    """Smallest subset capturing theta^2 of the squared total, maximizing the
    captured sum among subsets of minimal cardinality.  Returns
    (cardinality, captured_sum_sq).  Exponential; use for small inputs only."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    sq = values**2
    total = float(sq.sum())
    if total == 0.0:
        return 0, 0.0
    goal = theta * theta * total
    if sums is None:
        sums = subset_sums(sq)
    popcount = np.array([bin(mask).count("1") for mask in range(1 << n)])
    feasible = (sums >= goal) | np.isclose(sums, goal, rtol=1e-12, atol=0.0)
    k = int(popcount[feasible].min())
    mask_k = feasible & (popcount == k)
    return k, float(sums[mask_k].max())


# ---------------------------------------------------------------------------
# two-level spatial indicators on the assembled fine mesh, with the library's
# assembly (checked against the dense oracles in test_galerkin), so that the
# element-local estimator must agree with it to rounding

def nplus_vertices(mesh) -> np.ndarray:
    """Vertex ids, in ``uniform_refine(mesh)``, of N+ in N+ order: edge e
    gets vertex ``num_vertices + e``."""
    return mesh.num_vertices + mesh.interior_edge_ids


def fine_mesh_spatial_indicators(u, spec) -> np.ndarray:
    """eta(z) for all z in N+, in N+ order, from the full residual on the
    uniformly refined mesh: prolong u there, assemble the fine stiffness
    matrices and load, and read the rows of the new interior vertices."""
    fine = uniform_refine(u.mesh)
    n_modes = u.indices.max_dimension()
    A_fine = [assemble_stiffness(fine, spec.coefficient(m)) for m in range(n_modes + 1)]
    U1 = prolongation_matrix(u.mesh, fine) @ u.coeffs
    R = assemble_load(fine, u.indices)
    R -= A_fine[0] @ U1
    for m in range(1, n_modes + 1):
        G = assemble_coupling(u.indices, u.indices, m)
        if G.nnz:
            R -= A_fine[m] @ (G @ U1.T).T

    rows = fine.free_index[nplus_vertices(u.mesh)]
    assert np.all(rows >= 0), "new interior vertex flagged as boundary"
    denom = A_fine[0].diagonal()[rows]
    return np.sqrt((R[rows] ** 2).sum(axis=1) / denom)


# ---------------------------------------------------------------------------
# the former node-major coupling product (``Coupling.multiply``) and the
# node-major estimators built on it; the coupling's plans and the index-major
# kernel must match them to the bit

def coupling_product(coupling, U: np.ndarray, m: int, detail: bool = False,
                     columns=slice(None)) -> np.ndarray:
    """(U @ G_m)[:, columns] in C order, for a finite U of shape (n, P), a
    mode m >= 1 and a slice or index array ``columns``; on P x Q with
    ``detail``.  The coupling's gather passes of mode m on those columns,
    summed by ``gather``."""
    sources, coefficients, _ = coupling._mode(m, detail)
    passes = [(source[columns], coefficient[columns])
              for source, coefficient in zip(sources, coefficients)]
    out = gather(U, passes, axis=1)
    if out is None:
        width = len(coupling.detail if detail else coupling.indices)
        return np.zeros((U.shape[0], width))[:, columns].copy()
    return out


def node_major_spatial_indicators(system: TensorSystem, u: GalerkinSolution,
                                  product=coupling_product) -> np.ndarray:
    """``spatial_indicators`` as it was computed node-major, with the
    operator and coupling of ``system``: the gradients and the residual as
    (nt, ..., #indices) arrays, the coupling applied by ``product``
    (``coupling_product`` or ``transposed_coupling_product``) on columns.

    eta(z)^2 = sum_nu r(z, nu)^2 / B_0(phi_z, phi_z), where r(z, nu) is the
    residual of u tested against phi_z P_nu and phi_z is the hat of z on the
    uniformly refined mesh.  Each coarse triangle contributes the integrals
    over its four children (with the same quadrature as the stiffness
    assembly, kept by the mesh operator) for the midpoints of its interior
    edges; the contributions are summed per z.
    """
    mesh, operator, coupling = u.mesh, system.operator, system.coupling

    def tested(terms, g):
        """Contract (nt, 3, 2) hat terms with (nt, 2, #indices) gradients."""
        return terms[:, :, 0, None] * g[:, None, 0] + terms[:, :, 1, None] * g[:, None, 1]

    # gradient of u per coarse triangle and index, (nt, 2, #indices)
    grads = operator.pattern.grads
    grad_u = np.einsum("tjd,tjk->tdk", grads, u.vertex_values()[mesh.triangles])

    terms, diagonal, load = operator.child_terms(u.indices.max_dimension())
    res = np.zeros((mesh.num_triangles, 3, len(u.indices)))
    if ZERO in u.indices:
        res[:, :, u.indices.position(ZERO)] = load
    res -= tested(terms[0], grad_u)
    flat = grad_u.reshape(-1, grad_u.shape[2])
    for m in range(1, len(terms)):
        cols = coupling.coupled_columns(m)
        g = product(coupling, flat, m, columns=cols).reshape(grad_u.shape[:2] + (-1,))
        res[:, :, cols] -= tested(terms[m], g)

    # scatter the two triangles' contributions to each z in N+
    position = mesh.midpoint_nplus.ravel()
    keep = position >= 0
    position = position[keep]
    num_new = mesh.interior_edge_ids.size

    def gather(values):
        return np.bincount(position, weights=values[keep], minlength=num_new)

    res = res.reshape(-1, res.shape[2])
    num = sum(gather(res[:, k]) ** 2 for k in range(res.shape[1]))
    return np.sqrt(num / gather(diagonal.ravel()))


def node_major_parametric_indicators(system: TensorSystem, u: GalerkinSolution,
                                     product=coupling_product) -> np.ndarray:
    """``parametric_indicators`` as it was computed node-major, with the
    operator and coupling of ``system`` and the coupling's detail set: the
    residual r[z, nu] = -B(u, phi_z P_nu) as a (free nodes, #detail) array,
    each mode's product formed by ``product`` on its coupled columns and
    subtracted there, and A_0 solved on the whole array in one SuperLU
    call."""
    operator, coupling = system.operator, system.coupling
    detail = coupling.detail
    if len(detail) == 0:
        return np.zeros(0)
    n_modes = max(u.indices.max_dimension(), detail.max_dimension())
    R = np.zeros((u.coeffs.shape[0], len(detail)))
    for m in range(1, n_modes + 1):
        cols = coupling.coupled_columns(m, detail=True)
        R[:, cols] -= operator.stiffness(m) @ product(coupling, u.coeffs, m, detail=True,
                                                      columns=cols)
    E = np.ascontiguousarray(operator.a0_solver.solve(R))
    return np.sqrt(np.maximum((E * R).sum(axis=0), 0.0))


# ---------------------------------------------------------------------------
# the former stiffness assembly: per call, geometry, einsum quadrature points,
# COO triplets converted to CSR and sliced to the free nodes; the pattern and
# scatter assembly must match it to rounding

def einsum_quadrature_points(p: np.ndarray) -> np.ndarray:
    return np.einsum("qk,tkd->tqd", _QP_DEG5, p)


def coo_assemble_stiffness(mesh: Mesh, coefficient, restrict: bool = True) -> sp.csr_matrix:
    """Weighted P1 stiffness matrix with entries int_D a grad(phi_i).grad(phi_j).

    The coefficient is integrated per element with a symmetric quadrature
    rule (gradients are elementwise constant).  With ``restrict`` the matrix
    lives on the free (interior) nodes, otherwise on all vertices.
    """
    p = mesh.vertices[mesh.triangles]
    area, grads = element_geometry(p)
    weights = element_integrals(einsum_quadrature_points(p), area, coefficient)

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


def unique_csr_pattern(mesh: Mesh):
    """The former CSR pattern of ``StiffnessPattern``: the free-node keys
    ``row * n + col`` of the 9 local entries of each triangle, made unique.
    Returns the mask of the (triangle, i, j) entries with both nodes free,
    their data slots, and the CSR indices and indptr."""
    n = mesh.free_nodes.size
    local = mesh.free_index[mesh.triangles]
    rows = np.repeat(local, 3, axis=1).ravel()
    cols = np.tile(local, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    keys, slot = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return keep, slot, keys % n, indptr


# ---------------------------------------------------------------------------
# the former coefficient modes: all three factors, a cosine of frequency 0
# included; ``fourier_mode`` must reproduce them bit for bit

def three_factor_mode(m: int, amplitude: float, sigma: float):
    beta1, beta2 = mode_frequencies(m)
    alpha = amplitude * m ** (-float(sigma))

    def a_m(x):
        x = np.asarray(x, dtype=np.float64)
        return (
            alpha
            * np.cos(2.0 * np.pi * beta1 * x[..., 0])
            * np.cos(2.0 * np.pi * beta2 * x[..., 1])
        )

    return a_m


# ---------------------------------------------------------------------------
# the former load assembly: per call, the geometry of the mesh; the
# operator's load, built from its stiffness pattern, must match it to the bit

def assemble_load(mesh: Mesh, indices: IndexSet) -> np.ndarray:
    """Load array F[z, nu] over free nodes and indices.

    The deterministic load f == 1 fills only the zero-index column, with the
    exact hat-function integral (patch area / 3).
    """
    n_free = mesh.free_nodes.size
    F = np.zeros((n_free, len(indices)))
    if ZERO not in indices:
        return F
    col = indices.position(ZERO)
    p = mesh.vertices[mesh.triangles]
    area, _ = element_geometry(p)
    full = np.zeros(mesh.num_vertices)
    load = element_load(area)
    np.add.at(full, mesh.triangles.ravel(), load.ravel())
    F[:, col] = full[mesh.free_nodes]
    return F


# ---------------------------------------------------------------------------
# the former prolongation: the one-step interpolation as a CSR matrix on the
# free nodes; ``prolong`` must reproduce its product bit for bit

def prolongation_matrix(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """P1 prolongation on free nodes from `coarse` to `fine`, one refinement
    step from it: a new vertex averages the endpoints of its edge."""
    n_old, n_new = coarse.num_vertices, fine.num_vertices
    assert n_new == n_old + len(fine.new_vertex_edge), "not one refinement step"
    rows = np.concatenate([np.arange(n_old), np.repeat(np.arange(n_old, n_new), 2)])
    cols = np.concatenate([np.arange(n_old), fine.new_vertex_edge.ravel()])
    data = np.concatenate([np.ones(n_old), np.full(2 * (n_new - n_old), 0.5)])
    P = sp.csr_matrix((data, (rows, cols)), shape=(n_new, n_old))
    return P[fine.free_nodes][:, coarse.free_nodes].tocsr()


# ---------------------------------------------------------------------------
# the former library mesh audit: its fields serve the refinement fuzz tests
# (minimum angle, edge counts) and the mesh-file fuzz test, where a failed
# audit must make `read_mesh` raise

@dataclass(frozen=True)
class MeshAudit:
    conforming: bool
    oriented: bool
    ref_edges_valid: bool
    min_angle_deg: float
    num_vertices: int
    num_triangles: int
    num_edges: int
    num_boundary_edges: int
    num_interior_edges: int

    @property
    def ok(self) -> bool:
        return self.conforming and self.oriented and self.ref_edges_valid


def min_angle(mesh) -> float:
    """Smallest interior angle over all triangles, in degrees."""
    p = mesh.vertices[mesh.triangles]
    ang = np.empty((mesh.num_triangles, 3))
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        cosang = (u * v).sum(axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        ang[:, k] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(ang.min())


def mesh_audit(mesh) -> MeshAudit:
    """Run invariant checks."""
    counts = mesh.edge_counts
    boundary_edges = mesh.edges[counts == 1]
    conforming = bool(np.all((counts == 1) | (counts == 2)))

    # NVB hanging nodes sit at midpoints of once-counted edges
    if conforming:
        a, b = boundary_edges.T
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        points = np.concatenate([mesh.vertices, mid])
        _, which = np.unique(points, axis=0, return_inverse=True)
        hanging = np.isin(which[mesh.num_vertices:], which[: mesh.num_vertices])
        conforming = bool(np.all(mesh.boundary[a] & mesh.boundary[b])) and not hanging.any()

    oriented = bool(np.all(mesh.signed_areas() > 0.0))
    refs_valid = bool(
        np.all((mesh.ref_edge >= 0) & (mesh.ref_edge <= 2))
    ) and mesh.ref_edge.shape == (mesh.num_triangles,)

    return MeshAudit(
        conforming=conforming,
        oriented=oriented,
        ref_edges_valid=refs_valid,
        min_angle_deg=min_angle(mesh),
        num_vertices=mesh.num_vertices,
        num_triangles=mesh.num_triangles,
        num_edges=len(mesh.edges),
        num_boundary_edges=len(boundary_edges),
        num_interior_edges=int((counts == 2).sum()),
    )


# ---------------------------------------------------------------------------
# newest-vertex bisection with Python loops over triangles and edge sets, the
# former library implementation; the array-based `sgfem.mesh.refine` must
# reproduce its meshes bit for bit

def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def local_edge(mesh, t: int, k: int) -> tuple[int, int]:
    tri = mesh.triangles[t]
    return _edge_key(int(tri[(k + 1) % 3]), int(tri[(k + 2) % 3]))


def edge_counts(mesh) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for tri in mesh.triangles:
        v0, v1, v2 = (int(v) for v in tri)
        for e in (_edge_key(v1, v2), _edge_key(v2, v0), _edge_key(v0, v1)):
            counts[e] = counts.get(e, 0) + 1
    return counts


def interior_edges(mesh) -> list[tuple[int, int]]:
    """Interior edges as sorted vertex pairs, in lexicographic order."""
    return sorted(e for e, c in edge_counts(mesh).items() if c == 2)


def _bisect_all(mesh, marked_edges: set[tuple[int, int]]) -> Mesh:
    """Bisect every marked edge of `mesh`; `marked_edges` must be closed under
    the NVB rule (if a triangle has a marked edge, its reference edge is
    marked too)."""
    n = mesh.num_vertices
    order = sorted(marked_edges)
    midpoint_id = {e: n + i for i, e in enumerate(order)}
    counts = edge_counts(mesh)

    new_coords = np.empty((len(order), 2))
    new_bdry = np.empty(len(order), dtype=bool)
    for i, (a, b) in enumerate(order):
        new_coords[i] = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        new_bdry[i] = counts[(a, b)] == 1

    tris_out: list[tuple[int, int, int]] = []
    refs_out: list[int] = []

    def split(v: tuple[int, int, int], r: int) -> None:
        e = _edge_key(v[(r + 1) % 3], v[(r + 2) % 3])
        w = midpoint_id.get(e)
        if w is None:
            tris_out.append(v)
            refs_out.append(r)
            return
        # children ordering: the child keeping the (r+1) vertex first
        c1 = (v[r], v[(r + 1) % 3], w)
        c2 = (v[(r + 2) % 3], v[r], w)
        split(c1, 2)
        split(c2, 2)

    for t in range(mesh.num_triangles):
        v = tuple(int(x) for x in mesh.triangles[t])
        split(v, int(mesh.ref_edge[t]))

    return Mesh(
        vertices=np.vstack([mesh.vertices, new_coords]),
        boundary=np.concatenate([mesh.boundary, new_bdry]),
        triangles=np.asarray(tris_out, dtype=np.int64),
        ref_edge=np.asarray(refs_out, dtype=np.int64),
        new_vertex_edge={midpoint_id[e]: e for e in order},
    )


def _closure(mesh, marked: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Close an edge set under the rule: a triangle with a marked edge gets
    its reference edge marked."""
    marked = set(marked)
    changed = True
    while changed:
        changed = False
        for t in range(mesh.num_triangles):
            ref = local_edge(mesh, t, int(mesh.ref_edge[t]))
            if ref in marked:
                continue
            if any(local_edge(mesh, t, k) in marked for k in range(3)):
                marked.add(ref)
                changed = True
    return marked


def loop_refine(mesh, marked) -> Mesh:
    """Refine `mesh` so that every marked new vertex (positions into the
    lexicographic list of interior edges) becomes a mesh vertex."""
    marked = sorted(set(int(i) for i in marked))
    if not marked:
        return mesh
    nplus_edges = interior_edges(mesh)
    if marked[0] < 0 or marked[-1] >= len(nplus_edges):
        raise ValueError(
            f"marked vertex id out of range 0..{len(nplus_edges) - 1}"
        )

    marked_edges = {nplus_edges[i] for i in marked}
    full = set(marked_edges)
    for t in range(mesh.num_triangles):
        tri_edges = [local_edge(mesh, t, k) for k in range(3)]
        if any(e in marked_edges for e in tri_edges):
            full.update(tri_edges)
    closed = _closure(mesh, full)
    return _bisect_all(mesh, closed)


def loop_uniform_refine(mesh) -> Mesh:
    """Bisect every edge of `mesh` once."""
    return _bisect_all(mesh, set(edge_counts(mesh)))


# ---------------------------------------------------------------------------
# the coupling blocks as CSR matrices, assembled entry by entry through
# ``bump``, and the transposed products that the gather passes replaced: the
# Kronecker operator and both estimators formed U @ G_m through transposes of
# these blocks

def bump(nu: MultiIndex, m: int, step: int) -> MultiIndex | None:
    """`nu` with the degree in dimension `m` shifted by `step` (+1/-1); None
    if the result would have a negative component."""
    new_deg = nu.degree(m) + step
    if new_deg < 0:
        return None
    other = tuple(p for p in nu.pairs if p[0] != m)
    if new_deg == 0:
        return MultiIndex(other)
    return MultiIndex(sorted(other + ((m, new_deg),)))


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
                mu = bump(nu, m, step)
                if mu is not None and mu in cols:
                    ri.append(i)
                    ci.append(cols.position(mu))
                    data.append(coupling_coefficient(max(nu.degree(m), mu.degree(m))))
    return sp.csr_matrix(
        (data, (ri, ci)), shape=(len(rows), len(cols))
    )


def transposed_coupling_product(coupling, U: np.ndarray, m: int, detail: bool = False,
                                columns=slice(None)):
    """(U @ G_m)[:, columns] as the estimators formed it: ``(G @ U.T).T`` on
    P x P (G is symmetric) in the spatial estimator, ``(G.T @ U.T).T`` on
    P x Q in the parametric one."""
    G = assemble_coupling(coupling.indices, coupling.detail if detail else coupling.indices, m)
    return ((G.T @ U.T).T if detail else (G @ U.T).T)[:, columns]


def transposed_apply(system, U: np.ndarray) -> np.ndarray:
    """The Kronecker operator sum_m A_m U G_m as ``TensorSystem.apply``
    formed it."""
    R = system.A[0] @ U
    for m in range(1, len(system.A)):
        G = assemble_coupling(system.indices, system.indices, m)
        if G.nnz:
            R += system.A[m] @ (G @ U.T).T  # G is symmetric
    return R


# ---------------------------------------------------------------------------
# former library code that only tests use: the mean-field energy, the
# Galerkin solve in the enhanced space (fine mesh x P) + (mesh x Q) of the
# two-sided estimate, with the uniform refinement `fine` of the mesh, and
# the contraction series of reference energy errors

def b0_energy(system: TensorSystem, U: np.ndarray, V: np.ndarray) -> float:
    """Mean-field bilinear form B_0(u, v) of coefficients U, V of the
    system's space."""
    assert U.shape == V.shape == system.shape
    return _inner(U, system.A[0] @ V)


class EnhancedSystem:
    """Galerkin system on the enhanced space: (fine FEM x current indices)
    plus (current FEM x detail indices), a direct sum."""

    def __init__(
        self,
        mesh: Mesh,
        indices_p: IndexSet,
        indices_q: IndexSet,
        spec: ProblemSpec,
        fine: Mesh | None = None,
    ):
        self.mesh = mesh
        self.indices_p = indices_p
        self.indices_q = indices_q
        self.spec = spec
        self.fine = fine = uniform_refine(mesh) if fine is None else fine

        n_modes = max(indices_p.max_dimension(), indices_q.max_dimension())
        self.n_modes = n_modes
        self.fine_operator = MeshOperator(fine, spec)
        self.coarse_operator = MeshOperator(mesh, spec)
        self.A_fine = [self.fine_operator.stiffness(m) for m in range(n_modes + 1)]
        self.A_coarse = [self.coarse_operator.stiffness(m) for m in range(n_modes + 1)]
        self.P = prolongation_matrix(mesh, fine)
        self.C = [(Am @ self.P).tocsr() for Am in self.A_fine]
        self.Gpp = [assemble_coupling(indices_p, indices_p, m) for m in range(n_modes + 1)]
        self.Gqq = [assemble_coupling(indices_q, indices_q, m) for m in range(n_modes + 1)]
        self.Gpq = [assemble_coupling(indices_p, indices_q, m) for m in range(n_modes + 1)]
        self.load_fine = assemble_load(fine, indices_p)
        self.shape1 = (fine.free_nodes.size, len(indices_p))
        self.shape2 = (mesh.free_nodes.size, len(indices_q))

    @property
    def num_dof(self) -> int:
        return self.shape1[0] * self.shape1[1] + self.shape2[0] * self.shape2[1]

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
        return self.join(
            self.fine_operator.a0_solver.solve(U1), self.coarse_operator.a0_solver.solve(U2)
        )


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
    fine: Mesh | None = None,
) -> EnhancedSolution:
    """Galerkin solve in the enhanced space used by the two-sided estimate;
    raises SolverError past 1000 PCG iterations."""
    system = EnhancedSystem(mesh, indices_p, indices_q, spec, fine)
    b = system.join(system.load_fine, np.zeros(system.shape2))
    x, history = _pcg(system.apply, system.precondition, b, None, tol, 1000,
                      _inner(b, system.precondition(b)))
    if history[-1] > tol:
        raise SolverError(f"enhanced PCG did not reach tol {tol:g} in 1000 iterations", history)
    U1, U2 = system.split(x)
    return EnhancedSolution(
        system=system,
        fine_coeffs=U1,
        detail_coeffs=U2,
        residual=history[-1],
        iterations=len(history) - 1,
    )


def contraction_series(trace, u_ref: GalerkinSolution) -> list[float]:
    """Ratios e_{l+1}/e_l of reference energy errors; logged, not asserted."""
    ref_energy = u_ref.energy_sq
    errs = [math.sqrt(max(ref_energy - r.energy_sq, 0.0)) for r in trace.records]
    return [b / a for a, b in zip(errs, errs[1:]) if a > 0.0]


# ---------------------------------------------------------------------------
# the loop versions of the detail set and of the index embedding of
# ``prolong``, one ``MultiIndex`` at a time

def loop_detail_index_set(indices: IndexSet) -> IndexSet:
    """All nu +- e_m, nu in `indices` and m = 1..M+1, that are not members
    and have no negative component, in canonical order."""
    m_max = indices.max_dimension() + 1
    found: set[MultiIndex] = set()
    for nu in indices:
        for m in range(1, m_max + 1):
            for step in (+1, -1):
                mu = bump(nu, m, step)
                if mu is not None and mu not in indices:
                    found.add(mu)
    return IndexSet(sorted(found), require_zero=False)


def loop_index_embedding(small: IndexSet, large: IndexSet) -> np.ndarray:
    """Position in `large` of each member of `small`."""
    cols = np.empty(len(small), dtype=np.int64)
    for i, nu in enumerate(small):
        if nu not in large:
            raise ValueError(f"index {nu} missing from the enlarged index set")
        cols[i] = large.position(nu)
    return cols
