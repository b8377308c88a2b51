"""Independent reference computations used to validate the library.

Everything here is written from scratch against the mathematical definitions,
deliberately avoiding the library's assembly and evaluation routines: dense
loops instead of vectorized einsum, collapsed Gauss product quadrature instead
of the symmetric triangle rule, and explicit parameter-space integration
instead of closed-form coupling coefficients.  The exceptions are former
library implementations kept as references for their replacements: the
fine-mesh spatial estimator, the COO stiffness assembly and the loop-based
newest-vertex bisection at the end.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import eval_legendre, roots_jacobi, roots_legendre

import scipy.sparse as sp

from sgfem.mesh import Mesh
from sgfem.galerkin import (
    assemble_coupling,
    assemble_load,
    assemble_stiffness,
    element_geometry,
    element_integrals,
    prolongation_matrix,
    triangle_quadrature,
)


# ---------------------------------------------------------------------------
# parameter-space integration

def gauss_dy2(n: int = 48):
    """Gauss nodes/weights for the measure dy/2 on [-1, 1]."""
    y, w = roots_legendre(n)
    return y, 0.5 * w


def legendre_orthonormal(n: int, y):
    """sqrt(2n+1) L_n(y), evaluated via scipy's classical Legendre."""
    return math.sqrt(2 * n + 1) * eval_legendre(n, y)


def triple_moment(k: int, n: int, m: int, quad: int = 48) -> float:
    """integral of y P_n(y) P_m(y) dy/2 when k == 1, or P_n P_m for k == 0."""
    y, w = gauss_dy2(quad)
    return float(np.sum(w * y**k * legendre_orthonormal(n, y) * legendre_orthonormal(m, y)))


def param_moment(nu, mu, m: int, quad: int = 32) -> float:
    """integral of y_m P_nu(y) P_mu(y) over the product measure.

    `nu`, `mu` are MultiIndex-like objects exposing ``degree(dim)``; the
    integral factorizes over the active dimensions.
    """
    dims = sorted(set(nu.support) | set(mu.support) | {m})
    out = 1.0
    y, w = gauss_dy2(quad)
    for dim in dims:
        f = legendre_orthonormal(nu.degree(dim), y) * legendre_orthonormal(mu.degree(dim), y)
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

def fine_mesh_spatial_indicators(u, overlay, spec, quad_order: int = 5) -> np.ndarray:
    """eta(z) for all z in N+, in overlay order, from the full residual on the
    uniformly refined mesh: prolong u there, assemble the fine stiffness
    matrices and load, and read the rows of the new interior vertices."""
    fine = overlay.fine
    n_modes = u.indices.max_dimension()
    A_fine = [
        assemble_stiffness(fine, spec.coefficient(m), quad_order)
        for m in range(n_modes + 1)
    ]
    P = prolongation_matrix(u.mesh, fine)
    U1 = P @ u.coeffs
    R = assemble_load(fine, spec.rhs, u.indices, quad_order)
    R -= A_fine[0] @ U1
    for m in range(1, n_modes + 1):
        G = assemble_coupling(u.indices, u.indices, m)
        if G.nnz:
            R -= A_fine[m] @ (G @ U1.T).T

    rows = fine.free_index[overlay.nplus]
    assert np.all(rows >= 0), "new interior vertex flagged as boundary"
    denom = A_fine[0].diagonal()[rows]
    return np.sqrt((R[rows] ** 2).sum(axis=1) / denom)


# ---------------------------------------------------------------------------
# the former stiffness assembly: per call, geometry, einsum quadrature points,
# COO triplets converted to CSR and sliced to the free nodes; the pattern and
# scatter assembly must match it to rounding

def einsum_quadrature_points(p: np.ndarray, quad_order: int = 5) -> np.ndarray:
    qp, _ = triangle_quadrature(quad_order)
    return np.einsum("qk,tkd->tqd", qp, p)


def coo_assemble_stiffness(
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
    weights = element_integrals(einsum_quadrature_points(p, quad_order), area, coefficient, quad_order)

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
    gen_out: list[int] = []

    def split(v: tuple[int, int, int], r: int, gen: int) -> None:
        e = _edge_key(v[(r + 1) % 3], v[(r + 2) % 3])
        w = midpoint_id.get(e)
        if w is None:
            tris_out.append(v)
            refs_out.append(r)
            gen_out.append(gen)
            return
        # children ordering: the child keeping the (r+1) vertex first
        c1 = (v[r], v[(r + 1) % 3], w)
        c2 = (v[(r + 2) % 3], v[r], w)
        split(c1, 2, gen + 1)
        split(c2, 2, gen + 1)

    for t in range(mesh.num_triangles):
        v = tuple(int(x) for x in mesh.triangles[t])
        split(v, int(mesh.ref_edge[t]), int(mesh.generation[t]))

    return Mesh(
        vertices=np.vstack([mesh.vertices, new_coords]),
        boundary=np.concatenate([mesh.boundary, new_bdry]),
        triangles=np.asarray(tris_out, dtype=np.int64),
        ref_edge=np.asarray(refs_out, dtype=np.int64),
        generation=np.asarray(gen_out, dtype=np.int64),
        parent=mesh,
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
