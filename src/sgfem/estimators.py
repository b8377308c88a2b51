"""Two-level spatial and hierarchical parametric a posteriori estimators.

Spatial indicators test the residual of the current solution against the hat
functions of the uniformly refined mesh at the new interior vertices N+ (the
midpoints of interior edges); the scaling is the corresponding diagonal entry
of the mean-field stiffness on the refined mesh.  Both are computed element
by element on the current mesh, without building the refined one: the hat of
an edge midpoint lives on the children of the two triangles next to that
edge, and the solution's gradient is constant on each triangle.  Parametric
indicators solve one mean-field problem per detail index for the residual
component in that direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .galerkin import (
    GalerkinSolution,
    assemble_coupling,
    assemble_stiffness,
    element_geometry,
    element_integrals,
    element_load,
    quadrature_points,
)
from .indices import ZERO, IndexSet
from .mesh import TwoLevelOverlay
from .problem import ProblemSpec

__all__ = [
    "ErrorIndicators",
    "spatial_indicators",
    "parametric_indicators",
    "K_OVERLAP",
]

# hat supports of new interior vertices overlap each coarse triangle at most
# three times in 2D (one per interior edge)
K_OVERLAP = 3


# NVB uniform refinement of T = (a, b, c) = (v[r], v[r+1], v[r+2]), r the
# reference edge, with m = mid(b, c), w1 = mid(a, b), w2 = mid(c, a): the four
# children, in the vertex order of the refined mesh, as indices into
# (a, b, c, m, w1, w2)
_CHILDREN = np.array([[3, 0, 4], [1, 3, 4], [3, 2, 5], [0, 3, 5]])
# per midpoint m, w1, w2: the (child, local vertex) pairs where it sits
_MIDPOINT_SLOTS = (
    ((0, 0), (1, 1), (2, 0), (3, 1)),
    ((0, 2), (1, 2)),
    ((2, 2), (3, 2)),
)
# the local edge of T holding m, w1, w2, as an offset from r
_MIDPOINT_EDGE = np.array([0, 2, 1])


def spatial_indicators(
    u: GalerkinSolution,
    overlay: TwoLevelOverlay,
    spec: ProblemSpec,
    quad_order: int = 5,
) -> np.ndarray:
    """Two-level indicators eta(z) for all z in N+, in overlay order.

    eta(z)^2 = sum_nu r(z, nu)^2 / B_0(phi_z, phi_z), where r(z, nu) is the
    residual of u tested against phi_z P_nu and phi_z is the hat of z on the
    uniformly refined mesh.  Each coarse triangle contributes the integrals
    over its four children (with the same quadrature as the stiffness
    assembly) for the midpoints of its interior edges; the contributions are
    summed per z.
    """
    mesh = u.mesh
    if overlay.coarse is not mesh:
        raise ValueError("overlay was not built from the solution's mesh")
    nt = mesh.num_triangles
    rows = np.arange(nt)[:, None]
    r = mesh.ref_edge[:, None]
    p3 = mesh.vertices[mesh.triangles[rows, (r + np.arange(3)) % 3]]  # (a, b, c)
    p6 = np.concatenate([p3, 0.5 * (p3[:, [1, 0, 2]] + p3[:, [2, 1, 0]])], axis=1)
    child = p6[:, _CHILDREN].reshape(4 * nt, 3, 2)
    child_area, grads = element_geometry(child)
    grads = grads.reshape(nt, 4, 3, 2)
    points = quadrature_points(child, quad_order)

    def per_midpoint(values):
        """Sum child-vertex values (nt, 4, 3, ...) into values at the
        midpoints m, w1, w2 (nt, 3, ...)."""
        return np.stack(
            [sum(values[:, c, k] for c, k in slots) for slots in _MIDPOINT_SLOTS],
            axis=1,
        )

    def hat_terms(m):
        """int a_m grad phi_z over the children, per midpoint (nt, 3, 2), and
        the per-child integrals of a_m (nt, 4)."""
        w = element_integrals(points, child_area, spec.coefficient(m), quad_order)
        w = w.reshape(nt, 4)
        return per_midpoint(w[:, :, None, None] * grads), w

    def tested(terms, g):
        """Contract (nt, 3, 2) hat terms with (nt, 2, #indices) gradients."""
        return terms[:, :, 0, None] * g[:, None, 0] + terms[:, :, 1, None] * g[:, None, 1]

    # gradient of u per coarse triangle and index, (nt, 2, #indices)
    _, coarse_grads = element_geometry(mesh.vertices[mesh.triangles])
    grad_u = np.einsum("tjd,tjk->tdk", coarse_grads, u.vertex_values()[mesh.triangles])

    res = np.zeros((nt, 3, len(u.indices)))
    if ZERO in u.indices:
        load = element_load(child, child_area, spec.rhs, quad_order)
        res[:, :, u.indices.position(ZERO)] = per_midpoint(load.reshape(nt, 4, 3))
    terms, w0 = hat_terms(0)
    res -= tested(terms, grad_u)
    flat = grad_u.reshape(-1, grad_u.shape[2])
    for m in range(1, u.indices.max_dimension() + 1):
        G = assemble_coupling(u.indices, u.indices, m)
        if G.nnz:
            res -= tested(hat_terms(m)[0], (G @ flat.T).T.reshape(grad_u.shape))
    diag = per_midpoint(w0[:, :, None] * (grads**2).sum(axis=3))

    # scatter the two triangles' contributions to each z in N+
    position = overlay.triangle_nplus[rows, (r + _MIDPOINT_EDGE) % 3].ravel()
    keep = position >= 0
    position = position[keep]

    def gather(values):
        return np.bincount(position, weights=values[keep], minlength=overlay.num_new)

    res = res.reshape(3 * nt, -1)
    num = sum(gather(res[:, k]) ** 2 for k in range(res.shape[1]))
    return np.sqrt(num / gather(diag.ravel()))


def parametric_indicators(
    u: GalerkinSolution,
    detail: IndexSet,
    spec: ProblemSpec,
    quad_order: int = 5,
) -> np.ndarray:
    """Hierarchical indicators eta(nu) for all nu in `detail`, in set order.

    For each detail index, the mean-field Galerkin problem
    A_0 e = r_nu is solved on the current mesh and eta(nu)^2 = e . r_nu.
    """
    if len(detail) == 0:
        return np.zeros(0)
    n_modes = max(u.indices.max_dimension(), detail.max_dimension())
    system = u.system
    if system is not None and system.n_modes >= n_modes:
        A = system.A
        a0_solver = system.a0_solver
    else:
        A = [
            assemble_stiffness(u.mesh, spec.coefficient(m), quad_order)
            for m in range(n_modes + 1)
        ]
        from scipy.sparse.linalg import splu

        a0_solver = splu(A[0].tocsc())

    # residual r[z, nu] = -B(u, phi_z P_nu); the load vanishes off the zero index
    R = np.zeros((u.coeffs.shape[0], len(detail)))
    for m in range(1, n_modes + 1):
        G = assemble_coupling(u.indices, detail, m)
        if G.nnz:
            R -= A[m] @ (G.T @ u.coeffs.T).T
    E = a0_solver.solve(R)
    return np.sqrt(np.maximum((E * R).sum(axis=0), 0.0))


@dataclass(frozen=True)
class ErrorIndicators:
    """Per-vertex spatial and per-index parametric indicators with totals.

    ``spatial[i]`` belongs to the i-th member of ``overlay.nplus_edges``;
    ``parametric[j]`` to the j-th member of ``detail``.
    """

    spatial: np.ndarray
    parametric: np.ndarray
    overlay: TwoLevelOverlay | None = None
    detail: IndexSet | None = None

    @cached_property
    def eta_spatial(self) -> float:
        return math.sqrt(float((self.spatial**2).sum()))

    @cached_property
    def eta_parametric(self) -> float:
        return math.sqrt(float((self.parametric**2).sum()))

    @cached_property
    def eta(self) -> float:
        return math.sqrt(self.eta_spatial**2 + self.eta_parametric**2)

    def spatial_subset_sq(self, positions) -> float:
        """Squared aggregate over a subset of N+ positions."""
        positions = np.asarray(list(positions), dtype=np.int64)
        if positions.size == 0:
            return 0.0
        return float((self.spatial[positions] ** 2).sum())

    def parametric_subset_sq(self, positions) -> float:
        positions = np.asarray(list(positions), dtype=np.int64)
        if positions.size == 0:
            return 0.0
        return float((self.parametric[positions] ** 2).sum())

