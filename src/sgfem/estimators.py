"""Two-level spatial and hierarchical parametric a posteriori estimators.

Spatial indicators test the residual of the current solution against the hat
functions of the uniformly refined mesh at the new interior vertices N+ (the
midpoints of interior edges, numbered by the mesh: ``Mesh.interior_edge_ids``
and ``Mesh.triangle_nplus``); the scaling is the corresponding diagonal entry
of the mean-field stiffness on the refined mesh.  Both are computed element
by element on the current mesh, without building the refined one: the hat of
an edge midpoint lives on the children of the two triangles next to that
edge, and the solution's gradient is constant on each triangle.  The mesh
module owns the children's layout; the sum over N+ reads the midpoints'
positions from ``Mesh.midpoint_nplus``.  Parametric
indicators solve one mean-field problem per detail index for the residual
component in that direction, in SuperLU calls of four columns, which up to
12k free nodes wake no OpenBLAS thread.  Both contract the solution with G_m
through the coupling's index-major plans (``Coupling.plan``), on P x P in
the spatial residual and on P x Q in the parametric one, as
``TensorSystem.apply`` does.  The spatial residual has no sparse product:
the gradients of u as (#indices, 2, triangles), the residual as (#indices,
3, triangles), and the coupling gathers, the per-mode subtractions and the
per-index sums over N+ read contiguous rows.  The parametric residual is
the operator's kernel ``accumulate`` on P x Q, run into zeros.

Both take the system of the solution's space and read its per-mesh operator
and coupling, which the loop keeps across levels: the coarse gradients, the
child terms of a mode and the stiffness matrix of a detail direction are
built once per mesh (the child terms of a triangle that refinement kept are
copied from the operator of the mesh one step coarser), the coupling passes
and plans once per index set, the detail set with them.  A solution of
another space, or a coupling without a detail set for the parametric
indicators, raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .galerkin import (
    GalerkinSolution,
    TensorSystem,
    accumulate,
    assemble_stiffness,  # noqa: F401 -- perfbench's tracer wraps this name
    gather,
)
from .indices import ZERO

__all__ = [
    "ErrorIndicators",
    "spatial_indicators",
    "parametric_indicators",
    "K_OVERLAP",
]

# hat supports of new interior vertices overlap each coarse triangle at most
# three times in 2D (one per interior edge)
K_OVERLAP = 3


def _check_space(system: TensorSystem, u: GalerkinSolution) -> None:
    if u.mesh is not system.mesh or u.indices != system.indices:
        raise ValueError("solution of another space than the system's; prolong first")


def spatial_indicators(system: TensorSystem, u: GalerkinSolution) -> np.ndarray:
    """Two-level indicators eta(z) for all z in N+ of the system's mesh, in
    N+ order, of a solution `u` in the system's space.

    eta(z)^2 = sum_nu r(z, nu)^2 / B_0(phi_z, phi_z), where r(z, nu) is the
    residual of u tested against phi_z P_nu and phi_z is the hat of z on the
    uniformly refined mesh.  Each coarse triangle contributes the integrals
    over its four children (with the same quadrature as the stiffness
    assembly, kept by the mesh operator) for the midpoints of its interior
    edges; the contributions are summed per z.
    """
    _check_space(system, u)
    mesh, operator = system.mesh, system.operator

    def tested(terms, g):
        """Contract (nt, 3, 2) hat terms with (k, 2, nt) gradients into
        (k, 3, nt)."""
        t = np.ascontiguousarray(terms.transpose(2, 1, 0))
        return t[0] * g[:, 0, None] + t[1] * g[:, 1, None]

    # gradient of u per index and coarse triangle, (#indices, 2, nt)
    grads = operator.pattern.grads
    grad_u = np.einsum("tjd,tjk->tdk", grads, u.vertex_values()[mesh.triangles])
    grad_u = np.ascontiguousarray(grad_u.transpose(2, 1, 0))

    terms, diagonal, load = operator.child_terms(u.indices.max_dimension())
    res = np.zeros((len(u.indices), 3, mesh.num_triangles))
    if ZERO in u.indices:
        res[u.indices.position(ZERO)] = load.T
    res -= tested(terms[0], grad_u)
    rows = grad_u.reshape(grad_u.shape[0], -1)
    for m, targets, passes in system.coupling.plan():
        g = gather(rows, passes).reshape((-1,) + grad_u.shape[1:])
        res[targets] -= tested(terms[m], g)

    # scatter the two triangles' contributions to each z in N+, midpoint
    # slot by midpoint slot; two addends sum alike in either order
    position = mesh.midpoint_nplus.T.ravel()
    keep = position >= 0
    position = position[keep]
    num_new = mesh.interior_edge_ids.size

    def scattered(values):
        return np.bincount(position, weights=values[keep], minlength=num_new)

    res = res.reshape(res.shape[0], -1)
    num = sum(scattered(r) ** 2 for r in res)
    return np.sqrt(num / scattered(diagonal.T.ravel()))


def parametric_indicators(system: TensorSystem, u: GalerkinSolution) -> np.ndarray:
    """Hierarchical indicators eta(nu) for all nu in the detail set of the
    system's coupling, in set order, of a solution `u` in the system's
    space.

    For each detail index, the mean-field Galerkin problem
    A_0 e = r_nu is solved on the current mesh and eta(nu)^2 = e . r_nu.
    """
    _check_space(system, u)
    detail = system.coupling.detail
    if detail is None:
        raise ValueError("the system's coupling was built without a detail set")
    if len(detail) == 0:
        return np.zeros(0)
    # the residual r[z, nu] = -B(u, phi_z P_nu), the load vanishing off the
    # zero index, accumulated index-major with the opposite sign: e.r does
    # not depend on it
    RT = np.zeros((len(detail), u.coeffs.shape[0]))
    accumulate(RT, np.ascontiguousarray(u.coeffs.T), system.coupling.plan(detail=True),
               system.operator.stiffness)
    R = RT.T
    # E is C-ordered, and so is the product: its column sums add row after
    # row, whatever the size of R
    E = system.operator.solve_blocks(R)
    return np.sqrt(np.maximum(np.multiply(E, R, order="C").sum(axis=0), 0.0))


@dataclass(frozen=True)
class ErrorIndicators:
    """Per-vertex spatial and per-index parametric indicators with totals.

    ``spatial[i]`` belongs to N+ position i of the estimated mesh (the
    midpoint of its edge ``interior_edge_ids[i]``); ``parametric[j]`` to
    the j-th member of the detail set.
    """

    spatial: np.ndarray
    parametric: np.ndarray

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

