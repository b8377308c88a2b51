"""The adaptive solve-estimate-mark-refine loop and its diagnostics.

Each iteration solves the Galerkin system on the current (mesh, index set)
pair, computes the two-level spatial and hierarchical parametric indicators,
marks, and performs exactly one of mesh refinement or parametric enrichment.
The loop keeps the pair's ``MeshOperator`` and ``Coupling`` (with the detail
set) and hands the ``TensorSystem`` made of them to the solve, the
estimators and the energies; a solution carries no system, so the operator
or coupling that a step replaces is freed with it.  Energy identities and
the per-step error-reduction lower bound are checked online on every run.
The trace keeps the run's problem and tolerances, and the reference
solution and the effectivity series read them from it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    ErrorIndicators,
    K_OVERLAP,
    parametric_indicators,
    spatial_indicators,
)
from .galerkin import (
    Coupling,
    GalerkinSolution,
    MeshOperator,
    TensorSystem,
    b_energy,
    prolong,
    solve,
)
from .indices import IndexSet, detail_index_set
from .marking import MarkingParams, decide
from .mesh import Mesh, initial_lshape, realized, refine, uniform_refine
from .problem import ProblemSpec, contrast_bounds

__all__ = [
    "IterationRecord",
    "StepChecks",
    "AdaptiveTrace",
    "run_adaptive",
    "cumulative_cost",
    "reference_solution",
    "effectivity",
    "fit_rate",
]


@dataclass(frozen=True)
class IterationRecord:
    level: int
    refine_type: str  # enrichment performed after this iterate
    dim_x: int
    card_p: int
    n_dof: int
    eta: float
    eta_spatial: float
    eta_parametric: float
    energy_sq: float
    n_marked: int
    max_active_dim: int
    solver_iterations: int
    solver_residual: float
    wall_time: float


@dataclass(frozen=True)
class StepChecks:
    """Online diagnostics for the step from level l to l+1."""

    level: int
    energy_increment: float
    diff_energy_sq: float
    pythagoras_deviation: float
    reduction_lower_bound: float  # (lambda/K) * eta(marked and realized)^2
    reduction_ratio: float  # lower bound / diff energy


@dataclass
class AdaptiveTrace:
    spec: ProblemSpec
    criterion: str
    params: MarkingParams
    tol: float
    solver_tol: float
    records: list[IterationRecord] = field(default_factory=list)
    checks: list[StepChecks] = field(default_factory=list)
    stop_reason: str = "running"  # then "tol", "max_iter", "max_dof" or "estimator_zero"
    final_mesh: Mesh | None = None
    final_indices: IndexSet | None = None
    final_solution: GalerkinSolution | None = None

    @property
    def reached_tol(self) -> bool:
        return self.stop_reason == "tol"

    @property
    def num_levels(self) -> int:
        return len(self.records)

    def dof_series(self) -> np.ndarray:
        return np.asarray([r.n_dof for r in self.records], dtype=np.float64)

    def eta_series(self) -> np.ndarray:
        return np.asarray([r.eta for r in self.records], dtype=np.float64)


def cumulative_cost(trace: AdaptiveTrace) -> int:
    """Total degrees of freedom summed over all iterations."""
    return int(sum(r.n_dof for r in trace.records))


_CHECK_SLACK = 1e-6


def run_adaptive(
    spec: ProblemSpec,
    criterion: str = "A",
    params: MarkingParams | None = None,
    tol: float = 1e-2,
    max_iter: int = 200,
    max_dof: int = 200_000,
    solver_tol: float = 1e-10,
    mesh: Mesh | None = None,
) -> AdaptiveTrace:
    """Run the adaptive loop until the estimate drops below `tol` or a cap
    trips.  The energy identities and the per-step reduction lower bound are
    asserted online, and so are a finite energy and estimate (each raises
    AssertionError on violation); a `tol` that is not finite and positive,
    a `solver_tol` outside (0, 1), a negative `max_iter` or a `max_dof`
    below 1 raises ValueError.  With ``max_iter=0`` the loop solves and
    estimates once."""
    params = params or MarkingParams()
    params.validate(criterion)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not 0.0 < solver_tol < 1.0:
        raise ValueError(f"solver_tol must lie in (0, 1), got {solver_tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    if max_dof < 1:
        raise ValueError(f"max_dof must be positive, got {max_dof}")
    mesh = mesh if mesh is not None else initial_lshape()
    indices = IndexSet()
    lam = contrast_bounds(spec).lam
    note = f" (solver_tol {solver_tol})"

    trace = AdaptiveTrace(spec, criterion, params, tol, solver_tol)
    prev_solution: GalerkinSolution | None = None
    prev_energy: float | None = None
    pending_marked_sq: float | None = None
    level = 0
    # a step changes the mesh or the index set, never both: keep what the
    # other one determines, and replace the rest
    operator = MeshOperator(mesh, spec)
    coupling = Coupling(indices, detail_index_set(indices))

    while True:
        t0 = time.perf_counter()
        if operator.mesh is not mesh:
            # carries the estimator terms of the triangles the step kept
            operator = MeshOperator(mesh, spec, previous=operator)
        if coupling.indices is not indices:
            coupling = Coupling(indices, detail_index_set(indices))
        system = TensorSystem(operator, coupling)

        guess = None if prev_solution is None else prolong(prev_solution, system)
        solution = solve(system, tol=solver_tol, initial=guess)
        energy = solution.energy_sq
        if not math.isfinite(energy):
            raise AssertionError(f"non-finite energy at level {level}: {energy}")

        if guess is not None:
            diff = solution.coeffs - guess
            diff_energy = b_energy(system, diff, diff)
            increment = energy - prev_energy
            pyth_dev = abs(increment - diff_energy) / max(energy, 1e-300)
            lower = lam / K_OVERLAP * pending_marked_sq
            ratio = lower / diff_energy if diff_energy > 0 else math.inf
            trace.checks.append(
                StepChecks(
                    level=level - 1,
                    energy_increment=increment,
                    diff_energy_sq=diff_energy,
                    pythagoras_deviation=pyth_dev,
                    reduction_lower_bound=lower,
                    reduction_ratio=ratio,
                )
            )
            # written as not (x <= bound), so that NaN fails them
            if not (-increment <= 1e-8 * max(energy, 1.0)):
                raise AssertionError(f"energy decreased at level {level}: {increment}{note}")
            if not (pyth_dev <= _CHECK_SLACK):
                raise AssertionError(
                    f"energy orthogonality violated at level {level}: {pyth_dev}{note}")
            if not (lower <= (1.0 + _CHECK_SLACK) * diff_energy):
                raise AssertionError(
                    f"error-reduction lower bound violated at level {level}: "
                    f"{lower} > {diff_energy}{note}")

        indicators = ErrorIndicators(
            spatial=spatial_indicators(system, solution),
            parametric=parametric_indicators(system, solution),
        )
        if not math.isfinite(indicators.eta):
            raise AssertionError(f"non-finite estimate at level {level}: {indicators.eta}")

        refine_type = "final"
        n_marked = 0
        stop: str | None = None
        next_mesh = mesh
        next_indices = indices

        if indicators.eta <= tol:
            stop = "tol"
        elif level >= max_iter:
            stop = "max_iter"
        else:
            decision = decide(criterion, indicators, params, mesh)
            if decision.kind == "terminate":
                stop = "estimator_zero"
            elif decision.kind == "spatial":
                next_mesh = decision.refined
                if next_mesh is None:
                    next_mesh = refine(mesh, decision.spatial_marked)
                pending_marked_sq = indicators.spatial_subset_sq(realized(mesh, next_mesh))
                refine_type = "spatial"
                n_marked = len(decision.spatial_marked)
            else:
                next_indices = indices.union(
                    coupling.detail[i] for i in decision.parametric_marked
                )
                pending_marked_sq = indicators.parametric_subset_sq(
                    decision.parametric_marked
                )
                refine_type = "parametric"
                n_marked = len(decision.parametric_marked)

            if stop is None:
                next_dof = next_mesh.free_nodes.size * len(next_indices)
                if next_dof > max_dof:
                    stop = "max_dof"
                    refine_type = "final"

        trace.records.append(
            IterationRecord(
                level=level,
                refine_type=refine_type,
                dim_x=mesh.free_nodes.size,
                card_p=len(indices),
                n_dof=solution.num_dof,
                eta=indicators.eta,
                eta_spatial=indicators.eta_spatial,
                eta_parametric=indicators.eta_parametric,
                energy_sq=energy,
                n_marked=n_marked,
                max_active_dim=indices.max_dimension(),
                solver_iterations=solution.iterations,
                solver_residual=solution.residual,
                wall_time=time.perf_counter() - t0,
            )
        )

        if stop is not None:
            trace.stop_reason = stop
            trace.final_mesh = mesh
            trace.final_indices = indices
            trace.final_solution = solution
            return trace

        prev_solution = solution
        prev_energy = energy
        mesh = next_mesh
        indices = next_indices
        level += 1


def reference_solution(trace: AdaptiveTrace) -> GalerkinSolution:
    """Reference Galerkin solution of the run's problem, to the run's solver
    tolerance, on the uniform refinement of the final mesh with the final
    index set enlarged twice by detail sets; the reference space contains
    every space visited by the run.

    The double index enrichment keeps the reference gap meaningful at the
    last few levels, where a single enrichment is barely richer than the
    space the estimator already resolves and would inflate the effectivity
    indices there.
    """
    if trace.final_mesh is None:
        raise ValueError("trace has no final state (run did not finish)")
    fine = uniform_refine(trace.final_mesh)
    once = trace.final_indices.union(detail_index_set(trace.final_indices))
    indices = once.union(detail_index_set(once))
    system = TensorSystem(MeshOperator(fine, trace.spec), Coupling(indices))
    # the solve needs only A_m and the A_0 LU, not the tables that built them
    del system.operator.pattern, system.operator.load
    system.operator.table.clear()
    for table in ("_edge_table", "free_index"):
        vars(fine).pop(table)
    return solve(system, tol=trace.solver_tol, initial=prolong(trace.final_solution, system))


def effectivity(trace: AdaptiveTrace, u_ref: GalerkinSolution) -> list[float | None]:
    """Effectivity series: estimate over reference energy error per level.

    Entries are None where the reference gap is within the run's solver
    noise (denominator below 10 * trace.solver_tol * reference energy).
    """
    noise = 10.0 * trace.solver_tol * u_ref.energy_sq
    gaps = [u_ref.energy_sq - rec.energy_sq for rec in trace.records]
    return [None if gap <= noise else rec.eta / math.sqrt(gap)
            for rec, gap in zip(trace.records, gaps)]


def fit_rate(trace: AdaptiveTrace) -> float:
    """Least-squares slope of log(eta) against log(dof) over the trace."""
    dofs = trace.dof_series()
    etas = trace.eta_series()
    keep = (etas > 0.0) & (dofs > 0.0)
    if keep.sum() < 3:
        raise ValueError("need at least three records with positive estimates")
    x = np.log(dofs[keep])
    y = np.log(etas[keep])
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate abscissae (constant dof count)")
    return float(np.polyfit(x, y, 1)[0])
