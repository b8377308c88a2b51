"""Adaptive stochastic Galerkin FEM for affine-parametric elliptic PDEs.

Tensor-product Galerkin discretizations (P1 finite elements times Legendre
chaos), two-level spatial and hierarchical parametric error estimation, four
marking strategies, and the adaptive refinement loop, with a CLI front end.
"""

from .driver import (
    AdaptiveTrace,
    IterationRecord,
    StepChecks,
    cumulative_cost,
    effectivity,
    fit_rate,
    reference_solution,
    run_adaptive,
)
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
    SolverError,
    TensorSystem,
    assemble_stiffness,
    b_energy,
    prolong,
    solve,
)
from .indices import (
    IndexSet,
    MultiIndex,
    ZERO,
    detail_index_set,
    unit_index,
)
from .marking import MarkingDecision, MarkingParams, decide, doerfler, maximum_mark
from .mesh import (
    Mesh,
    initial_lshape,
    read_mesh,
    realized,
    refine,
    uniform_refine,
    unit_square,
    write_mesh,
)
from .problem import (
    ContrastBounds,
    ProblemSpec,
    amplitude_from_tau,
    contrast_bounds,
    coupling_coefficient,
    fourier_mode,
    lshape_benchmark,
    mode_frequencies,
)

__version__ = "0.1.0"
