"""Marking kernels and the four composite refinement criteria.

Two kernels ship: minimal-cardinality bulk marking (greedy on descending
indicator values) and threshold marking relative to the maximum.  The four
criteria combine them and decide, per iteration, between mesh refinement and
parametric enrichment:

  A: dominant contributing estimate; bulk marking in both components.
  B: dominant error reduction (trial spatial refinement); bulk in both.
  C: like A, with threshold marking in the parameter domain.
  D: like B, with threshold marking in the parameter domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import ErrorIndicators
from .mesh import Mesh, realized, refine

__all__ = [
    "MarkingParams",
    "MarkingDecision",
    "doerfler",
    "maximum_mark",
    "decide",
    "CRITERIA",
]

CRITERIA = ("A", "B", "C", "D")


@dataclass(frozen=True)
class MarkingParams:
    """Marking parameters: bulk fractions for both components and the weight
    steering the choice between refinement types (values above one favor
    parametric enrichment)."""

    theta_x: float = 0.5
    theta_p: float = 0.5
    vartheta: float = 1.0

    def validate(self, criterion: str) -> None:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
        if not 0.0 < self.theta_x <= 1.0:
            raise ValueError("theta_x must lie in (0, 1]")
        if criterion in ("A", "B"):
            if not 0.0 < self.theta_p <= 1.0:
                raise ValueError(f"theta_p must lie in (0, 1] for criterion {criterion}")
        else:
            if not 0.0 <= self.theta_p <= 1.0:
                raise ValueError(f"theta_p must lie in [0, 1] for criterion {criterion}")
        if not (math.isfinite(self.vartheta) and self.vartheta > 0.0):
            raise ValueError("vartheta must be finite and positive")


@dataclass(frozen=True)
class MarkingDecision:
    """Outcome of a marking step: exactly one nonempty marked set, or
    termination when the estimate vanishes.  Criteria B and D build the
    refinement of the mesh by ``spatial_marked`` to decide; a spatial
    decision carries it as ``refined``."""

    kind: str  # "spatial" | "parametric" | "terminate"
    spatial_marked: tuple[int, ...] = ()
    parametric_marked: tuple[int, ...] = ()
    refined: Mesh | None = None


def doerfler(values: np.ndarray, theta: float) -> list[int]:
    """Minimal-cardinality position set capturing a theta^2 fraction of the
    squared total; greedy on descending values, ties broken by smaller id.

    theta = 1 marks every nonzero entry.  For theta < 1 the greedy prefix
    stops at the first length k with theta^2 * tail_k <= (1 - theta^2) *
    head_k, where head_k and tail_k are the squared sums of the first k and
    of the remaining entries.  Deciding from the tail (summed from the small
    end, squares taken after scaling by the largest value) keeps tiny
    entries from vanishing against the head or underflowing to zero."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    values = np.asarray(values, dtype=np.float64)
    peak = float(np.abs(values).max()) if values.size else 0.0
    if peak == 0.0:
        return []
    order = np.lexsort((np.arange(values.size), -values))
    if theta == 1.0:
        chosen = order[values[order] != 0.0]
    else:
        sq = (values[order] / peak) ** 2
        head = np.cumsum(sq)
        tail = np.append(np.cumsum(sq[:0:-1])[::-1], 0.0)
        # 1 - theta*theta, not (1 - theta)(1 + theta): the marking must meet
        # the bound that _check_weak_marking_bulk computes, and for theta
        # near 1 the two differ by more than the check's slack
        theta_sq = theta * theta
        stop = theta_sq * tail <= (1.0 - theta_sq) * head
        chosen = order[: int(np.argmax(stop)) + 1]
    marked = chosen.tolist()
    _check_weak_marking_bulk(values, marked, theta)
    return marked


def maximum_mark(values: np.ndarray, theta_p: float) -> list[int]:
    """Positions with value within (1 - theta_p) of the largest one."""
    if not 0.0 <= theta_p <= 1.0:
        raise ValueError("theta_p must lie in [0, 1]")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return []
    threshold = (1.0 - theta_p) * float(values.max())
    marked = [int(i) for i in np.flatnonzero(values >= threshold)]
    _check_weak_marking_max(values, marked, theta_p)
    return marked


def _aggregate(values: np.ndarray, marked) -> float:
    if not marked:
        return 0.0
    # l2 norm of the marked entries; scale to guard against underflow of
    # the squares for subnormal indicator values
    sub = values[np.asarray(marked)]
    peak = float(np.abs(sub).max())
    if peak == 0.0:
        return 0.0
    return peak * math.sqrt(float(((sub / peak) ** 2).sum()))


def _check_weak_marking_bulk(values, marked, theta) -> None:
    # unmarked values are controlled by the marked aggregate
    if values.size == 0 or len(marked) == values.size:
        return
    unmarked_max = float(np.delete(values, marked).max()) if marked else float(values.max())
    bound = math.sqrt(max(1.0 - theta * theta, 0.0)) / theta * _aggregate(values, marked)
    if unmarked_max > bound * (1.0 + 1e-12) + 1e-300:
        raise AssertionError(
            f"bulk weak-marking property violated: {unmarked_max} > {bound}"
        )


def _check_weak_marking_max(values, marked, theta_p) -> None:
    if values.size == 0 or len(marked) == values.size:
        return
    unmarked_max = float(np.delete(values, marked).max())
    bound = (1.0 - theta_p) * _aggregate(values, marked)
    if unmarked_max > bound * (1.0 + 1e-12):
        raise AssertionError(
            f"maximum weak-marking property violated: {unmarked_max} > {bound}"
        )


def decide(
    criterion: str,
    indicators: ErrorIndicators,
    params: MarkingParams,
    mesh: Mesh,
) -> MarkingDecision:
    """Run one of the four marking criteria on the indicators of `mesh`."""
    params.validate(criterion)
    eta_x = indicators.eta_spatial
    eta_q = indicators.eta_parametric
    if eta_x == 0.0 and eta_q == 0.0:
        return MarkingDecision(kind="terminate")

    if criterion in ("A", "C"):
        if params.vartheta * eta_q <= eta_x:
            marked = doerfler(indicators.spatial, params.theta_x)
            return MarkingDecision(kind="spatial", spatial_marked=tuple(marked))
        if criterion == "A":
            marked = doerfler(indicators.parametric, params.theta_p)
        else:
            marked = maximum_mark(indicators.parametric, params.theta_p)
        return MarkingDecision(kind="parametric", parametric_marked=tuple(marked))

    # criteria B and D: compare the estimated error reduction of a trial
    # spatial refinement against the marked parametric aggregate
    if criterion == "B":
        trial_param = doerfler(indicators.parametric, params.theta_p)
    else:
        trial_param = maximum_mark(indicators.parametric, params.theta_p)
    trial_spatial = doerfler(indicators.spatial, params.theta_x)
    trial = refine(mesh, trial_spatial)
    eta_trial_param = _aggregate(indicators.parametric, trial_param)
    eta_realized = math.sqrt(indicators.spatial_subset_sq(realized(mesh, trial)))
    if params.vartheta * eta_trial_param <= eta_realized:
        return MarkingDecision(kind="spatial", spatial_marked=tuple(trial_spatial),
                               refined=trial)
    return MarkingDecision(kind="parametric", parametric_marked=tuple(trial_param))
