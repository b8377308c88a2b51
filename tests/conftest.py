"""Shared fixtures for the test suite.

The desk-scale adaptive runs used by the acceptance tests are expensive
(tens of seconds each), so they are computed once per session here and
shared across the criteria that inspect them.
"""

import re

import pytest

from sgfem import (
    Coupling,
    MarkingParams,
    MeshOperator,
    TensorSystem,
    effectivity,
    lshape_benchmark,
    reference_solution,
    run_adaptive,
)

CRITERIA = ("A", "B", "C", "D")


def tensor_system(mesh, indices, spec, detail=None):
    """The system of (mesh, indices) on a fresh operator and a fresh
    coupling, the coupling with the detail set ``detail``."""
    return TensorSystem(MeshOperator(mesh, spec), Coupling(indices, detail))


@pytest.fixture(scope="session")
def benchmark_spec():
    return lshape_benchmark()


def criterion_runs(spec, theta_x):
    """Adaptive runs to tol 1e-2 for all four criteria, theta = (theta_x, 0.5)."""
    params = MarkingParams(theta_x=theta_x, theta_p=0.5, vartheta=1.0)
    return {crit: run_adaptive(spec, crit, params, tol=1e-2) for crit in CRITERIA}


# theta_x of the session's run sets, by fixture name
RUN_SETS = {"desk_runs": 0.5, "runs_07": 0.7}


@pytest.fixture(scope="session")
def desk_runs(benchmark_spec):
    """Adaptive runs to tol 1e-2 for all four criteria, theta = (0.5, 0.5)."""
    return criterion_runs(benchmark_spec, RUN_SETS["desk_runs"])


@pytest.fixture(scope="session")
def desk_effectivity(desk_runs):
    """Effectivity series of the desk runs.  Only the series are kept: each
    reference solution, with its system on the uniformly refined mesh, is
    freed before the next one is built."""
    return {
        crit: effectivity(trace, reference_solution(trace))
        for crit, trace in desk_runs.items()
    }


@pytest.fixture(scope="session")
def runs_07(benchmark_spec):
    """Adaptive runs to tol 1e-2 for all four criteria, theta = (0.7, 0.5)."""
    return criterion_runs(benchmark_spec, RUN_SETS["runs_07"])


_ACCEPTANCE_RE = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            match = _ACCEPTANCE_RE.search(nodeid)
            if match:
                status = "PASS" if outcome == "passed" else "FAIL"
                results[int(match.group(1))] = status
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        terminalreporter.write_line(f"acceptance criterion {num:2d}: {results[num]}")
