"""Acceptance suite: one test per numbered criterion.

Each test exercises the released API end to end at the stated tolerance.
A per-criterion pass/fail summary is printed by the hook in conftest.py.
The heavy adaptive runs are shared session-scoped fixtures (conftest.py).
"""

import math

import numpy as np
import pytest

import oracles
from conftest import tensor_system
from sgfem import (
    IndexSet,
    contrast_bounds,
    coupling_coefficient,
    detail_index_set,
    doerfler,
    fit_rate,
    maximum_mark,
    refine,
    solve,
    spatial_indicators,
    parametric_indicators,
    ErrorIndicators,
    uniform_refine,
)
from sgfem.driver import cumulative_cost
from sgfem.mesh import initial_lshape


def test_criterion_01_orthonormality_and_coupling():
    """Chaos basis is orthonormal and couplings match quadrature moments."""
    y, w = oracles.gauss_quadrature(48)
    table = np.array([oracles.legendre_eval(n, y) for n in range(21)])
    gram = (table * w) @ table.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-12
    for n in range(1, 21):
        c = coupling_coefficient(n)
        assert c == pytest.approx(n / math.sqrt(4 * n * n - 1), abs=1e-15)
        assert c == pytest.approx(oracles.triple_moment(1, n - 1, n), abs=1e-12)


def test_criterion_02_mesh_refinement_fuzz():
    """1000 randomized refinements stay conforming with bounded angles."""
    rng = np.random.default_rng(2026)
    calls = 0
    for chain in range(20):
        mesh = initial_lshape()
        for _ in range(50):
            num_new = mesh.interior_edge_ids.size
            k = int(rng.integers(1, 4))
            marked = rng.choice(num_new, size=min(k, num_new), replace=False)
            mesh = refine(mesh, marked)
            calls += 1
            audit = oracles.mesh_audit(mesh)
            assert audit.ok, f"audit failed after {calls} refinements"
            assert audit.min_angle_deg >= 22.5 - 1e-9
    assert calls == 1000
    # identities: empty marking is the identity, full marking is uniform
    mesh = refine(initial_lshape(), [0, 3])
    assert refine(mesh, []) is mesh
    fine = uniform_refine(mesh)
    full = refine(mesh, range(mesh.interior_edge_ids.size))
    assert np.array_equal(full.triangles, fine.triangles)
    assert np.array_equal(full.vertices, fine.vertices)
    assert np.array_equal(full.ref_edge, fine.ref_edge)


def test_criterion_03_bulk_marking_exact():
    """Bulk marking is minimal and maximal against exhaustive search."""
    rng = np.random.default_rng(7)
    thetas = [round(0.1 * k, 1) for k in range(1, 11)]
    for _ in range(100):
        n = int(rng.integers(1, 13))
        values = rng.uniform(0.0, 1.0, n)
        sums = oracles.subset_sums(values**2)
        for theta in thetas:
            marked = doerfler(values, theta)
            k, best_sum = oracles.exhaustive_bulk(values, theta, sums)
            assert len(marked) == k
            got = float((values[marked] ** 2).sum())
            assert got == pytest.approx(best_sum, rel=1e-12)


def test_criterion_04_energy_orthogonality(desk_runs):
    """Nested energies satisfy the Pythagoras identity to 1e-6."""
    for crit, trace in desk_runs.items():
        assert trace.checks, f"criterion {crit}: no online checks recorded"
        for chk in trace.checks:
            assert chk.energy_increment >= -1e-10
            assert chk.pythagoras_deviation <= 1e-6, (
                f"criterion {crit}, level {chk.level}: "
                f"pythagoras deviation {chk.pythagoras_deviation}"
            )


def test_criterion_05_error_reduction_bound(desk_runs, runs_07):
    """The guaranteed per-step error reduction never exceeds the actual one."""
    for runs in (desk_runs, runs_07):
        for crit, trace in runs.items():
            for chk in trace.checks:
                assert chk.reduction_lower_bound <= (
                    1.0 + 1e-6
                ) * chk.diff_energy_sq, (
                    f"criterion {crit}, level {chk.level}: "
                    f"bound {chk.reduction_lower_bound} "
                    f"> increment {chk.diff_energy_sq}"
                )
                assert chk.reduction_ratio <= 1.0 + 1e-6


def test_criterion_06_two_sided_estimator_bounds(benchmark_spec):
    """The estimator is efficient and reliable on a uniform hierarchy."""
    spec = benchmark_spec
    lam = contrast_bounds(spec).lam
    P = IndexSet()
    Q = detail_index_set(P)
    mesh = initial_lshape()
    ratios = []
    for _ in range(5):
        mesh = uniform_refine(mesh)
        system = tensor_system(mesh, P, spec, Q)
        u = solve(system, tol=1e-12)
        hat = oracles.solve_enhanced(mesh, P, Q, spec, tol=1e-12)
        dim_hat = hat.fine_coeffs.size + hat.detail_coeffs.size
        assert dim_hat <= 20_000
        err_sq = hat.energy_sq() - u.energy_sq
        eta = ErrorIndicators(
            spatial=spatial_indicators(system, u),
            parametric=parametric_indicators(system, u),
        ).eta
        # guaranteed efficiency: (lam/3) eta^2 <= |||u_hat - u|||^2
        assert lam / 3.0 * eta**2 <= (1.0 + 1e-6) * err_sq
        ratios.append(math.sqrt(err_sq) / eta)
    # reliability in practice: err/eta stays within 20% of its mean,
    # i.e. no blow-up of the ratio under refinement
    mean = sum(ratios) / len(ratios)
    for r in ratios:
        assert abs(r - mean) <= 0.2 * mean


def test_criterion_07_convergence_rate(desk_runs):
    """All four marking criteria reach tol 1e-2 at the expected rate."""
    for crit, trace in desk_runs.items():
        assert trace.stop_reason == "tol", f"criterion {crit}: {trace.stop_reason}"
        assert trace.records[-1].eta <= 1e-2
        rate = fit_rate(trace)
        assert -0.45 <= rate <= -0.25, f"criterion {crit}: rate {rate}"


def test_criterion_08_effectivity(desk_effectivity):
    """Effectivity indices stay in [0.5, 1] and vary by less than 1.5x."""
    for crit, zetas in desk_effectivity.items():
        defined = [z for z in zetas if z is not None]
        assert len(defined) >= 5, f"criterion {crit}: too few defined indices"
        for z in defined:
            assert 0.5 <= z <= 1.0, f"criterion {crit}: zeta {z}"
        varfac = max(defined) / min(defined)
        assert varfac < 1.5, f"criterion {crit}: variation factor {varfac}"


def test_criterion_09_cost_comparability(runs_07):
    """At theta = (0.7, 0.5) all criteria cost within a factor 3."""
    costs = {}
    for crit, trace in runs_07.items():
        assert trace.stop_reason == "tol", f"criterion {crit}: {trace.stop_reason}"
        costs[crit] = cumulative_cost(trace)
    spread = max(costs.values()) / min(costs.values())
    assert spread < 3.0, f"cost spread {spread}: {costs}"


def test_criterion_10_weak_marking_bounds():
    """Both marking kernels satisfy their weak-marking inequalities."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        values = rng.uniform(0.0, 1.0, n) ** 2
        theta = float(rng.uniform(0.05, 0.95))
        marked = doerfler(values, theta)
        if marked and len(marked) < n:
            unmarked = np.delete(values, marked)
            marked_norm = math.sqrt(float((values[marked] ** 2).sum()))
            bound = math.sqrt(1.0 - theta**2) / theta * marked_norm
            assert unmarked.max() <= bound * (1 + 1e-9)
        marked = maximum_mark(values, theta)
        if marked and len(marked) < n:
            unmarked = np.delete(values, marked)
            marked_norm = math.sqrt(float((values[marked] ** 2).sum()))
            assert unmarked.max() <= (1.0 - theta) * marked_norm * (1 + 1e-9)
