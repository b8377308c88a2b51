import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

from sgfem import (
    ErrorIndicators,
    GalerkinSolution,
    IndexSet,
    K_OVERLAP,
    MultiIndex,
    TensorSystem,
    ZERO,
    detail_index_set,
    initial_lshape,
    lshape_benchmark,
    parametric_indicators,
    refine,
    solve,
    spatial_indicators,
    uniform_refine,
    unit_index,
    unit_square,
)

import sgfem
import sgfem.mesh
from sgfem import galerkin
from sgfem.galerkin import Coupling, MeshOperator

import oracles
from conftest import tensor_system


@pytest.fixture(scope="module")
def spec():
    return lshape_benchmark()


@pytest.fixture(scope="module")
def mesh1():
    return uniform_refine(initial_lshape())


@pytest.fixture(scope="module")
def solved(mesh1, spec):
    P = IndexSet([ZERO, unit_index(1)])
    Q = detail_index_set(P)
    system = tensor_system(mesh1, P, spec, Q)
    return system, solve(system, tol=1e-12), P, Q


@pytest.fixture(scope="module")
def large_system(spec):
    """A system above the pool's gate: the L-shape refined five times
    uniformly (2945 free nodes) x 24 indices."""
    mesh = initial_lshape()
    for _ in range(5):
        mesh = uniform_refine(mesh)
    system = tensor_system(mesh, random_downward_closed(5, 24), spec)
    assert system.num_dof >= galerkin.PARALLEL_DOFS
    return system


@pytest.fixture
def pool_workers(monkeypatch):
    """Sets the pool's size for one test; the pool is started again at that
    size."""

    def set_workers(n):
        monkeypatch.setattr(galerkin, "_WORKERS", n)
        monkeypatch.setattr(galerkin, "_pool", None)

    return set_workers


def full_width(coupling, m, detail=False, within=slice(None)):
    """``Coupling.coupled_columns`` that keeps every mode full width."""
    return within


def coupled_counts(coupling, detail=False):
    """How many modes of G_m on P x P (on P x Q with ``detail``) are worked
    on their coupled columns alone, and how many full width."""
    width = coupling.indices.max_dimension()
    if detail:
        width = max(width, coupling.detail.max_dimension())
    full = [isinstance(coupling.coupled_columns(m, detail), slice) for m in range(1, width + 1)]
    return full.count(False), full.count(True)


class TestSpatialIndicators:
    def test_matches_dense_residual_oracle(self, solved, spec):
        system, u, P, _ = solved
        got = spatial_indicators(system, u)

        fine = uniform_refine(u.mesh)
        n_modes = P.max_dimension()
        A_hat = [
            oracles.dense_stiffness(fine, spec.coefficient(m), quad_n=6)
            for m in range(n_modes + 1)
        ]
        Pr = oracles.prolongation_matrix(u.mesh, fine).toarray()
        U1 = Pr @ u.coeffs
        R = np.zeros_like(U1)
        R[:, 0] = oracles.dense_load_one(fine)
        for m in range(n_modes + 1):
            for a, nu in enumerate(P):
                for b, mu in enumerate(P):
                    g = (1.0 if nu == mu else 0.0) if m == 0 else oracles.param_moment(nu, mu, m)
                    if abs(g) > 1e-14:
                        R[:, a] -= g * (A_hat[m] @ U1[:, b])
        rows = fine.free_index[oracles.nplus_vertices(u.mesh)]
        want = np.sqrt((R[rows] ** 2).sum(axis=1) / A_hat[0].diagonal()[rows])
        # residuals involve cancellation, so the 7-point rule and the dense
        # oracle rule agree on the indicators only to the quadrature error
        assert np.allclose(got, want, atol=2e-5)
        assert got.shape == (u.mesh.interior_edge_ids.size,)
        assert np.all(got >= 0)

    def test_enhanced_solution_residual_vanishes_on_nplus(self, mesh1, spec):
        P = IndexSet([ZERO, unit_index(1)])
        Q = detail_index_set(P)
        fine = uniform_refine(mesh1)
        hat = oracles.solve_enhanced(mesh1, P, Q, spec, tol=1e-13, fine=fine)
        system = hat.system
        x = system.join(hat.fine_coeffs, hat.detail_coeffs)
        b = system.join(system.load_fine, np.zeros(system.shape2))
        res1, _ = system.split(b - system.apply(x))
        rows = fine.free_index[oracles.nplus_vertices(mesh1)]
        scale = np.abs(system.load_fine).max()
        assert np.max(np.abs(res1[rows])) < 1e-10 * scale


def nvb_chain(mesh, steps, seed):
    """Meshes along a random NVB refinement chain starting at `mesh`."""
    rng = np.random.default_rng(seed)
    chain = []
    for _ in range(steps):
        num_new = mesh.interior_edge_ids.size
        k = int(rng.integers(1, max(2, num_new // 2)))
        mesh = refine(mesh, rng.choice(num_new, size=k, replace=False))
        chain.append(mesh)
    return chain


def random_downward_closed(seed, size, max_dim=8, max_degree=None):
    """A random downward-closed index set of `size` members in at most
    `max_dim` parameter dimensions (and of degree at most `max_degree` in
    each), grown one admissible index at a time, each along a dimension drawn
    uniformly where it can grow."""
    rng = np.random.default_rng(seed)
    P = IndexSet([ZERO])
    while len(P) < size:
        candidates = [
            nu for nu in detail_index_set(P)
            if nu.support[-1] <= max_dim
            and (max_degree is None or max(d for _, d in nu.pairs) <= max_degree)
            and all(oracles.bump(nu, k, -1) in P for k in nu.support)
        ]
        m = rng.choice(sorted({k for nu in candidates for k in nu.support}))
        candidates = [nu for nu in candidates if m in nu.support]
        P = P.union([candidates[rng.integers(len(candidates))]])
    return P


# four active dimensions and a second-degree coupling
RICH_INDICES = IndexSet(
    [
        ZERO,
        unit_index(1),
        unit_index(2),
        unit_index(3),
        unit_index(4),
        unit_index(1, 2),
        MultiIndex([(1, 1), (2, 1)]),
    ]
)


def wavy_rhs(x):
    return np.exp(x[..., 0]) * np.cos(3.0 * x[..., 1]) + 0.5


class TestElementLocalEstimator:
    """The element-local estimator against the fine-mesh residual oracle."""

    @pytest.mark.parametrize("start", [initial_lshape, unit_square])
    @pytest.mark.parametrize("seed", [1, 2, 5])
    @pytest.mark.parametrize("rhs", [None, wavy_rhs])
    def test_matches_fine_mesh_oracle_on_nvb_chains(self, start, seed, rhs):
        spec = dataclasses.replace(lshape_benchmark(), rhs=rhs)
        rng = np.random.default_rng(seed)
        for mesh in nvb_chain(start(), 7, seed=seed):
            u = GalerkinSolution(
                mesh=mesh,
                indices=RICH_INDICES,
                coeffs=rng.standard_normal((mesh.free_nodes.size, len(RICH_INDICES))),
            )
            got = spatial_indicators(tensor_system(mesh, RICH_INDICES, spec), u)
            want = oracles.fine_mesh_spatial_indicators(u, spec)
            assert got.shape == (mesh.interior_edge_ids.size,)
            if want.size:
                assert np.abs(got - want).max() <= 1e-12 * want.max()

    def test_matches_oracle_at_galerkin_solution(self, spec):
        # the residual of a Galerkin solution cancels most of the load, the
        # least favourable case for agreement to rounding
        P = IndexSet([ZERO, unit_index(1), unit_index(2), unit_index(3)])
        for mesh in nvb_chain(initial_lshape(), 6, seed=11)[2:]:
            system = tensor_system(mesh, P, spec)
            u = solve(system, tol=1e-12)
            got = spatial_indicators(system, u)
            want = oracles.fine_mesh_spatial_indicators(u, spec)
            assert np.abs(got - want).max() <= 1e-12 * want.max()

    def test_nonconstant_mean_field(self):
        spec = dataclasses.replace(
            lshape_benchmark(),
            a0=lambda x: 1.0 + 0.5 * x[..., 0] ** 2,
            a0_max=1.5,
            rhs=wavy_rhs,
        )
        mesh = nvb_chain(initial_lshape(), 5, seed=5)[-1]
        u = GalerkinSolution(
            mesh=mesh,
            indices=RICH_INDICES,
            coeffs=np.random.default_rng(5).standard_normal(
                (mesh.free_nodes.size, len(RICH_INDICES))
            ),
        )
        got = spatial_indicators(tensor_system(mesh, RICH_INDICES, spec), u)
        want = oracles.fine_mesh_spatial_indicators(u, spec)
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    def test_builds_no_fine_mesh(self, solved, monkeypatch):
        system, u, _, _ = solved

        def forbidden(*args):
            raise AssertionError("the spatial estimator bisected a mesh")

        monkeypatch.setattr(sgfem.mesh, "_bisect", forbidden)
        assert spatial_indicators(system, u).size == u.mesh.interior_edge_ids.size


class TestParametricIndicators:
    def test_matches_dense_oracle(self, solved, spec):
        system, u, P, Q = solved
        got = parametric_indicators(system, u)
        A = [
            oracles.dense_stiffness(u.mesh, spec.coefficient(m), quad_n=6)
            for m in range(3)
        ]
        want = np.empty(len(Q))
        for j, mu in enumerate(Q):
            r = np.zeros(u.coeffs.shape[0])
            for m in (1, 2):
                for b, nu in enumerate(P):
                    g = oracles.param_moment(nu, mu, m)
                    if abs(g) > 1e-14:
                        r -= g * (A[m] @ u.coeffs[:, b])
            e = np.linalg.solve(A[0], r)
            want[j] = math.sqrt(max(float(e @ r), 0.0))
        assert np.allclose(got, want, atol=2e-5)

    def test_deterministic_problem_gives_zero(self, mesh1):
        spec0 = lshape_benchmark(tau=0.0)
        P = IndexSet()
        Q = detail_index_set(P)
        system = tensor_system(mesh1, P, spec0, Q)
        eta = parametric_indicators(system, solve(system, tol=1e-12))
        assert np.allclose(eta, 0.0, atol=1e-14)

    def test_empty_detail_set(self, solved):
        system, u, P, _ = solved
        empty = IndexSet([], require_zero=False)
        system = TensorSystem(system.operator, Coupling(P, empty))
        assert parametric_indicators(system, u).size == 0


class TestCopyFreeProducts:
    """Both estimators equal the node-major estimators on the transposed
    coupling products that the gather passes replaced, to the bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_indicators_equal_transposed_products(self, spec, seed):
        mesh = nvb_chain(initial_lshape(), 4, seed=20 + seed)[-1]
        P = random_downward_closed(seed, 10 + 8 * seed)
        Q = detail_index_set(P)
        system = tensor_system(mesh, P, spec, Q)
        coeffs = np.random.default_rng(seed).standard_normal(system.shape)
        u = GalerkinSolution(mesh=mesh, indices=P, coeffs=coeffs)
        product = oracles.transposed_coupling_product
        assert np.array_equal(spatial_indicators(system, u),
                              oracles.node_major_spatial_indicators(system, u, product))
        assert np.array_equal(parametric_indicators(system, u),
                              oracles.node_major_parametric_indicators(system, u, product))


class TestIndexMajorResidual:
    """The spatial estimator keeps the gradients and the residual index-major
    and gathers the coupling along rows; it equals the node-major estimator
    it replaced, kept in ``oracles``, to the bit."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("rhs", [None, wavy_rhs])
    def test_equals_node_major(self, spec, seed, rhs):
        spec = dataclasses.replace(spec, rhs=rhs)
        rng = np.random.default_rng(seed)
        P = random_downward_closed(seed, 6 + 7 * seed)
        for mesh in nvb_chain(initial_lshape(), 5, seed=40 + seed)[1::2]:
            coeffs = rng.standard_normal((mesh.free_nodes.size, len(P)))
            u = GalerkinSolution(mesh=mesh, indices=P, coeffs=coeffs)
            system = tensor_system(mesh, P, spec)
            want = oracles.node_major_spatial_indicators(system, u)
            assert want.shape == (mesh.interior_edge_ids.size,)
            assert np.array_equal(spatial_indicators(system, u), want)
            # on another operator and coupling of the same space
            assert np.array_equal(spatial_indicators(tensor_system(mesh, P, spec), u), want)

    @pytest.mark.parametrize("seed, size", [(0, 12), (1, 18), (2, 30), (5, 24)])
    def test_sparse_and_dense_modes(self, spec, seed, size):
        mesh = nvb_chain(initial_lshape(), 4, seed=50 + seed)[-1]
        P = random_downward_closed(seed, size)
        system = tensor_system(mesh, P, spec)
        assert all(coupled_counts(system.coupling))
        coeffs = np.random.default_rng(seed).standard_normal(system.shape)
        u = GalerkinSolution(mesh=mesh, indices=P, coeffs=coeffs)
        assert np.array_equal(spatial_indicators(system, u),
                              oracles.node_major_spatial_indicators(system, u))

    def test_at_galerkin_solution(self, spec):
        mesh = nvb_chain(initial_lshape(), 5, seed=13)[-1]
        system = tensor_system(mesh, random_downward_closed(4, 9), spec)
        u = solve(system, tol=1e-12)
        assert np.array_equal(spatial_indicators(system, u),
                              oracles.node_major_spatial_indicators(system, u))

    @pytest.mark.parametrize("seed, size, detail_size",
                             [(0, 12, None), (1, 18, 6), (2, 30, 6), (5, 24, None)])
    def test_parametric_equals_node_major(self, spec, seed, size, detail_size):
        # the index-major residual has the opposite sign of the node-major
        # one; the indicators are the same to the bit
        mesh = nvb_chain(initial_lshape(), 4, seed=60 + seed)[-1]
        P = random_downward_closed(seed, size)
        Q = detail_index_set(P)
        if detail_size is not None:
            Q = IndexSet(Q.members[:detail_size], require_zero=False)
        coeffs = np.random.default_rng(seed).standard_normal((mesh.free_nodes.size, len(P)))
        u = GalerkinSolution(mesh=mesh, indices=P, coeffs=coeffs)
        system = tensor_system(mesh, P, spec, Q)
        want = oracles.node_major_parametric_indicators(system, u)
        assert want.shape == (len(Q),) and want.any()
        assert np.array_equal(parametric_indicators(system, u), want)
        # on another operator and coupling of the same space
        assert np.array_equal(parametric_indicators(tensor_system(mesh, P, spec, Q), u), want)


class TestModeSparse:
    """Both estimators multiply a mode that couples at most half of the
    columns on those columns alone: the same indicators, to the bit, as with
    every mode full width."""

    @pytest.mark.parametrize("seed, size, detail_size",
                             [(0, 12, None), (1, 18, 6), (2, 30, 6), (5, 24, None)])
    def test_equals_full_width(self, spec, seed, size, detail_size, monkeypatch):
        mesh = nvb_chain(initial_lshape(), 4, seed=30 + seed)[-1]
        P = random_downward_closed(seed, size)
        Q = detail_index_set(P)
        if detail_size is not None:
            Q = IndexSet(Q.members[:detail_size], require_zero=False)
        coupling = Coupling(P, Q)
        # some modes couple at most half of the columns, some more
        assert all(coupled_counts(coupling))
        if detail_size is not None:
            assert all(coupled_counts(coupling, detail=True))
        system = TensorSystem(MeshOperator(mesh, spec), coupling)
        coeffs = np.random.default_rng(seed).standard_normal(system.shape)
        u = GalerkinSolution(mesh=mesh, indices=P, coeffs=coeffs)
        got = spatial_indicators(system, u), parametric_indicators(system, u)
        assert np.array_equal(got[0], oracles.node_major_spatial_indicators(system, u))
        assert np.array_equal(got[1], oracles.node_major_parametric_indicators(system, u))
        monkeypatch.setattr(Coupling, "coupled_columns", full_width)
        # a fresh coupling: a coupling keeps the plans it has built
        wide = TensorSystem(system.operator, Coupling(P, Q))
        plan = wide.coupling.plan(detail=True)
        assert all(isinstance(targets, slice) for _, targets, _ in plan)
        want = spatial_indicators(wide, u), parametric_indicators(wide, u)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_pool_equals_full_width(self, large_system, spec, pool_workers, monkeypatch):
        P = large_system.indices
        Q = detail_index_set(P)
        coeffs = np.random.default_rng(7).standard_normal(large_system.shape)
        u = GalerkinSolution(mesh=large_system.mesh, indices=P, coeffs=coeffs)
        pool_workers(2)
        got = parametric_indicators(TensorSystem(large_system.operator, Coupling(P, Q)), u)
        monkeypatch.setattr(Coupling, "coupled_columns", full_width)
        monkeypatch.setattr(galerkin, "PARALLEL_DOFS", math.inf)
        # a fresh coupling, with plans that see the patch
        wide = TensorSystem(large_system.operator, Coupling(P, Q))
        assert all(isinstance(targets, slice) for _, targets, _ in wide.coupling.plan(detail=True))
        assert np.array_equal(got, parametric_indicators(wide, u))


class TestColumnPool:
    """Above the gate the A_0 solves of the parametric estimator run in
    column blocks on the pool: the same indicators as the serial path, to
    the bit, whatever the number of workers."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_serial_path(self, large_system, pool_workers, monkeypatch, workers):
        P = large_system.indices
        Q = detail_index_set(P)
        assert large_system.shape[0] * len(Q) >= galerkin.PARALLEL_DOFS
        system = TensorSystem(large_system.operator, Coupling(P, Q))
        coeffs = np.random.default_rng(workers).standard_normal(system.shape)
        u = GalerkinSolution(mesh=system.mesh, indices=P, coeffs=coeffs)
        pool_workers(workers)
        got = parametric_indicators(system, u)
        assert galerkin._pool is not None
        monkeypatch.setattr(galerkin, "PARALLEL_DOFS", math.inf)
        assert np.array_equal(got, parametric_indicators(system, u))


class TestReuse:
    def test_kept_operator_and_coupling_give_fresh_indicators(self, spec):
        mesh = nvb_chain(initial_lshape(), 4, seed=3)[-1]
        P = IndexSet([ZERO, unit_index(1), unit_index(2), unit_index(1, 2)])
        Q = detail_index_set(P)
        operator, coupling = MeshOperator(mesh, spec), Coupling(P, Q)
        system = TensorSystem(operator, coupling)
        u = solve(system, tol=1e-12)
        fresh = tensor_system(mesh, P, spec, Q)
        for _ in range(2):  # the second pass reads what the first one kept
            assert np.array_equal(spatial_indicators(system, u), spatial_indicators(fresh, u))
            assert np.array_equal(
                parametric_indicators(system, u), parametric_indicators(fresh, u)
            )
        # the kept operator with a coupling on another detail set (the block
        # solve may round differently with fewer right-hand sides)
        sub = IndexSet(Q.members[::2], require_zero=False)
        assert np.allclose(
            parametric_indicators(TensorSystem(operator, Coupling(P, sub)), u),
            parametric_indicators(fresh, u)[::2],
            rtol=1e-12,
            atol=0.0,
        )

    def test_geometry_and_load_built_once_per_mesh(self, spec, monkeypatch):
        mesh = nvb_chain(initial_lshape(), 4, seed=3)[-1]
        P = IndexSet([ZERO, unit_index(1), unit_index(2)])
        operator = MeshOperator(mesh, spec)
        system = TensorSystem(operator, Coupling(P))
        u = solve(system, tol=1e-12)
        first = spatial_indicators(system, u)

        def forbidden(p):
            raise AssertionError("per-mesh geometry computed again")

        patched = []
        for info in pkgutil.iter_modules(sgfem.__path__):
            module = importlib.import_module(f"sgfem.{info.name}")
            if hasattr(module, "element_geometry"):
                monkeypatch.setattr(module, "element_geometry", forbidden)
                patched.append(info.name)
        assert "galerkin" in patched
        again = TensorSystem(operator, Coupling(P))
        assert np.array_equal(again.load, system.load)
        assert np.array_equal(spatial_indicators(again, u), first)


class TestErrorIndicators:
    def test_pythagoras_totals(self):
        ind = ErrorIndicators(spatial=np.array([3.0, 4.0]), parametric=np.zeros(0))
        assert (ind.eta, ind.eta_spatial, ind.eta_parametric) == (5.0, 5.0, 0.0)

    def test_both_empty(self):
        ind = ErrorIndicators(spatial=np.zeros(0), parametric=np.zeros(0))
        assert (ind.eta, ind.eta_spatial, ind.eta_parametric) == (0.0, 0.0, 0.0)

    def test_mixed_totals(self):
        ind = ErrorIndicators(
            spatial=np.array([1.0, 2.0, 2.0]),
            parametric=np.array([2.0 * math.sqrt(2.0)] * 2),
        )
        eta, eta_x, eta_q = ind.eta, ind.eta_spatial, ind.eta_parametric
        assert (eta, eta_x, eta_q) == pytest.approx((5.0, 3.0, 4.0), abs=1e-12)
        assert eta**2 == pytest.approx(eta_x**2 + eta_q**2, abs=1e-12)

    def test_subset_aggregation(self):
        ind = ErrorIndicators(
            spatial=np.array([1.0, 2.0, 3.0]), parametric=np.array([4.0, 5.0])
        )
        assert ind.spatial_subset_sq([0, 2]) == pytest.approx(10.0)
        assert ind.spatial_subset_sq([]) == 0.0
        assert ind.parametric_subset_sq([1]) == pytest.approx(25.0)

    def test_overlap_constant(self):
        assert K_OVERLAP == 3
