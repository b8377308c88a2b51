import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from sgfem import (
    GalerkinSolution,
    IndexSet,
    MultiIndex,
    SolverError,
    TensorSystem,
    ZERO,
    assemble_stiffness,
    b_energy,
    initial_lshape,
    lshape_benchmark,
    parametric_indicators,
    prolong,
    realized,
    refine,
    solve,
    spatial_indicators,
    uniform_refine,
    unit_index,
    unit_square,
)
from scipy.sparse.linalg import splu

from sgfem import galerkin
from sgfem.galerkin import Coupling, MeshOperator, StiffnessPattern, _index_embedding, _pcg
from sgfem.indices import detail_index_set
from sgfem.mesh import Mesh, kept_triangles

import oracles
from conftest import tensor_system
from test_estimators import (  # noqa: F401 -- fixtures
    coupled_counts,
    full_width,
    large_system,
    nvb_chain,
    pool_workers,
    random_downward_closed,
)


@pytest.fixture(scope="module")
def spec():
    return lshape_benchmark()


@pytest.fixture(scope="module")
def mesh1():
    """L-mesh refined once uniformly: 5 interior vertices."""
    return uniform_refine(initial_lshape())


@pytest.fixture(scope="module")
def mesh2(mesh1):
    return uniform_refine(mesh1)


def ones(x):
    return np.ones(np.asarray(x).shape[:-1])


class TestStiffness:
    def test_reference_triangle_local_matrix(self):
        tri = Mesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            # no boundary vertex, so the free-node matrix is the local one
            boundary=np.array([False, False, False]),
            triangles=np.array([[0, 1, 2]]),
            ref_edge=np.array([0]),
        )
        A = assemble_stiffness(tri, ones).toarray()
        want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(A, want, atol=1e-14)

    def test_matches_dense_oracle_constant(self, mesh2):
        A = assemble_stiffness(mesh2, ones).toarray()
        want = oracles.dense_stiffness(mesh2, ones)
        assert np.allclose(A, want, atol=1e-13)

    def test_matches_dense_oracle_modes(self, mesh2, spec):
        for m in (1, 2, 3):
            A = assemble_stiffness(mesh2, spec.coefficient(m)).toarray()
            want = oracles.dense_stiffness(mesh2, spec.coefficient(m))
            # both use inexact element quadrature for the cosine modes; the
            # oracle rule is much more accurate, so compare loosely and
            # verify the library converges to the oracle as order grows
            assert np.allclose(A, want, atol=5e-3)

    def test_symmetry_and_mean_definiteness(self, mesh2, spec):
        A0 = assemble_stiffness(mesh2, ones).toarray()
        assert np.allclose(A0, A0.T, atol=1e-14)
        eig = np.linalg.eigvalsh(A0)
        assert eig.min() > 0


def mean_field(x):
    return 1.0 + 0.5 * x[..., 0] ** 2 - 0.25 * x[..., 1]


def same_csr(a, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


class TestPatternAssembly:
    """Pattern-and-scatter assembly against the former COO assembly."""

    @pytest.mark.parametrize("start", [initial_lshape, unit_square])
    @pytest.mark.parametrize("seed", [11, 12, 15])
    def test_matches_coo_oracle_on_nvb_chains(self, start, seed, spec):
        coefficients = [spec.coefficient(m) for m in (0, 1, 4, 9)] + [mean_field]
        for mesh in [start()] + nvb_chain(start(), 6, seed=seed):
            pattern = StiffnessPattern(mesh)
            for a in coefficients:
                got = assemble_stiffness(mesh, a, pattern=pattern)
                want = oracles.coo_assemble_stiffness(mesh, a)
                assert got.shape == want.shape
                if want.nnz:
                    assert abs(got - want).max() <= 1e-14 * abs(want).max()
                # a pattern built on the fly gives the same matrix
                fresh = assemble_stiffness(mesh, a)
                assert same_csr(got, fresh)


class TestReuse:
    """Systems on a kept operator and coupling equal freshly built ones."""

    def test_reused_operator_and_coupling_give_fresh_system(self, mesh2, spec):
        P = IndexSet([ZERO, unit_index(1), unit_index(2), unit_index(1, 2)])
        operator = MeshOperator(mesh2, spec)
        coupling = Coupling(P, detail_index_set(P))
        # filled out of order, as parametric steps and estimators do
        operator.stiffness(3)
        operator.a0_solver
        first = TensorSystem(operator, coupling)
        again = TensorSystem(operator, coupling)
        fresh = tensor_system(mesh2, P, spec)
        U = np.random.default_rng(0).standard_normal(fresh.shape)
        for system in (first, again):
            assert all(same_csr(a, b) for a, b in zip(system.A, fresh.A))
            for m in range(1, P.max_dimension() + 1):
                G = oracles.assemble_coupling(P, P, m)
                got = oracles.coupling_product(system.coupling, U, m)
                assert np.array_equal(got, (G @ U.T).T)
                assert np.array_equal(got, oracles.coupling_product(fresh.coupling, U, m))
            assert np.array_equal(system.load, fresh.load)
            assert np.array_equal(system.apply(U), fresh.apply(U))
            assert np.array_equal(system.precondition(U), fresh.precondition(U))
        assert all(a is b for a, b in zip(first.A, again.A))
        assert first.coupling is again.coupling is coupling

    def test_space_read_from_parts(self, mesh2, spec):
        P = IndexSet([ZERO, unit_index(1)])
        operator, coupling = MeshOperator(mesh2, spec), Coupling(P)
        system = TensorSystem(operator, coupling)
        assert system.mesh is mesh2 and system.spec is spec and system.indices is P
        assert system.shape == (mesh2.free_nodes.size, len(P))
        assert len(system.A) == P.max_dimension() + 1


def same_child_terms(a, b) -> bool:
    (hats_a, diagonal_a, load_a), (hats_b, diagonal_b, load_b) = a, b
    return (
        len(hats_a) == len(hats_b)
        and all(np.array_equal(x, y) for x, y in zip(hats_a, hats_b))
        and np.array_equal(diagonal_a, diagonal_b)
        and np.array_equal(load_a, load_b)
    )


@pytest.fixture
def children_rows(monkeypatch):
    """The number of triangles of each ``MeshOperator._children`` call."""
    rows = []
    children = MeshOperator._children

    def counted(self, r):
        rows.append(r.size)
        return children(self, r)

    monkeypatch.setattr(MeshOperator, "_children", counted)
    return rows


class TestCarry:
    """The operator of a refined mesh, given the operator of the mesh it is
    one step from, copies the child terms of the kept triangles; it equals
    an operator built from scratch bit for bit."""

    @staticmethod
    def step(mesh, operator, marked, children_rows, n_modes=4):
        """Refine, carry the terms over and compare with fresh ones."""
        new = refine(mesh, marked)
        del children_rows[:]
        carried = MeshOperator(new, operator.spec, previous=operator)
        terms = carried.child_terms(n_modes)
        # only the new triangles were built, and only once
        _, kept = kept_triangles(mesh, new)
        assert children_rows == [new.num_triangles - kept.size]
        fresh = MeshOperator(new, operator.spec)
        assert same_child_terms(terms, fresh.child_terms(n_modes))
        return new, carried

    @pytest.mark.parametrize("start", [initial_lshape, unit_square])
    @pytest.mark.parametrize("fraction", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_equals_fresh_along_chains(self, start, fraction, seed, spec, children_rows):
        rng = np.random.default_rng(seed + int(10 * fraction))
        mesh = start()
        operator = MeshOperator(mesh, spec)
        operator.child_terms(4)
        for _ in range(5):
            num_new = mesh.interior_edge_ids.size
            marked = rng.choice(num_new, size=max(1, int(fraction * num_new)), replace=False)
            mesh, operator = self.step(mesh, operator, marked, children_rows)

    def test_closure_heavy_markings(self, spec, children_rows):
        # grade towards the reentrant corner one edge at a time, then mark
        # single edges whose closures run through the graded region
        mesh = initial_lshape()
        operator = MeshOperator(mesh, spec)
        operator.child_terms(3)
        for _ in range(30):
            mid = mesh.vertices[mesh.edges[mesh.interior_edge_ids]].mean(axis=1)
            mesh, operator = self.step(
                mesh, operator, [int(np.argmin(np.hypot(*mid.T)))], children_rows, 3)
        # NVB halves areas exactly: some triangle is 60 bisections deep
        assert mesh.signed_areas().min() <= 0.5 * 2.0**-60
        rng = np.random.default_rng(3)
        longest = 0
        for pos in rng.choice(mesh.interior_edge_ids.size, size=8, replace=False):
            new, _ = self.step(mesh, operator, [pos], children_rows, 3)
            longest = max(longest, realized(mesh, new).size)
        assert longest > 50

    def test_predecessor_without_child_terms(self, spec, children_rows):
        mesh = refine(initial_lshape(), [0, 2])
        new = refine(mesh, [1])
        carried = MeshOperator(new, spec, previous=MeshOperator(mesh, spec))
        assert children_rows == []
        terms = carried.child_terms(2)
        assert children_rows == [new.num_triangles]
        assert same_child_terms(terms, MeshOperator(new, spec).child_terms(2))

    def test_twin_predecessor_carried(self, spec, children_rows):
        # a mesh with the very arrays of the one refined is one step from
        # the refined mesh as well, so its operator's terms are carried
        grandparent = refine(initial_lshape(), [0, 2])
        mesh = refine(grandparent, [1])
        new = refine(mesh, [3])
        twin = refine(grandparent, [1])
        previous = MeshOperator(twin, spec)
        previous.child_terms(2)
        del children_rows[:]
        carried = MeshOperator(new, spec, previous=previous)
        _, kept = kept_triangles(twin, new)
        assert kept.size > 0
        assert children_rows == [new.num_triangles - kept.size]
        assert same_child_terms(carried.child_terms(2), MeshOperator(new, spec).child_terms(2))

    def test_foreign_predecessor_ignored(self, spec, children_rows):
        grandparent = refine(initial_lshape(), [0, 2])
        mesh = refine(grandparent, [1])
        new = refine(mesh, [3])
        fresh = MeshOperator(new, spec).child_terms(2)
        for previous in (
            MeshOperator(grandparent, spec),
            MeshOperator(new, spec),
            MeshOperator(mesh, lshape_benchmark(sigma=1.5)),
        ):
            previous.child_terms(2)
            del children_rows[:]
            carried = MeshOperator(new, spec, previous=previous)
            assert children_rows == []
            assert same_child_terms(carried.child_terms(2), fresh)
            assert children_rows == [new.num_triangles]


def dense_coupling(P, m, Q=None):
    """G_m as a dense matrix, read off the coupling's product with the
    identity: I @ G_m = G_m."""
    return oracles.coupling_product(Coupling(P, Q), np.eye(len(P)), m, detail=Q is not None)


class TestCoupling:
    def test_mode_zero_is_identity(self):
        # the reference blocks; the library never forms G_0
        P = IndexSet([ZERO, unit_index(1), unit_index(2)])
        G = oracles.assemble_coupling(P, P, 0).toarray()
        assert np.allclose(G, np.eye(3))
        with pytest.raises(ValueError):
            Coupling(P).coupled_columns(0)

    def test_two_member_example(self):
        P = IndexSet([ZERO, unit_index(1)])
        G = dense_coupling(P, 1)
        c = 1.0 / math.sqrt(3.0)
        assert np.allclose(G, [[0.0, c], [c, 0.0]], atol=1e-15)

    def test_matches_parametric_quadrature_oracle(self):
        P = IndexSet(
            [ZERO, unit_index(1), unit_index(2), unit_index(1, 2),
             MultiIndex([(1, 1), (2, 1)])]
        )
        for m in (1, 2, 3):
            want = np.array(
                [[oracles.param_moment(nu, mu, m) for mu in P] for nu in P]
            )
            assert np.allclose(dense_coupling(P, m), want, atol=1e-13)
            assert np.allclose(oracles.assemble_coupling(P, P, m).toarray(), want, atol=1e-13)

    def test_rectangular_blocks(self):
        P = IndexSet([ZERO, unit_index(1)])
        Q = IndexSet([unit_index(2), unit_index(1, 2)], require_zero=False)
        for m in (1, 2):
            want = np.array(
                [[oracles.param_moment(nu, mu, m) for mu in Q] for nu in P]
            )
            assert np.allclose(dense_coupling(P, m, Q), want, atol=1e-14)
            assert np.allclose(oracles.assemble_coupling(P, Q, m).toarray(), want, atol=1e-14)

    @pytest.mark.parametrize("seed", range(12))
    def test_multiply_equals_reference_blocks(self, seed):
        # up to M = 12, or up to degree 6 in two dimensions; modes past the
        # widest member couple nothing and must give zeros
        max_dim = 2 if seed % 2 == 0 else 12
        P = random_downward_closed(seed, 5 + 4 * seed, max_dim=max_dim, max_degree=6)
        Q = detail_index_set(P)
        coupling = Coupling(P, Q)
        U = np.random.default_rng(seed).standard_normal((7, len(P)))
        for m in range(1, Q.max_dimension() + 3):
            for cols, detail in ((P, False), (Q, True)):
                G = oracles.assemble_coupling(P, cols, m)
                got = oracles.coupling_product(coupling, U, m, detail)
                assert got.shape == (7, len(cols))
                assert np.array_equal(got, (G.T @ U.T).T), (m, detail)
                if G.nnz == 0:
                    assert not got.any()
        # a non-downward-closed detail set against itself leaves modes empty
        sparse = Coupling(Q)
        V = np.random.default_rng(seed).standard_normal((3, len(Q)))
        for m in range(1, Q.max_dimension() + 2):
            G = oracles.assemble_coupling(Q, Q, m)
            assert np.array_equal(oracles.coupling_product(sparse, V, m), (G @ V.T).T), m


class TestCopyFreeCoupling:
    """The coupling's gather passes and the operator built on them against
    the transposed products they replaced, and the C-order layout
    contract."""

    @pytest.mark.parametrize("seed", range(6))
    def test_multiply_equals_transposed_products(self, seed):
        P = random_downward_closed(seed, 10 + 10 * seed)
        Q = detail_index_set(P)
        coupling = Coupling(P, Q)
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((40, len(P)))
        for m in range(1, Q.max_dimension() + 1):
            for detail in (False, True):
                got = oracles.coupling_product(coupling, U, m, detail)
                want = oracles.transposed_coupling_product(coupling, U, m, detail)
                assert got.flags.c_contiguous
                assert got.shape == (40, len(Q) if detail else len(P))
                assert np.array_equal(got, want), (m, detail)
                # a kept coupling gives the same product again
                assert np.array_equal(oracles.coupling_product(coupling, U, m, detail), got)

    @pytest.mark.parametrize("seed", range(4))
    def test_apply_equals_transposed_apply(self, mesh2, spec, seed):
        P = random_downward_closed(10 + seed, 6 + 6 * seed)
        system = tensor_system(mesh2, P, spec)
        rng = np.random.default_rng(seed)
        for U in (rng.standard_normal(system.shape),
                  np.asfortranarray(rng.standard_normal(system.shape))):
            assert np.array_equal(system.apply(U), oracles.transposed_apply(system, U))

    def test_layout_contract(self, mesh2, spec):
        system = tensor_system(mesh2, random_downward_closed(3, 12), spec)
        rng = np.random.default_rng(1)
        for U in (rng.standard_normal(system.shape),
                  np.asfortranarray(rng.standard_normal(system.shape))):
            for out in (system.apply(U), system.precondition(U)):
                assert out.shape == system.shape
                assert out.flags.c_contiguous
        # PCG keeps the layout: its iterates come out C-ordered
        u = solve(system, tol=1e-10)
        assert u.coeffs.flags.c_contiguous

    def test_empty_block(self):
        # a dimension the index set does not touch couples nothing
        P = IndexSet([ZERO, unit_index(1)])
        U = np.random.default_rng(0).standard_normal((5, 2))
        got = oracles.coupling_product(Coupling(P), U, 3)
        assert got.flags.c_contiguous and np.array_equal(got, np.zeros((5, 2)))


def pool_ranges(width, workers):
    """The column ranges of ``apply`` on a pool of `workers` threads."""
    bounds = [width * k // workers for k in range(workers + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


class TestPlan:
    """``Coupling.plan`` against the reference product on both blocks, on
    the whole width and on the pool's column ranges: each entry's passes,
    gathered node-major or index-major, equal (U G_m) on its targets, a
    column of the range outside the targets and a mode left out hold only
    zeros, and the plan is built once per block and range."""

    @pytest.mark.parametrize("seed, size, detail_size",
                             [(0, 12, None), (1, 18, 6), (2, 30, 6), (5, 24, None)])
    def test_equals_coupling_product(self, seed, size, detail_size):
        P = random_downward_closed(seed, size)
        Q = detail_index_set(P)
        if detail_size is not None:
            Q = IndexSet(Q.members[:detail_size], require_zero=False)
        coupling = Coupling(P, Q)
        U = np.random.default_rng(seed).standard_normal((5, len(P)))
        UT = np.ascontiguousarray(U.T)
        width = max(P.max_dimension(), Q.max_dimension())
        kinds = set()
        for detail, cols in ((False, P), (True, Q)):
            if not detail or detail_size is not None:
                # some modes are worked on their coupled columns, some full width
                assert all(coupled_counts(coupling, detail))
            whole = {m: oracles.coupling_product(coupling, U, m, detail)
                     for m in range(1, width + 2)}
            for within in [slice(None)] + pool_ranges(len(cols), 2) + pool_ranges(len(cols), 3):
                start, stop, _ = within.indices(len(cols))
                plan = coupling.plan(detail, within)
                assert coupling.plan(detail, within) is plan
                modes = [m for m, _, _ in plan]
                assert modes == sorted(set(modes)) and modes[0] >= 1
                for m, targets, passes in plan:
                    block = whole[m][:, start:stop]
                    rows = np.arange(stop - start)[targets]
                    kinds.add((detail, isinstance(targets, slice)))
                    where = (m, detail, within)
                    assert np.array_equal(galerkin.gather(U, passes, axis=1), block[:, rows]), where
                    assert np.array_equal(galerkin.gather(UT, passes, axis=0), block[:, rows].T), where
                    assert not np.delete(block, rows, axis=1).any(), where
                for m in set(whole) - set(modes):
                    assert not whole[m][:, start:stop].any(), (m, detail, within)
        assert {(False, True), (False, False)} <= kinds
        if detail_size is not None:
            assert {(True, True), (True, False)} <= kinds


class TestModeSparse:
    """A mode whose G_m couples at most half of the columns is multiplied on
    its coupled columns alone; the other columns would only receive zeros,
    so the products equal the full-width ones to the bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_coupled_columns(self, seed):
        P = random_downward_closed(seed, 8 + 6 * seed)
        Q = detail_index_set(P)
        coupling = Coupling(P, Q)
        for m in range(1, Q.max_dimension() + 2):  # the last mode couples nothing
            for cols, detail in ((P, False), (Q, True)):
                held = np.flatnonzero(oracles.assemble_coupling(P, cols, m).getnnz(axis=0))
                for within in (slice(None), slice(2, 7), slice(5, None)):
                    got = coupling.coupled_columns(m, detail, within)
                    if 2 * held.size > len(cols):
                        assert got is within
                    else:
                        start, stop, _ = within.indices(len(cols))
                        want = held[(held >= start) & (held < stop)]
                        assert np.array_equal(got, want), (m, detail, within)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiply_index_columns(self, seed):
        P = random_downward_closed(seed, 14)
        Q = detail_index_set(P)
        coupling = Coupling(P, Q)
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((9, len(P)))
        for m in range(1, Q.max_dimension() + 2):
            for detail in (False, True):
                whole = oracles.coupling_product(coupling, U, m, detail)
                width = whole.shape[1]
                for cols in (np.arange(0, width, 3), rng.permutation(width)[:4],
                             np.zeros(0, dtype=np.intp),
                             coupling.coupled_columns(m, detail)):
                    got = oracles.coupling_product(coupling, U, m, detail, columns=cols)
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, whole[:, cols]), (m, detail, cols)

    @pytest.mark.parametrize("seed, size", [(0, 12), (1, 18), (2, 30), (5, 24)])
    def test_apply_equals_full_width(self, mesh2, spec, seed, size, monkeypatch):
        P = random_downward_closed(seed, size)
        system = tensor_system(mesh2, P, spec)
        # some modes couple at most half of the columns, some more
        assert all(coupled_counts(system.coupling))
        U = np.random.default_rng(seed).standard_normal(system.shape)
        got = system.apply(U)
        assert np.array_equal(got, oracles.transposed_apply(system, U))
        monkeypatch.setattr(Coupling, "coupled_columns", full_width)
        # a fresh system and coupling: a coupling keeps the plans it has built
        assert np.array_equal(got, tensor_system(mesh2, P, spec).apply(U))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_equals_full_width(self, large_system, pool_workers, workers):
        # modes of the large system couple 3 to 22 of its 24 columns
        assert all(coupled_counts(large_system.coupling))
        U = np.random.default_rng(10 + workers).standard_normal(large_system.shape)
        pool_workers(workers)
        got = large_system.apply(U)
        assert galerkin._pool is not None
        assert np.array_equal(got, oracles.transposed_apply(large_system, U))


class TestIndexMajor:
    """Below PARALLEL_DOFS, ``apply`` accumulates index-major from a plan
    resolved once per coupling; above it the pool computes node-major column
    ranges, each from its own plan.  Both equal the transposed products to
    the bit, on index sets with sparse and dense modes."""

    @staticmethod
    def system(mesh, spec, seed, size):
        system = tensor_system(mesh, random_downward_closed(seed, size), spec)
        # some modes couple at most half of the columns, some more
        assert all(coupled_counts(system.coupling))
        return system

    @pytest.mark.parametrize("seed, size", [(0, 12), (1, 18), (2, 30), (5, 24)])
    def test_equals_oracle_and_pool_below_gate(self, mesh2, spec, seed, size,
                                               pool_workers, monkeypatch):
        system = self.system(mesh2, spec, seed, size)
        assert system.num_dof < galerkin.PARALLEL_DOFS
        rng = np.random.default_rng(seed)
        inputs = (rng.standard_normal(system.shape),
                  np.asfortranarray(rng.standard_normal(system.shape)))
        got = [system.apply(U) for U in inputs]
        for U, out in zip(inputs, got):
            assert out.flags.c_contiguous
            assert np.array_equal(out, oracles.transposed_apply(system, U))
        # the node-major column ranges of the pool give the same bits
        pool_workers(2)
        monkeypatch.setattr(galerkin, "PARALLEL_DOFS", 0)
        for U, out in zip(inputs, got):
            assert np.array_equal(system.apply(U), out)
        assert galerkin._pool is not None

    def test_equals_oracle_and_pool_above_gate(self, large_system, pool_workers, monkeypatch):
        U = np.random.default_rng(12).standard_normal(large_system.shape)
        pool_workers(2)
        got = large_system.apply(U)
        assert np.array_equal(got, oracles.transposed_apply(large_system, U))
        monkeypatch.setattr(galerkin, "PARALLEL_DOFS", math.inf)
        assert np.array_equal(large_system.apply(U), got)

    def test_modes_that_couple_nothing(self, mesh2, spec):
        # modes 2 and 3 of {0, e_1, e_4} couple no column; they are left out
        P = IndexSet([ZERO, unit_index(1), unit_index(4)])
        system = tensor_system(mesh2, P, spec)
        assert [m for m, _, _ in system.coupling.plan()] == [1, 4]
        U = np.random.default_rng(3).standard_normal(system.shape)
        assert np.array_equal(system.apply(U), oracles.transposed_apply(system, U))

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_columns_resolved_once_per_system(self, mesh2, large_system, spec,
                                              pool_workers, monkeypatch, workers):
        """Each mode's columns are resolved once per coupling and column
        range: repeated applies and a second system on the same coupling
        resolve none."""
        calls = []
        coupled_columns = Coupling.coupled_columns

        def counted(self, m, detail=False, within=slice(None)):
            calls.append((m, detail, within.start, within.stop))
            return coupled_columns(self, m, detail, within)

        monkeypatch.setattr(Coupling, "coupled_columns", counted)
        if workers is None:
            system = self.system(mesh2, spec, 2, 30)
            ranges = 1
        else:
            # a fresh system of the large one's space, above the gate
            system = TensorSystem(large_system.operator, Coupling(large_system.indices))
            pool_workers(workers)
            ranges = workers
        U = np.random.default_rng(0).standard_normal(system.shape)
        calls.clear()
        first = system.apply(U)
        assert np.array_equal(first, oracles.transposed_apply(system, U))
        for _ in range(4):
            assert np.array_equal(system.apply(U), first)
        assert len(calls) == system.indices.max_dimension() * ranges
        assert len(set(calls)) == len(calls)
        calls.clear()
        again = TensorSystem(system.operator, system.coupling)
        assert np.array_equal(again.apply(U), first)
        assert calls == []


class TestNormaliser:
    """PCG's normaliser <b, M^{-1} b> solves only the column block of A_0
    that holds the load, to the same bits as ``precondition(b)``."""

    @staticmethod
    def check(system):
        b = system.load
        assert system.load_norm_sq() == galerkin._inner(b, system.precondition(b))
        u = solve(system, tol=1e-10)
        x, history = _pcg(system.apply, system.precondition, b, None, 1e-10, 1000,
                          galerkin._inner(b, system.precondition(b)))
        assert np.array_equal(u.coeffs, x)
        assert (u.residual, u.iterations) == (history[-1], len(history) - 1)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 9, 17])
    def test_equals_preconditioned_load(self, mesh2, spec, size):
        self.check(tensor_system(mesh2, random_downward_closed(size, size), spec))

    def test_equals_preconditioned_load_on_pool(self, large_system, pool_workers):
        pool_workers(2)
        self.check(large_system)


class TestColumnPool:
    """Above PARALLEL_DOFS, ``apply`` computes one column range per worker
    of a thread pool and the A_0 solves run in blocks of four columns on it.
    Every column is computed as the serial path computes it, so the results
    do not depend on the number of workers."""

    @staticmethod
    def operators(system, U):
        return system.apply(U), system.precondition(U)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiply_column_ranges(self, seed):
        P = random_downward_closed(seed, 12)
        Q = detail_index_set(P)
        coupling = Coupling(P, Q)
        U = np.random.default_rng(seed).standard_normal((7, len(P)))
        for m in range(1, Q.max_dimension() + 2):  # the last mode couples nothing
            for detail in (False, True):
                whole = oracles.coupling_product(coupling, U, m, detail)
                for c in (slice(0, 5), slice(3, None), slice(2, 2)):
                    got = oracles.coupling_product(coupling, U, m, detail, columns=c)
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, whole[:, c]), (m, detail, c)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_serial_path(self, large_system, pool_workers, monkeypatch, workers):
        U = np.random.default_rng(workers).standard_normal(large_system.shape)
        pool_workers(workers)
        got = self.operators(large_system, U)
        assert galerkin._pool is not None
        monkeypatch.setattr(galerkin, "PARALLEL_DOFS", math.inf)
        for out, want in zip(got, self.operators(large_system, U)):
            assert np.array_equal(out, want)

    def test_fortran_input_gives_c_output(self, large_system, pool_workers):
        pool_workers(2)
        U = np.random.default_rng(4).standard_normal(large_system.shape)
        want = self.operators(large_system, U)
        for out, ref in zip(self.operators(large_system, np.asfortranarray(U)), want):
            assert out.flags.c_contiguous
            assert np.array_equal(out, ref)

    def test_concurrent_solves_of_one_factor(self, large_system, pool_workers):
        # the pool relies on SuperLU.solve releasing the GIL and being safe
        # to call on one factor from several threads
        pool_workers(4)
        solver = large_system.operator.a0_solver
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal((large_system.shape[0], 4)) for _ in range(50)]
        got = [None] * len(blocks)

        def job(k):
            got[k] = solver.solve(blocks[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            galerkin._on_pool(job, range(len(blocks)))
        finally:
            sys.setswitchinterval(interval)
        for out, block in zip(got, blocks):
            assert np.array_equal(out, solver.solve(block))

    def test_shared_result_under_switching(self, large_system, pool_workers, monkeypatch):
        # the workers write their columns into one shared result; more
        # workers than cores and a short switch interval must lose none
        U = np.random.default_rng(8).standard_normal(large_system.shape)
        pool_workers(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [self.operators(large_system, U) for _ in range(10)]
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(galerkin, "PARALLEL_DOFS", math.inf)
        want = self.operators(large_system, U)
        for outs in got:
            for out, ref in zip(outs, want):
                assert np.array_equal(out, ref)

    def test_forked_child_starts_its_own_pool(self, large_system):
        U = np.random.default_rng(6).standard_normal(large_system.shape)
        large_system.apply(U)
        assert galerkin._pool is not None
        # the child inherits no pool threads; it must not wait for them
        child = multiprocessing.get_context("fork").Process(
            target=large_system.apply, args=(U,)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class SolveSpy:
    """Stands in for an operator's A_0 factor: records the width of every
    block handed to SuperLU and the thread that handed it."""

    def __init__(self, solver):
        self.solver, self.widths, self.threads = solver, [], set()

    def solve(self, B):
        self.widths.append(B.shape[1])
        self.threads.add(threading.get_ident())
        return self.solver.solve(B)


def spied(operator):
    operator.a0_solver = SolveSpy(operator.a0_solver)
    return operator.a0_solver


class TestBlockedSolve:
    """``MeshOperator.solve_blocks`` hands SuperLU blocks of _BLOCK columns:
    on the pool at or above PARALLEL_DOFS, one after another on the calling
    thread below it.  Each column comes out as from one solve of the whole
    array.  The parametric estimator solves this way at every size, and
    ``precondition`` keeps one call on the whole array below the gate."""

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("width", range(1, 14))
    def test_equals_whole_solve(self, large_system, pool_workers, monkeypatch, width, order):
        # at 2945 free nodes, blocks of 2 or 3 columns differ in the last bit
        operator = large_system.operator
        R = np.random.default_rng(width).standard_normal((operator.load.size, width))
        R = np.asarray(R, order=order)
        want = operator.a0_solver.solve(R)
        # the gate just above R's size runs the blocks in turn, at it on the pool
        for gate, pool in ((R.size + 1, False), (R.size, True)):
            monkeypatch.setattr(galerkin, "PARALLEL_DOFS", gate)
            pool_workers(2)
            got = operator.solve_blocks(R)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want), gate
            assert (galerkin._pool is not None) == pool

    def test_equals_whole_solve_at_the_gate(self, large_system, pool_workers):
        operator = large_system.operator
        n = operator.load.size
        below = (galerkin.PARALLEL_DOFS - 1) // n
        assert n * below < galerkin.PARALLEL_DOFS <= n * (below + 1)
        solver = operator.a0_solver
        spy = spied(operator)
        rng = np.random.default_rng(9)
        for width, pool in ((below, False), (below + 1, True)):
            pool_workers(2)
            spy.widths.clear()
            spy.threads.clear()
            R = rng.standard_normal((n, width))
            assert np.array_equal(operator.solve_blocks(R), solver.solve(R))
            assert max(spy.widths) == galerkin._BLOCK and sum(spy.widths) == width
            assert (spy.threads == {threading.get_ident()}) != pool, width

    @pytest.mark.parametrize("gate", [math.inf, 0])
    def test_parametric_indicators_solve_in_blocks(self, mesh2, spec, monkeypatch, gate):
        P = random_downward_closed(2, 9)
        Q = detail_index_set(P)
        assert len(Q) > 2 * galerkin._BLOCK
        system = tensor_system(mesh2, P, spec, Q)
        u = solve(system, tol=1e-12)
        want = oracles.node_major_parametric_indicators(system, u)
        monkeypatch.setattr(galerkin, "PARALLEL_DOFS", gate)
        spy = spied(system.operator)
        assert np.array_equal(parametric_indicators(system, u), want)
        assert max(spy.widths) <= galerkin._BLOCK
        assert sum(spy.widths) == len(Q)

    def test_precondition_below_gate_is_one_call(self, mesh2, spec):
        system = tensor_system(mesh2, random_downward_closed(3, 9), spec)
        assert system.num_dof < galerkin.PARALLEL_DOFS
        spy = spied(system.operator)
        system.precondition(np.random.default_rng(3).standard_normal(system.shape))
        assert spy.widths == [9]


class TestMeanFactor:
    """The A_0 factor in minimum-degree symmetric ordering against SuperLU's
    default (COLAMD) ordering."""

    @pytest.mark.parametrize("start", [initial_lshape, unit_square])
    def test_matches_default_ordering_on_nvb_chains(self, start, spec):
        # NVB chain marking a quarter of the edges per step, up to 30k triangles
        rng = np.random.default_rng(7)
        meshes = [uniform_refine(start())]
        while True:
            n = meshes[-1].interior_edge_ids.size
            mesh = refine(meshes[-1], rng.choice(n, size=max(1, n // 4), replace=False))
            if mesh.num_triangles > 30000:
                break
            meshes.append(mesh)
        assert meshes[-1].num_triangles > 10000
        for mesh in meshes:
            operator = MeshOperator(mesh, spec)
            A0 = operator.stiffness(0)
            B = rng.standard_normal((A0.shape[0], 3))
            got = operator.a0_solver.solve(B)
            want = splu(A0.tocsc()).solve(B)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(A0 @ got - B).max() <= 1e-10 * np.abs(B).max()


class TestLoad:
    """The operator's load, built from its stiffness pattern, against the
    former per-call load assembly (to the bit) and the dense oracle."""

    def test_unit_load_is_patch_area_third(self, mesh1, spec):
        load = MeshOperator(mesh1, spec).load
        assert np.array_equal(load, oracles.assemble_load(mesh1, IndexSet())[:, 0])
        assert np.allclose(load, oracles.dense_load_one(mesh1), atol=1e-14)

    def test_load_zero_off_mean_index(self, mesh1, spec):
        P = IndexSet([ZERO, unit_index(1)])
        system = tensor_system(mesh1, P, spec)
        assert np.array_equal(system.load, oracles.assemble_load(mesh1, P))
        assert np.all(system.load[:, 1] == 0.0)


class TestSolve:
    def test_deterministic_matches_scalar_fem(self, mesh2):
        from scipy.sparse.linalg import spsolve
        import scipy.sparse as sp

        spec0 = lshape_benchmark(tau=0.0)
        system = tensor_system(mesh2, IndexSet(), spec0)
        u = solve(system, tol=1e-12)
        A = sp.csr_matrix(oracles.dense_stiffness(mesh2, ones))
        want = spsolve(A, oracles.dense_load_one(mesh2))
        assert np.allclose(u.coeffs[:, 0], want, atol=1e-10)

    def test_matches_dense_kronecker_oracle(self, mesh1, spec):
        P = IndexSet([ZERO, unit_index(1), unit_index(2), unit_index(1, 2)])
        system = tensor_system(mesh1, P, spec)
        u = solve(system, tol=1e-12)
        want = oracles.dense_tensor_solve(mesh1, P, spec, n_modes=2)
        # element quadrature of the cosines differs slightly from the oracle
        assert np.allclose(u.coeffs, want, atol=2e-4)
        assert np.allclose(u.coeffs, want, rtol=0.02, atol=1e-6)

    def test_galerkin_energy_identity(self, mesh1, spec):
        P = IndexSet([ZERO, unit_index(1)])
        system = tensor_system(mesh1, P, spec)
        u = solve(system)
        # B(u, u) = F(u) at the Galerkin solution
        assert u.energy_sq == b_energy(system, u.coeffs, u.coeffs)
        assert u.energy_sq == pytest.approx(
            float(np.vdot(system.load, u.coeffs)), rel=1e-10
        )

    def test_nested_energies_grow(self, mesh1, mesh2, spec):
        P = IndexSet([ZERO, unit_index(1)])
        u1 = solve(tensor_system(mesh1, P, spec))
        u2 = solve(tensor_system(mesh2, P, spec))
        P_big = P.union([unit_index(2)])
        u3 = solve(tensor_system(mesh1, P_big, spec))
        assert u2.energy_sq > u1.energy_sq
        assert u3.energy_sq > u1.energy_sq

    def test_stalled_solve_stops_at_its_cap(self, spec):
        # unpreconditioned CG on 705 free nodes needs some 150 iterations,
        # past the cap: twice the bound 54 at tau = 0.9 and tol 1e-10 plus two
        mesh = initial_lshape()
        for _ in range(4):
            mesh = uniform_refine(mesh)
        system = tensor_system(mesh, IndexSet([ZERO, unit_index(1)]), spec)
        system.precondition = lambda R: R.copy()
        with pytest.raises(SolverError, match=r"tol 1e-10 in its cap of 110 iterations \(the "
                                              r"bound at tau = 0\.9 is 54; ") as exc:
            solve(system, tol=1e-10)
        assert len(exc.value.history) == 111 and exc.value.history[-1] > 1e-10

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-10, 2.0, math.nan, math.inf])
    def test_tol_outside_unit_interval_rejected(self, mesh1, spec, tol):
        system = tensor_system(mesh1, IndexSet([ZERO, unit_index(1)]), spec)
        with pytest.raises(ValueError, match="solver tol must lie in"):
            solve(system, tol=tol)

    def test_zero_amplitude_solves_in_one_iteration(self, mesh2):
        # tau = 0: the mean-based preconditioner is exact and rho = 0
        spec0 = lshape_benchmark(tau=0.0)
        u = solve(tensor_system(mesh2, IndexSet([ZERO, unit_index(1)]), spec0))
        assert u.iterations == 1 and u.residual <= 1e-10

    def test_nan_operator_raises(self, mesh2, spec):
        system = tensor_system(mesh2, IndexSet([ZERO, unit_index(1)]), spec)
        system.A[1].data[:] = np.nan
        with pytest.raises(SolverError, match="breakdown"):
            solve(system)

    def test_nan_preconditioner_raises(self, mesh2, spec):
        system = tensor_system(mesh2, IndexSet([ZERO, unit_index(1)]), spec)
        system.precondition = lambda R: np.full_like(R, np.nan)
        with pytest.raises(SolverError, match="breakdown"):
            solve(system)

    def test_indefinite_operator_raises(self):
        b = np.ones((4, 2))
        with pytest.raises(SolverError, match="p.Ap"):
            _pcg(lambda x: -x, lambda r: r, b, None, 1e-10, 10, 8.0)

    def test_warm_start_reduces_iterations(self, mesh1, mesh2, spec):
        P = IndexSet([ZERO, unit_index(1)])
        u1 = solve(tensor_system(mesh1, P, spec))
        system2 = tensor_system(mesh2, P, spec)
        cold = solve(system2)
        warm = solve(system2, initial=prolong(u1, system2))
        assert warm.iterations <= cold.iterations
        assert np.allclose(warm.coeffs, cold.coeffs, atol=1e-8)


class TestProlongation:
    @pytest.mark.parametrize("uniform", [False, True])
    def test_equals_matrix_oracle(self, uniform, spec):
        # seven columns scaled from 1e-8 to 1e8, along a chain of single steps
        rng = np.random.default_rng(5)
        P = IndexSet([ZERO] + [unit_index(m) for m in range(1, 7)])
        mesh = uniform_refine(initial_lshape())
        for _ in range(4):
            num_new = mesh.interior_edge_ids.size
            fine = uniform_refine(mesh) if uniform else refine(
                mesh, rng.choice(num_new, size=max(1, num_new // 3), replace=False))
            U = rng.standard_normal((mesh.free_nodes.size, len(P))) * np.logspace(-8, 8, len(P))
            u = GalerkinSolution(mesh=mesh, indices=P, coeffs=U)
            want = oracles.prolongation_matrix(mesh, fine) @ U
            assert np.array_equal(prolong(u, tensor_system(fine, P, spec)), want)
            mesh = fine

    def test_midpoint_average(self, mesh1):
        fine = uniform_refine(mesh1)
        Pmat = oracles.prolongation_matrix(mesh1, fine)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(mesh1.free_nodes.size)
        uf = Pmat @ u
        full_c = np.zeros(mesh1.num_vertices)
        full_c[mesh1.free_nodes] = u
        full_f = np.zeros(fine.num_vertices)
        full_f[fine.free_nodes] = uf
        for v, (a, b) in enumerate(fine.new_vertex_edge, start=mesh1.num_vertices):
            if not fine.boundary[v]:
                assert full_f[v] == pytest.approx(0.5 * (full_c[a] + full_c[b]), abs=1e-14)

    def test_pointwise_values_preserved(self, mesh1, spec):
        P = IndexSet([ZERO, unit_index(1)])
        u = solve(tensor_system(mesh1, P, spec))
        step = refine(mesh1, [0, 1])
        fine = refine(step, [2, 3])
        u_step = GalerkinSolution(mesh=step, indices=P,
                                  coeffs=prolong(u, tensor_system(step, P, spec)))
        up = GalerkinSolution(mesh=fine, indices=P,
                              coeffs=prolong(u_step, tensor_system(fine, P, spec)))
        rng = np.random.default_rng(11)
        pts = []
        while len(pts) < 50:
            x = rng.uniform(-1.0, 1.0, 2)
            if not (x[0] <= 0 and x[1] <= 0):
                pts.append(x)
        pts = np.asarray(pts)
        for col in range(len(P)):
            coarse_vals = oracles.evaluate_p1(
                mesh1, u.vertex_values()[:, col], pts
            )
            fine_vals = oracles.evaluate_p1(fine, up.vertex_values()[:, col], pts)
            assert np.allclose(coarse_vals, fine_vals, atol=1e-12)

    def test_energy_preserved(self, mesh1, mesh2, spec):
        P = IndexSet([ZERO, unit_index(1)])
        system1, system2 = tensor_system(mesh1, P, spec), tensor_system(mesh2, P, spec)
        u = solve(system1)
        up = prolong(u, system2)
        # the constant-coefficient energy is integrated exactly on both meshes
        assert oracles.b0_energy(system2, up, up) == pytest.approx(
            oracles.b0_energy(system1, u.coeffs, u.coeffs), rel=1e-12)
        # the cosine modes are under-integrated differently on the two meshes,
        # so the full energy agrees only up to the element quadrature error
        assert b_energy(system2, up, up) == pytest.approx(u.energy_sq, rel=1e-5)

    def test_index_set_extension_pads_zeros(self, mesh1, spec):
        P = IndexSet()
        u = solve(tensor_system(mesh1, P, spec))
        P_big = P.union([unit_index(1)])
        up = prolong(u, tensor_system(mesh1, P_big, spec))
        assert np.allclose(up[:, 0], u.coeffs[:, 0])
        assert np.all(up[:, 1] == 0.0)

    def test_non_nested_rejected(self, mesh1, mesh2, spec):
        P = IndexSet()
        u = solve(tensor_system(mesh2, P, spec))
        with pytest.raises(ValueError, match="one refinement step"):
            prolong(u, tensor_system(mesh1, P, spec))
        # two steps at once are not one step
        u = solve(tensor_system(mesh1, P, spec))
        with pytest.raises(ValueError, match="one refinement step"):
            prolong(u, tensor_system(uniform_refine(mesh2), P, spec))

    @pytest.mark.parametrize("seed", range(6))
    def test_index_embedding_equals_loop(self, seed):
        P = random_downward_closed(seed, 3 + 5 * seed, max_dim=12, max_degree=6)
        once = P.union(detail_index_set(P))
        for small, large in ((P, P), (P, once), (once, once.union(detail_index_set(once)))):
            got = _index_embedding(small, large)
            assert np.array_equal(got, oracles.loop_index_embedding(small, large))
        with pytest.raises(ValueError, match="missing"):
            _index_embedding(once, P)


class TestEnhancedSolve:
    def test_deterministic_equals_fine_fem(self, mesh1):
        spec0 = lshape_benchmark(tau=0.0)
        P = IndexSet()
        Q = IndexSet([unit_index(1)], require_zero=False)
        hat = oracles.solve_enhanced(mesh1, P, Q, spec0, tol=1e-12)
        fine = uniform_refine(mesh1)
        u_fine = solve(tensor_system(fine, P, spec0), tol=1e-12)
        assert np.allclose(hat.fine_coeffs[:, 0], u_fine.coeffs[:, 0], atol=1e-9)
        assert np.max(np.abs(hat.detail_coeffs)) < 1e-9

    def test_energy_dominates_plain_solve(self, mesh1, spec):
        from sgfem import detail_index_set

        P = IndexSet([ZERO, unit_index(1)])
        Q = detail_index_set(P)
        u = solve(tensor_system(mesh1, P, spec))
        hat = oracles.solve_enhanced(mesh1, P, Q, spec)
        assert hat.energy_sq() >= u.energy_sq - 1e-12

    def test_matches_dense_direct_solve(self, spec):
        # coarse instance: enumerate the direct-sum basis explicitly
        from sgfem import detail_index_set

        mesh = uniform_refine(initial_lshape())
        P = IndexSet([ZERO, unit_index(1)])
        Q = detail_index_set(P)
        fine = uniform_refine(mesh)
        hat = oracles.solve_enhanced(mesh, P, Q, spec, tol=1e-12, fine=fine)

        nf = fine.free_nodes.size
        nc = mesh.free_nodes.size
        Pr = oracles.prolongation_matrix(mesh, fine).toarray()
        n_modes = max(P.max_dimension(), Q.max_dimension())
        A_hat = [
            oracles.dense_stiffness(fine, spec.coefficient(m), quad_n=6)
            for m in range(n_modes + 1)
        ]
        dim = nf * len(P) + nc * len(Q)
        B = np.zeros((dim, dim))
        rhs = np.zeros(dim)
        rhs[:nf] = oracles.dense_load_one(fine)

        def block(row_basis, col_basis, nu, mu):
            total = np.zeros((row_basis.shape[1], col_basis.shape[1]))
            for m in range(n_modes + 1):
                if m == 0:
                    g = 1.0 if nu == mu else 0.0
                else:
                    g = oracles.param_moment(nu, mu, m)
                if abs(g) > 1e-14:
                    total += g * (row_basis.T @ A_hat[m] @ col_basis)
            return total

        eye_f = np.eye(nf)
        bases = [(eye_f, nu) for nu in P] + [(Pr, mu) for mu in Q]
        offsets = np.cumsum([0] + [b.shape[1] for b, _ in bases])
        for i, (bi, nu) in enumerate(bases):
            for j, (bj, mu) in enumerate(bases):
                B[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = block(
                    bi, bj, nu, mu
                )
        x = np.linalg.solve(B, rhs)
        got = np.concatenate(
            [hat.fine_coeffs.T.ravel(), hat.detail_coeffs.T.ravel()]
        )
        assert np.allclose(got, x, atol=2e-4)
        energy_want = float(rhs @ x)
        assert hat.energy_sq() == pytest.approx(energy_want, rel=1e-3)


# each call with a system and a solution of another space
OTHER_SPACE_CALLS = {
    "spatial_indicators": lambda system, u: spatial_indicators(system, u),
    "parametric_indicators": lambda system, u: parametric_indicators(system, u),
    "b_energy_U": lambda system, u: b_energy(system, u.coeffs, np.zeros(system.shape)),
    "b_energy_V": lambda system, u: b_energy(system, np.zeros(system.shape), u.coeffs),
}


class TestEnergies:
    @pytest.mark.parametrize("other", ["mesh", "indices"])
    @pytest.mark.parametrize("call", sorted(OTHER_SPACE_CALLS))
    def test_other_space_rejected(self, mesh1, mesh2, spec, call, other):
        P = IndexSet([ZERO, unit_index(1)])
        system = tensor_system(mesh1, P, spec, detail_index_set(P))
        if other == "mesh":
            u = solve(tensor_system(mesh2, P, spec))
        else:
            u = solve(tensor_system(mesh1, P.union([unit_index(2)]), spec))
        with pytest.raises(ValueError, match="another space"):
            OTHER_SPACE_CALLS[call](system, u)

    def test_parametric_needs_detail_set(self, mesh1, spec):
        system = tensor_system(mesh1, IndexSet([ZERO, unit_index(1)]), spec)
        u = solve(system)
        with pytest.raises(ValueError, match="detail set"):
            parametric_indicators(system, u)

    def test_b_energy_symmetric_bilinear(self, mesh1, spec):
        P = IndexSet([ZERO, unit_index(1)])
        system = tensor_system(mesh1, P, spec)
        U = solve(system).coeffs
        V = np.random.default_rng(5).standard_normal(U.shape)
        assert b_energy(system, U, V) == pytest.approx(b_energy(system, V, U), rel=1e-12)
        assert oracles.b0_energy(system, V, V) > 0
