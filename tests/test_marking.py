import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgfem import (
    ErrorIndicators,
    IndexSet,
    MarkingParams,
    ZERO,
    decide,
    detail_index_set,
    doerfler,
    initial_lshape,
    lshape_benchmark,
    maximum_mark,
    parametric_indicators,
    realized,
    refine,
    solve,
    spatial_indicators,
    uniform_refine,
    unit_index,
)

import oracles
from conftest import tensor_system


class TestDoerfler:
    def test_total_zero_marks_nothing(self):
        assert doerfler(np.zeros(4), 0.5) == []

    def test_theta_one_marks_all_positive(self):
        marked = doerfler(np.array([3.0, 1.0, 2.0]), 1.0)
        assert sorted(marked) == [0, 1, 2]

    def test_theta_one_marks_subnormal_entry(self):
        # the check's absolute slack would let 5e-324 through unmarked
        assert sorted(doerfler(np.array([5e-324, 1.0]), 1.0)) == [0, 1]

    def test_theta_one_skips_zeros(self):
        marked = doerfler(np.array([0.0, 0.0, 1.0, 1e-200]), 1.0)
        assert sorted(marked) == [2, 3]

    def test_underflowing_squares_still_mark(self):
        # every square underflows to zero, the squared total does not
        assert doerfler(np.array([1e-170, 1e-170]), 0.5) == [0]

    def test_greedy_descending_with_id_ties(self):
        marked = doerfler(np.array([2.0, 5.0, 5.0, 1.0]), 0.7)
        # 0.49 * 55 = 26.95; the two fives (ids 1 then 2) reach 50
        assert marked == [1, 2]

    def test_invalid_theta(self):
        for theta in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                doerfler(np.array([1.0]), theta)

    def test_matches_exhaustive_oracle_random(self):
        rng = np.random.default_rng(123)
        thetas = [round(0.1 * k, 1) for k in range(1, 11)]
        for _ in range(30):
            n = int(rng.integers(1, 13))
            values = rng.uniform(0.0, 1.0, n)
            sums = oracles.subset_sums(values**2)
            for theta in thetas:
                marked = doerfler(values, theta)
                k, best_sum = oracles.exhaustive_bulk(values, theta, sums)
                assert len(marked) == k
                got_sum = float((values[marked] ** 2).sum())
                assert got_sum == pytest.approx(best_sum, rel=1e-12)


    @pytest.mark.parametrize("values", [[1.0, 1e-4], [1e-3, 1e-6]])
    def test_exhaustive_oracle_agrees_at_theta_one(self, values):
        # an absolute tolerance in the oracle once counted the small entry
        # as negligible here
        k, _ = oracles.exhaustive_bulk(np.asarray(values), 1.0)
        assert k == len(doerfler(values, 1.0)) == 2


class TestMaximumMark:
    def test_threshold_inclusive(self):
        marked = maximum_mark(np.array([1.0, 0.5, 0.49]), 0.5)
        assert marked == [0, 1]

    def test_theta_zero_marks_maxima_only(self):
        marked = maximum_mark(np.array([2.0, 3.0, 3.0]), 0.0)
        assert marked == [1, 2]

    def test_theta_one_marks_all(self):
        assert maximum_mark(np.array([5.0, 0.0, 1.0]), 1.0) == [0, 1, 2]

    def test_empty_input(self):
        assert maximum_mark(np.zeros(0), 0.5) == []

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            maximum_mark(np.array([1.0]), 1.2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=30),
    st.floats(0.05, 1.0),
)
@example(values=[1.0, 1e-9], theta=1.0)
@example(values=[1.0, 1.1800273452238014e-237], theta=1.0)
@example(values=[1.0, 1.5e-8], theta=0.9999999999999999)
@example(values=[1.5457171568000818e-176] * 2, theta=0.5)
@example(values=[1.0, 0.0012183551247867386], theta=0.9999992578062212)
def test_bulk_weak_marking_property(values, theta):
    values = np.asarray(values)
    marked = doerfler(values, theta)  # raises internally if violated
    if marked and len(marked) < values.size:
        unmarked = np.delete(values, marked)
        # hypot is the l2 norm without underflow of the squares
        bound = math.sqrt(1.0 - theta**2) / theta * math.hypot(*values[marked])
        assert unmarked.max() <= bound * (1 + 1e-9) + 1e-290


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=30),
    st.floats(0.0, 1.0),
)
def test_maximum_weak_marking_property(values, theta_p):
    values = np.asarray(values)
    marked = maximum_mark(values, theta_p)
    if marked and len(marked) < values.size:
        unmarked = np.delete(values, marked)
        # max(marked) <= l2-aggregate(marked), and unlike the naive
        # sqrt-of-sum-of-squares it cannot underflow for subnormal values
        bound = (1.0 - theta_p) * float(values[marked].max())
        assert unmarked.max() <= bound * (1 + 1e-9)


class TestParams:
    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            MarkingParams().validate("E")

    def test_theta_p_ranges_by_criterion(self):
        MarkingParams(theta_p=0.0).validate("C")
        MarkingParams(theta_p=0.0).validate("D")
        for crit in ("A", "B"):
            with pytest.raises(ValueError):
                MarkingParams(theta_p=0.0).validate(crit)

    def test_theta_x_and_vartheta(self):
        with pytest.raises(ValueError):
            MarkingParams(theta_x=0.0).validate("A")
        with pytest.raises(ValueError):
            MarkingParams(vartheta=0.0).validate("A")


@pytest.fixture(scope="module")
def context():
    """Solved coarse instance with real indicators for decide()."""
    spec = lshape_benchmark()
    mesh = uniform_refine(initial_lshape())
    P = IndexSet([ZERO, unit_index(1)])
    Q = detail_index_set(P)
    system = tensor_system(mesh, P, spec, Q)
    u = solve(system)
    ind = ErrorIndicators(
        spatial=spatial_indicators(system, u),
        parametric=parametric_indicators(system, u),
    )
    return mesh, ind


class TestDecide:
    def test_terminate_on_zero_estimate(self, context):
        mesh, ind = context
        zero = ErrorIndicators(
            spatial=np.zeros_like(ind.spatial),
            parametric=np.zeros_like(ind.parametric),
        )
        out = decide("A", zero, MarkingParams(), mesh)
        assert out.kind == "terminate"

    def test_case_a_spatial_when_dominant(self, context):
        mesh, ind = context
        # huge vartheta forces the parametric branch, tiny one the spatial
        big = decide("A", ind, MarkingParams(vartheta=1e6), mesh)
        small = decide("A", ind, MarkingParams(vartheta=1e-6), mesh)
        assert big.kind == "parametric" and big.parametric_marked
        assert small.kind == "spatial" and small.spatial_marked

    def test_boundary_is_inclusive(self, context):
        mesh, ind = context
        # vartheta * eta_q == eta_x exactly -> spatial case (a)
        vt = ind.eta_spatial / ind.eta_parametric
        out = decide("A", ind, MarkingParams(vartheta=vt), mesh)
        assert out.kind == "spatial"

    def test_criterion_c_uses_maximum_marking(self, context):
        mesh, ind = context
        params = MarkingParams(theta_p=0.3, vartheta=1e6)
        a = decide("A", ind, params, mesh)
        c = decide("C", ind, params, mesh)
        assert set(a.parametric_marked) == set(doerfler(ind.parametric, 0.3))
        assert set(c.parametric_marked) == set(maximum_mark(ind.parametric, 0.3))

    def test_b_compares_realized_reduction(self, context):
        mesh, ind = context
        params = MarkingParams()
        out = decide("B", ind, params, mesh)
        assert out.kind in ("spatial", "parametric")
        trial = doerfler(ind.spatial, params.theta_x)
        trial_param = doerfler(ind.parametric, params.theta_p)
        realized_set = realized(mesh, refine(mesh, trial)).tolist()
        assert set(realized_set) >= set(trial)
        # the comparison uses the realized aggregate, not the marked one
        eta_re = math.sqrt(ind.spatial_subset_sq(realized_set))
        eta_tp = math.sqrt(ind.parametric_subset_sq(trial_param))
        if out.kind == "spatial":
            assert out.spatial_marked == tuple(trial)
            assert eta_tp <= eta_re
        else:
            assert out.parametric_marked == tuple(trial_param)
            assert eta_tp > eta_re

    def test_realized_set_matches_actual_refinement(self, context):
        mesh, ind = context
        out = decide("B", ind, MarkingParams(), mesh)
        if out.kind == "spatial":
            nxt = refine(mesh, out.spatial_marked)
            position = {tuple(mesh.edges[e]): i for i, e in enumerate(mesh.interior_edge_ids)}
            realized_set = sorted(
                position[tuple(e)]
                for e in nxt.new_vertex_edge.tolist()
                if tuple(e) in position
            )
            assert realized_set == realized(mesh, out.refined).tolist()

    @pytest.mark.parametrize("criterion", ["B", "D"])
    def test_spatial_decision_carries_the_refined_mesh(self, context, criterion):
        mesh, ind = context
        out = decide(criterion, ind, MarkingParams(vartheta=1e-6), mesh)
        assert out.kind == "spatial"
        again = refine(mesh, out.spatial_marked)
        assert np.array_equal(out.refined.vertices, again.vertices)
        assert np.array_equal(out.refined.triangles, again.triangles)
        assert np.array_equal(out.refined.ref_edge, again.ref_edge)

    @pytest.mark.parametrize(
        "criterion, vartheta", [("A", 1e-6), ("C", 1e-6), ("B", 1e6), ("D", 1e6)]
    )
    def test_no_refined_mesh_otherwise(self, context, criterion, vartheta):
        mesh, ind = context
        out = decide(criterion, ind, MarkingParams(vartheta=vartheta), mesh)
        assert out.refined is None

    def test_invalid_params_propagate(self, context):
        mesh, ind = context
        with pytest.raises(ValueError):
            decide("A", ind, MarkingParams(theta_x=2.0), mesh)
