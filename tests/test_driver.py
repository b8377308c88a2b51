import dataclasses
import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgfem.driver
import sgfem.galerkin
import sgfem.marking
import sgfem.mesh
from sgfem import (
    AdaptiveTrace,
    IterationRecord,
    Coupling,
    MarkingParams,
    MeshOperator,
    TensorSystem,
    b_energy,
    cumulative_cost,
    effectivity,
    fit_rate,
    initial_lshape,
    lshape_benchmark,
    prolong,
    refine,
    reference_solution,
    run_adaptive,
    unit_square,
)

import oracles


@pytest.fixture(scope="module")
def short_trace():
    return run_adaptive(
        lshape_benchmark(), "A", MarkingParams(0.5, 0.5, 1.0), tol=5e-2
    )


@pytest.fixture(scope="module")
def short_ref(short_trace):
    return reference_solution(short_trace)


def make_record(level, n_dof, eta, energy=1.0):
    return IterationRecord(
        level=level, refine_type="spatial", dim_x=n_dof, card_p=1, n_dof=n_dof,
        eta=eta, eta_spatial=eta, eta_parametric=0.0, energy_sq=energy,
        n_marked=1, max_active_dim=0, solver_iterations=1,
        solver_residual=0.0, wall_time=0.0,
    )


class TestRunStructure:
    def test_reaches_tolerance(self, short_trace):
        assert short_trace.stop_reason == "tol"
        assert short_trace.reached_tol
        assert short_trace.records[-1].eta <= 5e-2

    def test_eta_levels_recorded(self, short_trace):
        for rec in short_trace.records:
            assert rec.eta == pytest.approx(
                math.hypot(rec.eta_spatial, rec.eta_parametric), rel=1e-12
            )

    def test_energy_monotone(self, short_trace):
        energies = np.asarray([r.energy_sq for r in short_trace.records])
        assert np.all(np.diff(energies) >= -1e-12)

    def test_dofs_grow(self, short_trace):
        dofs = short_trace.dof_series()
        assert np.all(np.diff(dofs) > 0)

    def test_online_checks_within_slack(self, short_trace):
        assert short_trace.checks  # populated from level 1 onward
        for chk in short_trace.checks:
            assert chk.energy_increment >= -1e-10
            assert chk.pythagoras_deviation <= 1e-6
            assert chk.reduction_lower_bound <= (1 + 1e-6) * chk.diff_energy_sq

    def test_both_refinement_types_occur(self, short_trace):
        kinds = {rec.refine_type for rec in short_trace.records}
        assert "spatial" in kinds and "parametric" in kinds

    def test_final_state_consistent(self, short_trace):
        assert short_trace.final_solution.mesh is short_trace.final_mesh
        assert short_trace.final_solution.indices is short_trace.final_indices
        assert short_trace.records[-1].refine_type == "final"

    def test_deterministic_rerun_identical(self, short_trace):
        again = run_adaptive(
            lshape_benchmark(), "A", MarkingParams(0.5, 0.5, 1.0), tol=5e-2
        )
        assert [r.eta for r in again.records] == [r.eta for r in short_trace.records]
        assert [r.n_dof for r in again.records] == [
            r.n_dof for r in short_trace.records
        ]

    def test_trace_pickles(self, short_trace):
        back = pickle.loads(pickle.dumps(short_trace))
        assert back.records == short_trace.records
        assert back.checks == short_trace.checks
        assert back.final_indices == short_trace.final_indices
        assert np.array_equal(back.final_mesh.triangles, short_trace.final_mesh.triangles)
        assert np.array_equal(back.final_solution.coeffs, short_trace.final_solution.coeffs)

    def test_ancestors_freed(self):
        # the trace keeps the final mesh, and no mesh keeps the one it came from
        start = sgfem.mesh.initial_lshape()
        ref = weakref.ref(start)
        trace = run_adaptive(
            lshape_benchmark(), "A", MarkingParams(0.5, 0.5, 1.0), tol=5e-2, mesh=start
        )
        del start
        gc.collect()
        assert "spatial" in [r.refine_type for r in trace.records]
        assert trace.final_mesh is not None and ref() is None


class TestStops:
    def test_max_iter(self):
        tr = run_adaptive(lshape_benchmark(), "A", tol=1e-10, max_iter=2)
        assert tr.stop_reason == "max_iter"
        assert tr.num_levels == 3

    def test_max_dof(self):
        tr = run_adaptive(lshape_benchmark(), "A", tol=1e-10, max_dof=100)
        assert tr.stop_reason == "max_dof"
        assert not tr.reached_tol

    def test_max_iter_zero_solves_once(self):
        tr = run_adaptive(lshape_benchmark(), "A", tol=1e-10, max_iter=0)
        assert tr.stop_reason == "max_iter"
        assert tr.num_levels == 1

    @pytest.mark.parametrize("caps", [{"max_iter": -1}, {"max_dof": 0}, {"max_dof": -5}])
    def test_nonsense_caps_rejected(self, caps):
        with pytest.raises(ValueError, match=next(iter(caps))):
            run_adaptive(lshape_benchmark(), "A", **caps)

    def test_deterministic_problem_spatial_only(self):
        spec0 = lshape_benchmark(tau=0.0)
        tr = run_adaptive(spec0, "A", tol=8e-2)
        assert tr.reached_tol
        assert all(r.refine_type in ("spatial", "final") for r in tr.records)
        assert all(r.card_p == 1 for r in tr.records)


class TestNoFineMeshInLoop:
    @pytest.mark.parametrize("criterion", ["A", "B"])
    def test_only_refine_bisects(self, monkeypatch, criterion):
        def forbidden(*args, **kwargs):
            raise AssertionError("uniform_refine called by the adaptive loop")

        monkeypatch.setattr(sgfem.driver, "uniform_refine", forbidden)
        calls = {"bisect": 0, "driver": 0, "marking": 0}
        bisect = sgfem.mesh._bisect

        def counted_bisect(*args):
            calls["bisect"] += 1
            return bisect(*args)

        monkeypatch.setattr(sgfem.mesh, "_bisect", counted_bisect)
        for name, module in (("driver", sgfem.driver), ("marking", sgfem.marking)):

            def counted_refine(*args, _name=name, _refine=module.refine):
                calls[_name] += 1
                return _refine(*args)

            monkeypatch.setattr(module, "refine", counted_refine)

        trace = run_adaptive(lshape_benchmark(), criterion, tol=5e-2)
        spatial = sum(r.refine_type == "spatial" for r in trace.records)
        assert spatial > 0
        assert calls["bisect"] == calls["driver"] + calls["marking"]
        if criterion == "B":
            # the driver takes the mesh that decide() refined to compare
            assert calls["driver"] == 0
        else:
            assert calls["driver"] == spatial


class TestRebuildOnlyWhatChanged:
    """A spatial step keeps the coupling, a parametric step keeps the mesh
    operator: every (mesh, mode) stiffness matrix and the coupling passes of
    every (index set, detail set) pair are built once per run."""

    def test_each_pair_assembled_once(self, monkeypatch):
        spec = lshape_benchmark(sigma=1.5)
        modes = {}
        for m in range(12):
            a = spec.coefficient(m)
            modes[(a.__code__, tuple(c.cell_contents for c in a.__closure__ or ()))] = m
        events = []  # ("level",), ("A", mesh, mode) and ("G", rows, cols)
        stiffness = sgfem.galerkin.assemble_stiffness
        coupling = sgfem.galerkin._coupling_passes
        system = sgfem.driver.TensorSystem

        def counted_stiffness(mesh, a, *args, **kwargs):
            key = (a.__code__, tuple(c.cell_contents for c in a.__closure__ or ()))
            events.append(("A", mesh, modes[key]))
            return stiffness(mesh, a, *args, **kwargs)

        def counted_coupling(rows, cols):
            events.append(("G", rows, cols))
            return coupling(rows, cols)

        def marked_system(*args, **kwargs):
            # a plain function, as the driver may see under a tracer
            events.append(("level",))
            return system(*args, **kwargs)

        monkeypatch.setattr(sgfem.galerkin, "assemble_stiffness", counted_stiffness)
        monkeypatch.setattr(sgfem.galerkin, "_coupling_passes", counted_coupling)
        monkeypatch.setattr(sgfem.driver, "TensorSystem", marked_system)
        trace = run_adaptive(spec, "A", MarkingParams(0.5, 0.5, 10.0), tol=6e-2)

        steps = [r.refine_type for r in trace.records]
        assert "spatial" in steps and "parametric" in steps
        # a level's coupling is built before its system, its stiffness
        # matrices inside it
        levels, pending = [], []
        for event in events:
            if event[0] == "level":
                levels.append(pending)
                pending = []
            elif event[0] == "G":
                pending.append(event)
            else:
                levels[-1].append(event)
        assert pending == []
        assert len(levels) == trace.num_levels
        stiffness_keys = [(id(e[1]), e[2]) for e in events if e[0] == "A"]
        coupling_keys = [e[1:] for e in events if e[0] == "G"]
        assert len(stiffness_keys) == len(set(stiffness_keys))
        assert len(coupling_keys) == len(set(coupling_keys))

        for level, (record, calls) in enumerate(zip(trace.records, levels)):
            # the system needs modes 0..M, the detail set one more
            needed = set(range(record.max_active_dim + 2))
            meshes = [e[1] for e in calls if e[0] == "A"]
            assembled = {e[2] for e in calls if e[0] == "A"}
            blocks = [e for e in calls if e[0] == "G"]
            step = trace.records[level - 1].refine_type if level else None
            if step == "parametric":
                before = set(range(trace.records[level - 1].max_active_dim + 2))
                assert assembled == needed - before
                assert blocks
            else:
                assert assembled == needed
                assert all(mesh is meshes[0] for mesh in meshes)
                if step == "spatial":
                    assert blocks == []


class TestCarriedEstimatorTerms:
    """After a spatial step the new mesh operator builds the estimator's
    child terms only for the triangles the step created, also for the
    trial mesh that criterion B adopts from marking."""

    @pytest.mark.parametrize("criterion", ["A", "B"])
    def test_only_new_triangles_built(self, monkeypatch, criterion):
        built = []  # (mesh, triangles) per computation of child terms
        children = sgfem.galerkin.child_corners

        def counted(mesh, rows):
            built.append((mesh, rows.size))
            return children(mesh, rows)

        monkeypatch.setattr(sgfem.galerkin, "child_corners", counted)
        trace = run_adaptive(
            lshape_benchmark(), criterion, MarkingParams(0.5, 0.5, 1.0), tol=5e-2
        )
        steps = [r.refine_type for r in trace.records]
        assert "spatial" in steps and "parametric" in steps

        meshes, first = [], {}
        for mesh, size in built:
            if id(mesh) in first:
                # a mode that a parametric step added, on every triangle
                assert size == mesh.num_triangles
            else:
                meshes.append(mesh)
                first[id(mesh)] = size
        assert len(meshes) == 1 + steps.count("spatial")
        assert first[id(meshes[0])] == meshes[0].num_triangles
        for coarse, mesh in zip(meshes, meshes[1:]):
            assert sgfem.mesh.bisected_edges(coarse, mesh) is not None
            assert (mesh.source >= 0).any()
            assert first[id(mesh)] == np.count_nonzero(mesh.source < 0)


class TestNonFinite:
    def test_nan_energy_raises(self, monkeypatch):
        solve = sgfem.driver.solve
        monkeypatch.setattr(sgfem.driver, "solve", lambda system, **kwargs: dataclasses.replace(
            solve(system, **kwargs), energy_sq=math.nan))
        with pytest.raises(AssertionError, match="non-finite energy"):
            run_adaptive(lshape_benchmark(), "A", tol=5e-2)

    def test_nan_estimate_raises(self, monkeypatch):
        def nan_indicators(system, u):
            return np.full(system.mesh.interior_edge_ids.size, math.nan)

        monkeypatch.setattr(sgfem.driver, "spatial_indicators", nan_indicators)
        with pytest.raises(AssertionError, match="non-finite estimate"):
            run_adaptive(lshape_benchmark(), "A", tol=5e-2)

    def test_nan_fails_online_check(self, monkeypatch):
        # the first call is the energy of the level 1 step difference
        monkeypatch.setattr(sgfem.driver, "b_energy", lambda system, U, V: math.nan)
        with pytest.raises(AssertionError, match="orthogonality"):
            run_adaptive(lshape_benchmark(), "A", tol=5e-2)


class TestReference:
    def test_reference_energy_dominates(self, short_trace, short_ref):
        for rec in short_trace.records:
            assert short_ref.energy_sq >= rec.energy_sq - 1e-12

    def test_difference_energy_identity(self, short_trace, short_ref):
        system = TensorSystem(MeshOperator(short_ref.mesh, lshape_benchmark()),
                              Coupling(short_ref.indices))
        U = short_ref.coeffs
        assert short_ref.energy_sq == pytest.approx(b_energy(system, U, U), rel=1e-12)
        up = prolong(short_trace.final_solution, system)
        gap = short_ref.energy_sq - b_energy(system, up, up)
        assert b_energy(system, U - up, U - up) == pytest.approx(gap, rel=1e-6)

    def test_effectivity_series(self, short_trace, short_ref):
        zetas = effectivity(short_trace, short_ref)
        assert len(zetas) == short_trace.num_levels
        for rec, z in zip(short_trace.records, zetas):
            if z is not None:
                gap = short_ref.energy_sq - rec.energy_sq
                assert z == pytest.approx(rec.eta / math.sqrt(gap), rel=1e-12)
                assert z > 0

    def test_effectivity_clamps_small_gaps(self, short_trace, short_ref):
        # with an absurd solver tolerance every gap counts as noise
        zetas = effectivity(dataclasses.replace(short_trace, solver_tol=1e3), short_ref)
        assert all(z is None for z in zetas)

    def test_contraction_series_positive(self, short_trace, short_ref):
        ratios = oracles.contraction_series(short_trace, short_ref)
        assert len(ratios) == short_trace.num_levels - 1
        assert all(0.0 < r < 1.0 + 1e-9 for r in ratios)

    def test_run_frees_its_operators_and_couplings(self, monkeypatch):
        # no operator or coupling of the run outlives it, the last mesh's
        # operator included: the reference solve only prolongs coefficients
        built = []
        for name in ("MeshOperator", "Coupling"):
            def recorded(*args, cls=getattr(sgfem.driver, name), **kwargs):
                obj = cls(*args, **kwargs)
                built.append((cls.__name__, weakref.ref(obj)))
                return obj

            monkeypatch.setattr(sgfem.driver, name, recorded)
        trace = run_adaptive(lshape_benchmark(), "A", MarkingParams(0.5, 0.5, 1.0), tol=5e-2)
        gc.collect()
        steps = {r.refine_type for r in trace.records}
        assert {"spatial", "parametric"} <= steps
        names = [name for name, _ in built]
        assert names.count("MeshOperator") > 1 and names.count("Coupling") > 1
        assert [name for name, ref in built if ref() is not None] == []
        assert trace.final_solution.coeffs.shape == (
            trace.final_mesh.free_nodes.size, len(trace.final_indices)
        )

    def test_reference_solve_holds_no_pattern(self, short_trace, monkeypatch):
        # the stiffness pattern, the load and the per-triangle table of the
        # reference mesh are dropped once its system is assembled: the solve
        # needs only A_m and the A_0 LU
        seen, systems = [], []
        real = sgfem.driver.solve

        def watched(system, **kwargs):
            systems.append(system)
            assert system.operator.table == {} and "load" not in vars(system.operator)
            seen.append("pattern" in vars(system.operator))
            u = real(system, **kwargs)
            seen.append("pattern" in vars(system.operator))
            return u

        monkeypatch.setattr(sgfem.driver, "solve", watched)
        reference_solution(short_trace)
        assert seen == [False, False]
        [system] = systems
        assert system.A[0] is system.operator.stiffness(0)

    def test_reference_solves_the_runs_problem(self, monkeypatch):
        # the problem and the solver tolerance come from the trace
        spec = lshape_benchmark(tau=0.5)
        trace = run_adaptive(spec, "A", MarkingParams(0.5, 0.5, 1.0), tol=1e-1, solver_tol=1e-8)
        calls, real = [], sgfem.driver.solve

        def watched(system, **kwargs):
            calls.append((system.spec, kwargs["tol"]))
            return real(system, **kwargs)

        monkeypatch.setattr(sgfem.driver, "solve", watched)
        reference_solution(trace)
        assert calls == [(spec, 1e-8)]

    def test_incomplete_trace_rejected(self):
        empty = AdaptiveTrace(spec=lshape_benchmark(), criterion="A", params=MarkingParams(),
                              tol=1e-2, solver_tol=1e-10)
        with pytest.raises(ValueError):
            reference_solution(empty)


class TestDiagnostics:
    def test_cumulative_cost(self):
        tr = AdaptiveTrace(spec=lshape_benchmark(), criterion="A", params=MarkingParams(),
                           tol=0.1, solver_tol=1e-10)
        tr.records = [make_record(0, 10, 1.0), make_record(1, 30, 0.5)]
        assert cumulative_cost(tr) == 40

    def test_fit_rate_recovers_synthetic_slope(self):
        tr = AdaptiveTrace(spec=lshape_benchmark(), criterion="A", params=MarkingParams(),
                           tol=0.1, solver_tol=1e-10)
        dofs = [10, 40, 160, 640]
        tr.records = [
            make_record(i, n, 3.0 * n**-0.5) for i, n in enumerate(dofs)
        ]
        assert fit_rate(tr) == pytest.approx(-0.5, abs=1e-12)

    def test_fit_rate_skips_degenerate_records(self):
        tr = AdaptiveTrace(spec=lshape_benchmark(), criterion="A", params=MarkingParams(),
                           tol=0.1, solver_tol=1e-10)
        tr.records = [make_record(0, 0, 0.9)] + [
            make_record(i + 1, n, 3.0 * n**-0.3) for i, n in enumerate([10, 100, 1000])
        ]
        assert fit_rate(tr) == pytest.approx(-0.3, abs=1e-12)

    def test_fit_rate_needs_three_points(self):
        tr = AdaptiveTrace(spec=lshape_benchmark(), criterion="A", params=MarkingParams(),
                           tol=0.1, solver_tol=1e-10)
        tr.records = [make_record(0, 10, 1.0), make_record(1, 20, 0.5)]
        with pytest.raises(ValueError):
            fit_rate(tr)


@st.composite
def adaptive_runs(draw):
    """run_adaptive's arguments over their admissible ranges, on loose
    tolerances and small caps: a criterion, its marking parameters, the
    problem, a starting mesh refined 0-2 times, `tol`, `max_iter` and
    `max_dof`."""
    criterion = draw(st.sampled_from("ABCD"))
    bulk = st.floats(0.0, 1.0, exclude_min=True)
    theta_p = draw(bulk if criterion in "AB" else st.one_of(st.just(0.0), bulk))
    params = MarkingParams(draw(bulk), theta_p, draw(st.floats(0.1, 10.0)))
    spec = lshape_benchmark(sigma=draw(st.floats(1.0, 4.0, exclude_min=True)),
                            tau=draw(st.floats(0.0, 0.95)))
    mesh = draw(st.sampled_from([initial_lshape, unit_square]))()
    for _ in range(draw(st.integers(0, 2))):
        num_new = mesh.interior_edge_ids.size
        mesh = refine(mesh, draw(st.sets(st.integers(0, num_new - 1), min_size=1)))
    return dict(spec=spec, criterion=criterion, params=params, mesh=mesh,
                tol=draw(st.floats(5e-2, 0.5)), max_iter=draw(st.integers(0, 8)),
                max_dof=draw(st.integers(1, 20_000)))


# Derandomized: about 1 in 1000 random draws runs into the quadrature defect
# pinned below, which would make the suite fail at random.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(run=adaptive_runs())
# The Pythagoras check trips at level 3 (deviation 5.05e-6): the 7-point rule
# integrates a_1 = A cos(2 pi y) on the coarse triangles and on their
# children differently, so B of the fine mesh at the prolonged coarse
# solution is not the coarse energy.
@example(run=dict(spec=lshape_benchmark(sigma=3.0, tau=0.75), criterion="A",
                  params=MarkingParams(0.5, 1.0, 3.0), mesh=refine(initial_lshape(), [0, 2, 3]),
                  tol=5e-2, max_iter=8, max_dof=20_000)).xfail(
    raises=AssertionError, reason="quadrature differs between a mesh and its refinement")
def test_guarantees_on_drawn_problems(run):
    # the online checks raise AssertionError; past them, the energy grows
    # and every realized step reduces the error by at least its lower bound
    trace = run_adaptive(**run)
    assert trace.stop_reason in ("tol", "max_iter", "max_dof", "estimator_zero")
    energies = [r.energy_sq for r in trace.records]
    assert all(a <= b for a, b in zip(energies, energies[1:])), energies
    assert all(c.reduction_ratio <= 1.0 + sgfem.driver._CHECK_SLACK for c in trace.checks)
