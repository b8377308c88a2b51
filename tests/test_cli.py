import contextlib
import dataclasses
import io
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import sgfem
import sgfem.driver
import sgfem.galerkin
from sgfem import (
    Mesh,
    ProblemSpec,
    SolverError,
    lshape_benchmark,
    refine,
    uniform_refine,
    unit_square,
    write_mesh,
)
from sgfem.mesh import initial_lshape
from sgfem.cli import (
    CSV_HEADER,
    EXIT_CAP,
    EXIT_ERROR,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _build_spec,
    _parse_range,
    _read_config,
    build_parser,
    main,
)
from test_mesh import DUPLICATE_TRIANGLE_MESHES, STRAY_VERTICES_MESH, T_JUNCTION_MESH

RUN_ARGS = ["run", "--criterion", "A", "--tol", "5e-2"]


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestRun:
    def test_run_writes_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(RUN_ARGS + ["--output", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) >= 3
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        # zeta column is empty without --with-reference
        assert all(r[-1] == "" for r in rows)
        # estimator column hits the tolerance on the last row
        assert float(rows[-1][5]) <= 5e-2

    @pytest.mark.parametrize("extra, bound", [
        # tau = 0.9 at the smallest tolerance: some 200 iterations, cap 2970
        (["--solver-tol", "1e-300"], 1484),
        # tau = 0: the preconditioner is exact; rho = 0 is taken as eps
        (["--amplitude", "0"], 1),
        (["--amplitude", "0", "--solver-tol", "1e-300"], 20),
    ])
    def test_solver_extremes_stay_within_the_bound(self, tmp_path, extra, bound):
        out = tmp_path / "trace.csv"
        assert main(RUN_ARGS + extra + ["--output", str(out)]) == EXIT_OK
        assert max(int(row[11]) for row in read_csv(out)) <= bound

    def test_config_echo_written(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(RUN_ARGS + ["--output", str(out)])
        echo = (tmp_path / "trace.csv.config").read_text(encoding="utf-8")
        assert "criterion = A" in echo
        assert "tol = 0.05" in echo
        assert "sigma = 2" in echo

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(RUN_ARGS + ["--output", str(first)])
        main(RUN_ARGS + ["--output", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_with_reference_fills_zeta(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(RUN_ARGS + ["--with-reference", "--output", str(out)]) == EXIT_OK
        rows = read_csv(out)
        zetas = [r[-1] for r in rows]
        filled = [float(z) for z in zetas if z != ""]
        assert filled
        assert all(0.0 < z < 2.0 for z in filled)

    @staticmethod
    def run_with_blas_threads(argv, out, threads):
        """CSV and stdout of `sgfem` in a fresh interpreter, with
        OPENBLAS_NUM_THREADS = threads (unset for None)."""
        src = str(Path(sgfem.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "sgfem.cli", *argv, "--output", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        return out.read_bytes(), proc.stdout

    def test_csv_independent_of_blas_threads(self, tmp_path):
        # the smallest run whose CSV changed with the BLAS thread count when
        # inner products went through threaded BLAS ddot (the zeta column)
        argv = ["run", "--criterion", "A", "--tol", "6e-2", "--with-reference"]
        one, two = (self.run_with_blas_threads(argv, tmp_path / f"trace-{t}.csv", t)[0]
                    for t in ("1", "2"))
        assert one == two

    def test_reference_run_independent_of_blas_threads(self, tmp_path):
        # the benchmark's `reference` command line: its reference solve
        # (309k dofs) runs on the pool, its adaptive run below the gate
        argv = ["run", "--criterion", "A", "--tol", "2.5e-2", "--with-reference"]
        one, default = (self.run_with_blas_threads(argv, tmp_path / f"trace-{k}.csv", t)
                        for k, t in enumerate(("1", None)))
        assert one == default

    def test_max_dof_cap(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            ["run", "--tol", "1e-8", "--max-dof", "200", "--output", str(out)]
        )
        assert code == EXIT_CAP
        assert out.exists()

    def test_mesh_file_input(self, tmp_path):
        mesh_file = tmp_path / "initial.mesh"
        write_mesh(initial_lshape(), mesh_file)
        out = tmp_path / "trace.csv"
        ref = tmp_path / "ref.csv"
        assert main(RUN_ARGS + ["--mesh", str(mesh_file), "--output", str(out)]) == EXIT_OK
        main(RUN_ARGS + ["--output", str(ref)])
        assert out.read_bytes() == ref.read_bytes()


class TestErrors:
    def test_unknown_flag(self):
        assert main(["run", "--bogus"]) == EXIT_USAGE

    def test_bad_criterion(self):
        assert main(["run", "--criterion", "E"]) == EXIT_USAGE

    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_invalid_tau(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["run", "--tau", "1.5", "--output", str(out)]) == EXIT_ERROR

    @pytest.mark.parametrize("flag, value, message", [
        ("--tau", "1.5", "tau must lie in [0, 1)"),
        ("--amplitude", "0.9", "inadmissible problem: tau = 1.48044 >= 1"),
    ])
    def test_inadmissible_problem_message(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "trace.csv"
        assert main(["run", flag, value, "--output", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [f"sgfem: error: {message}"]

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma = 2\nwavelength = 7\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tol", "nan"),
            ("--tol", "-1"),
            ("--tol", "0"),
            ("--tol", "inf"),
            ("--solver-tol", "nan"),
            ("--solver-tol", "0"),
            ("--solver-tol", "1"),
            ("--max-iter", "-3"),
            ("--max-dof", "-5"),
            ("--max-dof", "0"),
        ],
    )
    def test_bad_tolerance(self, tmp_path, capsys, flag, value):
        out = tmp_path / "trace.csv"
        assert main(["run", flag, value, "--output", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: ")
        assert flag[2:].replace("-", "_") in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_vartheta(self, tmp_path, capsys, value):
        out = tmp_path / "trace.csv"
        argv = ["run", f"--vartheta={value}", "--tol", "5e-2", "--max-iter", "4"]
        assert main(argv + ["--output", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: ")
        assert "vartheta" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sigma", "nan"),
            ("--sigma", "inf"),
            ("--sigma", "-inf"),
            ("--sigma", "1"),
            ("--amplitude", "nan"),
            ("--amplitude", "inf"),
            ("--amplitude", "-inf"),
            ("--amplitude", "-0.1"),
        ],
    )
    def test_bad_problem_parameter(self, tmp_path, capsys, flag, value):
        out = tmp_path / "trace.csv"
        argv = ["run", f"{flag}={value}", "--tol", "5e-2", "--max-iter", "4"]
        assert main(argv + ["--output", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: ")
        assert flag[2:] in err[0]
        assert not out.exists()

    def test_mesh_file_without_triangles(self, tmp_path, capsys):
        mesh_file = tmp_path / "empty.mesh"
        mesh_file.write_text("vertices 0 triangles 0\n", encoding="utf-8")
        out = tmp_path / "trace.csv"
        assert main(["run", "--mesh", str(mesh_file), "--output", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: ")
        assert "no triangles" in err[0]
        assert not out.exists()

    def test_mesh_file_with_vertex_of_no_triangle(self, tmp_path, capsys):
        # a free vertex of no triangle would give A_0 a zero row
        mesh_file = tmp_path / "stray.mesh"
        mesh_file.write_text(STRAY_VERTICES_MESH, encoding="utf-8")
        out = tmp_path / "trace.csv"
        assert main(["run", "--mesh", str(mesh_file), "--output", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: ")
        assert "vertex 4 belongs to no triangle" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("vertices", sorted(DUPLICATE_TRIANGLE_MESHES))
    def test_mesh_file_with_duplicate_triangle(self, tmp_path, capsys, vertices):
        # free vertices made A_0 singular; boundary ones ran to the cap
        mesh_file = tmp_path / "twice.mesh"
        mesh_file.write_text(DUPLICATE_TRIANGLE_MESHES[vertices], encoding="utf-8")
        out = tmp_path / "trace.csv"
        argv = ["run", "--mesh", str(mesh_file), "--max-iter", "5", "--output", str(out)]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: ")
        assert "do not tile the region their boundary encloses" in err[0]
        assert not out.exists()

    def test_mesh_file_with_t_junction(self, tmp_path, capsys):
        # the vertex inside the diagonal left the run no free node at all
        mesh_file = tmp_path / "t.mesh"
        mesh_file.write_text(T_JUNCTION_MESH, encoding="utf-8")
        out = tmp_path / "trace.csv"
        argv = ["run", "--mesh", str(mesh_file), "--tol", "1e-1", "--output", str(out)]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: ")
        assert "vertex 4 lies inside boundary edge (0, 2)" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("body, missing", [
        ("vertices 100000000000 triangles 1\n0 0 1\n", "line 3 (vertex 1) is missing"),
        ("vertices 3 triangles 1\n0 0 1\n1 0 1\n0 1 1\n", "line 5 (triangle 0) is missing"),
    ])
    def test_mesh_file_shorter_than_its_header(self, tmp_path, capsys, body, missing):
        mesh_file = tmp_path / "short.mesh"
        mesh_file.write_text(body, encoding="utf-8")
        out = tmp_path / "trace.csv"
        assert main(["run", "--mesh", str(mesh_file), "--output", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: ")
        assert missing in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", " 2", ""])
    def test_bad_sgfem_threads(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("SGFEM_THREADS", value)
        outdir = tmp_path / "sweep"
        argv = ["sweep", "--tol", "5e-2", "--output-dir", str(outdir)]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: ")
        assert "SGFEM_THREADS" in err[0]
        assert not outdir.exists()

    def test_config_file_used(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("sigma = 2\ntau = 0.9\n", encoding="utf-8")
        out = tmp_path / "trace.csv"
        ref = tmp_path / "ref.csv"
        assert main(RUN_ARGS + ["--config", str(cfg), "--output", str(out)]) == EXIT_OK
        main(RUN_ARGS + ["--output", str(ref)])
        assert out.read_bytes() == ref.read_bytes()


def config_file(tmp_path, text):
    cfg = tmp_path / "problem.cfg"
    cfg.write_text(text, encoding="utf-8")
    return cfg


def spec_of(tmp_path, text, *flags):
    """The problem and mesh that `sgfem run` takes from a config file of
    `text` and the command-line `flags`."""
    args = build_parser().parse_args(["run", "--config", str(config_file(tmp_path, text)), *flags])
    return _build_spec(args), args.mesh


class TestConfig:
    def config(self, tmp_path, text):
        return _read_config(config_file(tmp_path, text))

    def test_parse_basic(self, tmp_path):
        text = "sigma = 2.5\ntau = 0.4  # comment\nmesh = lshape\n\n# full-line comment\n"
        assert self.config(tmp_path, text) == {"sigma": 2.5, "tau": 0.4, "mesh": "lshape"}

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key"):
            self.config(tmp_path, "theta = 0.5\n")

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            self.config(tmp_path, "sigma = 2\nsigma = 3\n")

    def test_tau_amplitude_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="mutually exclusive"):
            self.config(tmp_path, "tau = 0.5\namplitude = 0.1\n")

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="key=value"):
            self.config(tmp_path, "sigma 2.0\n")

    def test_unsupported_rhs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rhs"):
            self.config(tmp_path, "rhs = sin\n")

    def test_build_spec_defaults(self, tmp_path):
        spec, mesh = spec_of(tmp_path, "")
        bench = lshape_benchmark()
        assert spec.sigma == bench.sigma
        assert spec.amplitude == pytest.approx(bench.amplitude, rel=1e-14)
        assert mesh == "lshape"

    def test_build_spec_amplitude(self, tmp_path):
        spec, _ = spec_of(tmp_path, "sigma = 3.0\namplitude = 0.2\n")
        assert spec.amplitude == 0.2
        with pytest.raises(ValueError):
            spec_of(tmp_path, "sigma = 2.0\namplitude = 0.9\n")

    @pytest.mark.parametrize("settings, message", [
        ({"tau": 1.0}, r"tau must lie in \[0, 1\)"),
        ({"tau": -0.1}, r"tau must lie in \[0, 1\)"),
        pytest.param({"amplitude": 0.9},
                     r"inadmissible problem: tau = 1.48044 >= 1",
                     id="settings2-inadmissible amplitude"),
    ])
    def test_inadmissible_settings(self, tmp_path, settings, message):
        # amplitude_from_tau checks a given tau, ProblemSpec the tau of a
        # given amplitude; the config reader adds no check of its own
        text = "".join(f"{key} = {value}\n" for key, value in settings.items())
        with pytest.raises(ValueError, match=message):
            spec_of(tmp_path, text)

    @pytest.mark.parametrize("text, flag, value", [
        ("sigma = 3\n", "--sigma", "1.5"),
        ("tau = 0.5\n", "--tau", "0.8"),
        ("amplitude = 0.2\n", "--amplitude", "0.1"),
        # the file's mesh is never read
        ("mesh = missing.mesh\n", "--mesh", "lshape"),
    ])
    def test_flag_overrides_file(self, tmp_path, text, flag, value):
        cfg = config_file(tmp_path, text)
        both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
        argv = RUN_ARGS + [flag, value]
        assert main(argv + ["--config", str(cfg), "--output", str(both)]) == EXIT_OK
        assert main(argv + ["--output", str(alone)]) == EXIT_OK
        for suffix in ("", ".config"):
            assert (Path(f"{both}{suffix}").read_bytes()
                    == Path(f"{alone}{suffix}").read_bytes())

    def test_tau_and_amplitude_flags_drop_the_other_key(self, tmp_path):
        # the file's sigma stays; its amplitude or tau gives way to the flag
        spec, _ = spec_of(tmp_path, "sigma = 3\namplitude = 0.2\n", "--tau", "0.5")
        assert spec == lshape_benchmark(sigma=3.0, tau=0.5)
        spec, _ = spec_of(tmp_path, "sigma = 3\ntau = 0.5\n", "--amplitude", "0.1")
        assert spec == ProblemSpec(sigma=3.0, amplitude=0.1)

    @pytest.mark.parametrize("flag, value", [
        ("--tau", "0.5"), ("--amplitude", "0.1"), ("--sigma", "3"),
    ])
    def test_file_with_both_keys_rejected_with_a_flag(self, tmp_path, capsys, flag, value):
        cfg = config_file(tmp_path, "tau = 0.5\namplitude = 0.1\n")
        out = tmp_path / "trace.csv"
        argv = ["run", "--config", str(cfg), flag, value, "--output", str(out)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "sgfem: error: config keys 'tau' and 'amplitude' are mutually exclusive"]
        assert not out.exists()

    def test_both_flags_rejected(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["run", "--tau", "0.5", "--amplitude", "0.1", "--output", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "sgfem: error: --tau and --amplitude are mutually exclusive"]


class TestNumericFailure:
    @staticmethod
    def failing_solve(*args, **kwargs):
        raise SolverError("PCG breakdown: r.Mr = nan at iteration 0", [])

    def test_solver_error_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sgfem.driver, "solve", self.failing_solve)
        out = tmp_path / "trace.csv"
        assert main(RUN_ARGS + ["--output", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert err == ["sgfem: error: PCG breakdown: r.Mr = nan at iteration 0"]
        assert not out.exists()

    def test_stalled_solve_exits_at_its_cap(self, tmp_path, monkeypatch, capsys):
        # without its preconditioner, CG on the L-shape refined four times
        # (705 free nodes) soon needs more than the cap of 110 iterations
        mesh = initial_lshape()
        for _ in range(4):
            mesh = uniform_refine(mesh)
        write_mesh(mesh, tmp_path / "fine.mesh")
        monkeypatch.setattr(sgfem.galerkin.TensorSystem, "precondition", lambda self, R: R.copy())
        out = tmp_path / "trace.csv"
        argv = RUN_ARGS + ["--mesh", str(tmp_path / "fine.mesh"), "--output", str(out)]
        assert main(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "sgfem: error: PCG did not reach tol 1e-10 in its cap of 110 iterations (the bound "
            "at tau = 0.9 is 54; relative residual ")
        assert not out.exists()

    def test_failed_online_check_exit(self, tmp_path, monkeypatch, capsys):
        solve = sgfem.driver.solve
        monkeypatch.setattr(sgfem.driver, "solve", lambda system, **kwargs: dataclasses.replace(
            solve(system, **kwargs), energy_sq=math.nan))
        out = tmp_path / "trace.csv"
        assert main(RUN_ARGS + ["--output", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: non-finite energy")

    def test_loose_solver_tol_named_by_the_failed_check(self, tmp_path, capsys):
        # inexact solves break the Pythagoras identity that the online check
        # asserts (5.4e-6 > 1e-6 at level 10); the message names the tolerance
        out = tmp_path / "trace.csv"
        assert main(RUN_ARGS + ["--solver-tol", "1e-4", "--output", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: energy orthogonality violated")
        assert err[0].endswith("(solver_tol 0.0001)")
        assert not out.exists()

    def test_sweep_solver_error_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sgfem.driver, "solve", self.failing_solve)
        code = main(["sweep", "--tol", "5e-2", "--output-dir", str(tmp_path / "sweep")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("sgfem: error: PCG breakdown")


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        outdir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--tol", "5e-2",
                "--theta-x", "0.4,0.6",
                "--theta-p", "0.5",
                "--output-dir", str(outdir),
            ]
        )
        assert code == EXIT_OK
        summary = (outdir / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0] == "theta_x,theta_p,cost,rate,levels,reached_tol"
        assert len(summary) == 3
        for tx in (0.4, 0.6):
            per_point = outdir / f"run_thx{tx:g}_thp0.5.csv"
            rows = read_csv(per_point)
            assert len(rows) >= 2
        costs = [float(line.split(",")[2]) for line in summary[1:]]
        assert all(c > 0 for c in costs)

    def test_threaded_points_match_single_runs(self, tmp_path, monkeypatch):
        # the grid points share the initial mesh; each run keeps its own
        # mesh operators and coupling blocks, so threads change no output
        monkeypatch.setenv("SGFEM_THREADS", "2")
        common = ["--tol", "3e-2", "--sigma", "1.5", "--vartheta", "10"]
        outdir = tmp_path / "sweep"
        argv = ["sweep", *common, "--theta-x", "0.4,0.6", "--output-dir", str(outdir)]
        assert main(argv) == EXIT_OK
        for tx in ("0.4", "0.6"):
            single = tmp_path / f"run-{tx}.csv"
            assert main(["run", *common, "--theta-x", tx, "--output", str(single)]) == EXIT_OK
            swept = outdir / f"run_thx{tx}_thp0.5.csv"
            assert swept.read_bytes() == single.read_bytes()

    def test_points_equal_to_six_digits_get_their_own_files(self, tmp_path):
        # '%g' named both points run_thx0.5_thp0.5.csv: one trace was lost
        outdir = tmp_path / "sweep"
        argv = ["sweep", "--tol", "1e-1", "--theta-x", "0.5,0.5000001", "--output-dir", str(outdir)]
        assert main(argv) == EXIT_OK
        assert sorted(p.name for p in outdir.glob("run_*.csv")) == [
            "run_thx0.5000001_thp0.5.csv", "run_thx0.5_thp0.5.csv"]
        summary = (outdir / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[:2] for line in summary[1:]] == [["0.5", "0.5"], ["0.5000001", "0.5"]]

    def test_repeated_grid_point_rejected(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--theta-x", "0.5,0.5", "--output-dir", str(outdir)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: repeated grid point")
        assert not outdir.exists()

    def test_sweep_cap_exit(self, tmp_path):
        outdir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--tol", "1e-8",
                "--max-dof", "200",
                "--theta-x", "0.5",
                "--theta-p", "0.5",
                "--output-dir", str(outdir),
            ]
        )
        assert code == EXIT_CAP


class TestParseRange:
    def test_single_value(self):
        assert _parse_range("0.5") == [0.5]

    def test_list(self):
        assert _parse_range("0.3,0.5,0.7") == [0.3, 0.5, 0.7]

    def test_range_with_step(self):
        assert np.allclose(_parse_range("0.3..0.5..0.1"), [0.3, 0.4, 0.5])

    def test_range_default_step(self):
        values = _parse_range("0.2..0.4")
        assert values[0] == pytest.approx(0.2)
        assert values[-1] == pytest.approx(0.4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            _parse_range("0.5..0.3..0.1")

    @pytest.mark.parametrize(
        "text",
        ["0.1..0.9..0", "0.1..0.9..-0.1", "0.1..0.9..nan", "0.1..0.9..inf",
         "0.1..nan", "nan..0.9", "0.1..inf..0.1"],
    )
    def test_step_that_never_passes_hi_rejected(self, text):
        # zero, negative or NaN steps and NaN or infinite bounds never pass
        # hi, so the loop would append forever; an infinite step is no range
        with pytest.raises(ValueError, match="bad range"):
            _parse_range(text)

    @pytest.mark.parametrize("text, values", [
        ("0.999999999999..1..1e-12", [0.999999999999, 1.0]),
        ("0.5..0.5..1e-12", [0.5]),
    ])
    def test_no_point_above_hi(self, text, values):
        # rounded to 12 digits, lo + k step once passed hi by up to 1e-12
        assert _parse_range(text) == values

    def test_sweep_up_to_one(self, tmp_path):
        # a theta of 1.000000000001 stopped the sweep after two grid points
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--theta-x", "0.999999999999..1..1e-12", "--theta-p", "0.5",
                     "--tol", "1e-1", "--output-dir", str(outdir)])
        assert code == 0
        assert len((outdir / "summary.csv").read_text().splitlines()) == 3

    @staticmethod
    def assert_sweep_rejects_range(tmp_path, *flags):
        """`sgfem sweep` with `flags` exits 1 with one 'bad range' line and
        makes no output directory, in a child with bounded memory and time
        that fails fast where the parse would never return."""
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        outdir = tmp_path / "sweep"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(Path(sgfem.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sgfem.cli", "sweep", *flags, "--output-dir", str(outdir)],
            env=env, capture_output=True, text=True, timeout=20, preexec_fn=limit_memory,
        )
        assert proc.returncode == EXIT_ERROR
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: bad range")
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "text",
        ["0.1..0.9..1e-300", "0.1..0.9..1e-13", "0..1e9..1", "1..2", "0.5..1.5..0.1",
         "0..1..1e-12"],
    )
    def test_range_rejected_before_it_is_built(self, tmp_path, text):
        # a step below the 12-digit rounding never moved past lo, or only
        # every tenth time; ends outside [0, 1] built the list before any
        # theta was checked; a valid step of 1e-12 asked for 1e12 points
        self.assert_sweep_rejects_range(tmp_path, "--theta-x", text)

    def test_grid_rejected_before_it_is_built(self, tmp_path):
        # 1000 valid thetas on each axis: each list is small, the grid of
        # 1e6 points is not, and would run for days
        self.assert_sweep_rejects_range(
            tmp_path, "--theta-x", "0.001..1..1e-3", "--theta-p", "0.001..1..1e-3")

    def test_grid_cap_counts_both_axes(self):
        # 10,000 points pass, on one axis or as a product; one more fails
        assert len(_parse_range("0..0.9999..1e-4")) == 10_000
        assert len(_parse_range("0..0.99..1e-2", 100)) == 100
        with pytest.raises(ValueError, match="bad range '0..1..1e-4': a grid of 10001 points"):
            _parse_range("0..1..1e-4")
        with pytest.raises(ValueError, match="a grid of 10100 points"):
            _parse_range("0..1..1e-2", 100)
        with pytest.raises(ValueError, match="a grid of 10001 points"):
            _parse_range(",".join(["0.5"] * 10_001))

    def test_sweep_bad_step_exit(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        code = main(["sweep", "--theta-x", "0.1..0.9..0", "--output-dir", str(outdir)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sgfem: error: bad range")
        assert not outdir.exists()


# valid meshes to mutate: all vertices on the boundary, some free, one triangle
FUZZ_MESHES = (
    initial_lshape(),
    refine(initial_lshape(), [0]),
    unit_square(),
    Mesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), boundary=np.ones(3, dtype=bool),
         triangles=np.array([[0, 1, 2]]), ref_edge=np.array([0])),
)


def mesh_lines(mesh) -> list[str]:
    """The lines of `mesh` in the mesh file format."""
    return ([f"vertices {mesh.num_vertices} triangles {mesh.num_triangles}"]
            + [f"{x!r} {y!r} {int(b)}" for (x, y), b in zip(mesh.vertices.tolist(), mesh.boundary)]
            + [f"{a} {b} {c} {r}"
               for (a, b, c), r in zip(mesh.triangles.tolist(), mesh.ref_edge.tolist())])


@st.composite
def mutated_mesh_files(draw):
    """The text of a mesh file made from a valid mesh by one or two edits of
    its arrays (drop, duplicate or reverse a triangle, flip a boundary flag,
    put a reference edge out of range), then maybe one edit of its text (a
    non-finite coordinate, a truncated line); with the edited mesh, or None
    after a text edit."""
    mesh = draw(st.sampled_from(FUZZ_MESHES))
    tris, refs, boundary = mesh.triangles.copy(), mesh.ref_edge.copy(), mesh.boundary.copy()
    edits = st.sampled_from(["drop", "duplicate", "reverse", "flip", "ref_edge"])
    for edit in draw(st.lists(edits, min_size=1, max_size=2)):
        t = draw(st.integers(0, len(tris) - 1))
        if edit == "drop" and len(tris) > 1:
            tris, refs = np.delete(tris, t, axis=0), np.delete(refs, t)
        elif edit == "duplicate":
            tris, refs = np.insert(tris, t, tris[t], axis=0), np.insert(refs, t, refs[t])
        elif edit == "reverse":
            tris[t] = tris[t, ::-1]
        elif edit == "flip":
            v = draw(st.integers(0, len(boundary) - 1))
            boundary[v] = not boundary[v]
        elif edit == "ref_edge":
            refs[t] = draw(st.sampled_from([-1, 3]))
    mesh = dataclasses.replace(mesh, boundary=boundary, triangles=tris, ref_edge=refs)
    lines = mesh_lines(mesh)
    text_edit = draw(st.sampled_from([None, "non_finite", "truncate"]))
    if text_edit == "non_finite":
        k = draw(st.integers(1, mesh.num_vertices))
        fields = lines[k].split()
        fields[draw(st.integers(0, 1))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        lines[k] = " ".join(fields)
    elif text_edit == "truncate":
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = lines[k][: draw(st.integers(0, len(lines[k]) - 1))]
    return "\n".join(lines) + "\n", mesh if text_edit is None else None


@settings(max_examples=60, deadline=None)
@given(case=mutated_mesh_files())
@example(case=(DUPLICATE_TRIANGLE_MESHES["free"], None))
@example(case=(DUPLICATE_TRIANGLE_MESHES["boundary"], None))
def test_mutated_mesh_files(case):
    """``sgfem run`` on a mutated mesh file never raises and warns nothing.
    It exits with a documented code; an error exit writes exactly one
    ``sgfem: error:`` line, while a run that stops at the tolerance or the
    cap writes none.  A mesh the oracle audit rejects exits 1.  The runs are
    tiny: tolerance 1e-1, at most 5 levels."""
    text, mesh = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.mesh"
        path.write_text(text, encoding="utf-8")
        argv = ["run", "--mesh", str(path), "--tol", "1e-1", "--max-iter", "5",
                "--output", str(Path(tmp) / "trace.csv")]
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_CAP, EXIT_NUMERIC, EXIT_USAGE)
    lines = err.getvalue().splitlines()
    if code in (EXIT_OK, EXIT_CAP):
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("sgfem: error: "), lines
    if mesh is not None and not oracles.mesh_audit(mesh).ok:
        assert code == EXIT_ERROR
