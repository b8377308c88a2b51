"""Golden trajectories: the columns of the benchmark's three command lines, the
PCG iteration count of the reference solve, and the records of the desk runs
(the session fixtures ``desk_runs`` and ``runs_07``), pinned to a fixture.

A change to the solver or the preconditioner that costs one PCG iteration, or
an estimator change that moves one marked vertex, shows here even when every
invariant still holds.  The integer columns must match exactly; the float
columns (estimates, energy, effectivity) within a relative 1e-12, which admits
a change of summation order but not a change of method.  Regenerate the
fixture only for a change that is meant to move the adaptive path:

    PYTHONPATH=src python tests/test_golden.py

The fixture also pins sha256 digests of each command line's CSV, ``.config``
echo and stdout, and of each desk run's CSV (``format_trace_csv``, the bytes
``sgfem run --criterion X --theta-x 0.5 --theta-p 0.5 --tol 1e-2`` writes).
SuperLU reaches BLAS through scipy's bundled OpenBLAS, whose kernels (chosen
by CPU, or by ``OPENBLAS_CORETYPE``) round the factors of A_0 differently in
the last bits, so the fixture keeps one digest set per kernel, each with the
numpy and scipy versions it was made with.  A set is compared only on its
kernel and under its versions; on a kernel without a set the digest tests
skip and name it.  A change that keeps the 1e-12 checks but moves a digest
has moved a last bit; it regenerates the fixture as a declared test change,
the digests of the other kernels included:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_golden.py --digests

which writes only the running kernel's digests and keeps the rest.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy

import sgfem.cli
from sgfem.cli import CSV_HEADER, format_trace_csv, main
from sgfem.problem import contrast_bounds, lshape_benchmark

FIXTURE = Path(__file__).with_name("golden_trajectories.json")

# the argument lists of perfbench/workloads.py
COMMAND_LINES = {
    "desk-B": ["run", "--criterion", "B", "--theta-x", "0.5", "--theta-p", "0.5",
               "--tol", "2e-2"],
    "param-rich": ["run", "--criterion", "A", "--sigma", "1.5", "--tau", "0.9",
                   "--vartheta", "10", "--tol", "2.3e-2"],
    "reference": ["run", "--criterion", "A", "--tol", "2.5e-2", "--with-reference"],
}

INTEGER_COLUMNS = ("refine_type", "dim_x", "card_p", "n_total", "marked",
                   "max_active_dim", "solver_iters", "cum_cost")
FLOAT_COLUMNS = ("eta", "eta_spatial", "eta_param", "energy_sq", "zeta")
# relative bound on the float columns
FLOAT_RTOL = 1e-12

# IterationRecord fields pinned for the desk runs
RECORD_INTEGERS = ("refine_type", "dim_x", "card_p", "n_dof", "n_marked",
                   "max_active_dim", "solver_iterations")
RECORD_FLOATS = ("eta", "eta_spatial", "eta_parametric", "energy_sq")


def blas_kernel() -> str:
    """The kernel that scipy's bundled OpenBLAS runs, which follows the CPU
    or ``OPENBLAS_CORETYPE``; "unknown" for another BLAS."""
    for lib in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trajectory(name: str, outdir: Path) -> dict:
    """Run one command line; its integer columns by name as strings, its
    float columns as floats (None for an empty ``zeta``), the PCG
    iterations of each reference solve it makes, and the digests of its
    outputs with the numpy and scipy versions."""
    header = CSV_HEADER.split(",")
    solves = []
    real = sgfem.cli.reference_solution

    def counted(*args, **kwargs):
        u = real(*args, **kwargs)
        solves.append(u.iterations)
        return u

    out = outdir / f"{name}.csv"
    stdout = io.StringIO()
    sgfem.cli.reference_solution = counted
    try:
        with contextlib.redirect_stdout(stdout):
            main(COMMAND_LINES[name] + ["--output", str(out)])
    finally:
        sgfem.cli.reference_solution = real
    digests = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "csv": sha256(out.read_bytes()),
        "config": sha256(out.with_name(out.name + ".config").read_bytes()),
        "stdout": sha256(stdout.getvalue().encode("utf-8")),
    }
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    columns = {c: [row[header.index(c)] for row in rows] for c in INTEGER_COLUMNS}
    floats = {c: [float(row[header.index(c)]) if row[header.index(c)] else None
                  for row in rows] for c in FLOAT_COLUMNS}
    return {"columns": columns, "floats": floats, "reference_pcg_iters": solves,
            "digests": digests}


def records(trace) -> dict:
    """The stop reason and the pinned record fields of one adaptive run."""
    return {
        "stop_reason": trace.stop_reason,
        "integers": {f: [getattr(r, f) for r in trace.records] for f in RECORD_INTEGERS},
        "floats": {f: [getattr(r, f) for r in trace.records] for f in RECORD_FLOATS},
    }


def csv_digests(trace) -> dict:
    """The digest of one adaptive run's CSV, with the numpy and scipy
    versions."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "csv": sha256(format_trace_csv(trace).encode("utf-8")),
    }


def close(got, want) -> bool:
    return got is want is None or (
        got is not None and want is not None and abs(got - want) <= FLOAT_RTOL * abs(want)
    )


def assert_close(got: list, want: list, where) -> None:
    assert len(got) == len(want), where
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if not close(g, w)]
    assert not bad, (where, bad)


def expected_digests(got: dict, stored: dict) -> dict:
    """The digests of `stored` (one set per BLAS kernel) that `got` must
    equal; skips without a set for this kernel, or under other numpy and
    scipy versions than the set was made with."""
    kernel = blas_kernel()
    if kernel not in stored:
        pytest.skip(f"no digests for the {kernel} BLAS kernel, only for {', '.join(sorted(stored))}")
    want = stored[kernel]
    if [got[v] for v in ("numpy", "scipy")] != [want[v] for v in ("numpy", "scipy")]:
        pytest.skip(f"{kernel} digests were made with numpy {want['numpy']}, scipy {want['scipy']}")
    return want


def digest_holders(data: dict) -> list[dict]:
    """The entries of a fixture that carry digests: the command lines and
    the desk runs."""
    return [data[name] for name in COMMAND_LINES] + [data["desk_runs"][c] for c in sorted(data["desk_runs"])]


def load_fixture() -> dict:
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted([*COMMAND_LINES, "desk_runs", "runs_07"])
    return golden


@pytest.fixture(scope="module")
def trajectories(tmp_path_factory):
    """The three command lines, each run once for both tests below."""
    outdir = tmp_path_factory.mktemp("golden")
    return {name: trajectory(name, outdir) for name in COMMAND_LINES}


def test_golden_trajectories(trajectories):
    golden = load_fixture()
    assert golden["reference"]["reference_pcg_iters"] == [18]
    for name in COMMAND_LINES:
        got = trajectories[name]
        for column in INTEGER_COLUMNS:
            assert got["columns"][column] == golden[name]["columns"][column], (name, column)
        for column in FLOAT_COLUMNS:
            assert_close(got["floats"][column], golden[name]["floats"][column], (name, column))
        assert got["reference_pcg_iters"] == golden[name]["reference_pcg_iters"], name


def test_output_digests(trajectories):
    golden = load_fixture()
    for name in COMMAND_LINES:
        got = trajectories[name]["digests"]
        assert got == expected_digests(got, golden[name]["digests"]), name


def test_desk_run_records(desk_runs, runs_07):
    golden = load_fixture()
    for name, runs in (("desk_runs", desk_runs), ("runs_07", runs_07)):
        assert sorted(golden[name]) == sorted(runs), name
        for crit, trace in runs.items():
            got, want = records(trace), golden[name][crit]
            assert got["stop_reason"] == want["stop_reason"], (name, crit)
            for field in RECORD_INTEGERS:
                assert got["integers"][field] == want["integers"][field], (name, crit, field)
            for field in RECORD_FLOATS:
                assert_close(got["floats"][field], want["floats"][field], (name, crit, field))


def test_recorded_iterations_within_the_cg_bound():
    """Every PCG solve the fixture records, adaptive and reference, takes at
    most ceil(ln(2 sqrt(kappa) / tol) / -ln rho) iterations, the bound from
    which ``solve`` sets its cap: all runs here are tau = 0.9 (kappa = 19)
    at solver tol 1e-10.  Reads the fixture only."""
    golden = load_fixture()
    bounds = contrast_bounds(lshape_benchmark(tau=0.9))
    root = math.sqrt(bounds.Lam / bounds.lam)
    bound = math.ceil(math.log(2.0 * root / 1e-10) / -math.log((root - 1.0) / (root + 1.0)))
    assert bound == 54
    iterations = [int(n) for name in COMMAND_LINES for n in golden[name]["columns"]["solver_iters"]]
    iterations += [n for name in COMMAND_LINES for n in golden[name]["reference_pcg_iters"]]
    iterations += [n for runs in ("desk_runs", "runs_07") for crit in golden[runs].values()
                   for n in crit["integers"]["solver_iterations"]]
    assert len(iterations) > 100 and max(iterations) <= bound


def test_desk_run_digests(desk_runs):
    """The desk runs' CSV bytes, with the digests stored in each criterion's
    record of the fixture."""
    golden = load_fixture()["desk_runs"]
    for crit, trace in desk_runs.items():
        got = csv_digests(trace)
        assert got == expected_digests(got, golden[crit]["digests"]), crit


if __name__ == "__main__":
    import sys
    import tempfile

    from conftest import RUN_SETS, criterion_runs

    # a full regeneration keeps no other kernel's digests: they would be stale
    digests_only = sys.argv[1:] == ["--digests"]
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: trajectory(name, Path(tmp)) for name in COMMAND_LINES}
    for name, theta_x in RUN_SETS.items():
        runs = criterion_runs(lshape_benchmark(), theta_x)
        data[name] = {crit: records(trace) for crit, trace in runs.items()}
        if name == "desk_runs":
            for crit, trace in runs.items():
                data[name][crit]["digests"] = csv_digests(trace)
    fixture = load_fixture() if digests_only else data
    for new, kept in zip(digest_holders(data), digest_holders(fixture)):
        sets = kept["digests"] if digests_only else {}
        kept["digests"] = dict(sorted({**sets, blas_kernel(): new["digests"]}.items()))
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
