"""Command-line front end: configure and run the adaptive loop, write traces.

Subcommands:
  run     one adaptive run, one CSV trace
  sweep   Cartesian grid over the marking parameters, one CSV per point plus
          a summary table (cost and fitted rate per parameter pair)
Both take the problem from flags over a `key = value` settings file (--config).

Runs are fully deterministic: identical configurations produce byte-identical
output files under the same numpy, scipy and BLAS kernel; another kernel may
move the last bits of the floats.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .driver import (
    AdaptiveTrace,
    cumulative_cost,
    effectivity,
    fit_rate,
    reference_solution,
    run_adaptive,
)
from .galerkin import SolverError
from .marking import CRITERIA, MarkingParams
from .mesh import initial_lshape, read_mesh
from .problem import ProblemSpec, lshape_benchmark

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAP = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64
_MAX_GRID = 10_000  # points of one sweep's grid
_CONFIG_KEYS = {"sigma", "tau", "amplitude", "mesh", "rhs"}

CSV_HEADER = (
    "iter,refine_type,dim_x,card_p,n_total,eta,eta_spatial,eta_param,"
    "energy_sq,marked,max_active_dim,solver_iters,cum_cost,zeta"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _g17(x: float) -> str:
    return f"{x:.17g}"


def format_trace_csv(trace: AdaptiveTrace, zetas=None) -> str:
    lines = [CSV_HEADER]
    cost = 0
    for i, rec in enumerate(trace.records):
        cost += rec.n_dof
        zeta = ""
        if zetas is not None and zetas[i] is not None:
            zeta = _g17(zetas[i])
        lines.append(
            ",".join(
                [
                    str(rec.level),
                    rec.refine_type,
                    str(rec.dim_x),
                    str(rec.card_p),
                    str(rec.n_dof),
                    _g17(rec.eta),
                    _g17(rec.eta_spatial),
                    _g17(rec.eta_parametric),
                    _g17(rec.energy_sq),
                    str(rec.n_marked),
                    str(rec.max_active_dim),
                    str(rec.solver_iterations),
                    str(cost),
                    zeta,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _config_echo(args, spec: ProblemSpec) -> str:
    keys = [
        ("criterion", args.criterion),
        ("theta_x", args.theta_x),
        ("theta_p", args.theta_p),
        ("vartheta", args.vartheta),
        ("tol", args.tol),
        ("sigma", spec.sigma),
        ("amplitude", spec.amplitude),
        ("tau", spec.tau),
        ("mesh", args.mesh),
        ("solver_tol", args.solver_tol),
        ("max_iter", args.max_iter),
        ("max_dof", args.max_dof),
        ("with_reference", int(getattr(args, "with_reference", False))),
    ]
    return "".join(f"{k} = {v}\n" for k, v in keys)


def _read_config(path: str) -> dict:
    """The settings of the `key = value` file at `path`, one key per line and
    '#' to the end of a line a comment (see README, Command line)."""
    settings: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in settings:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        settings[key] = value if key in ("mesh", "rhs") else float(value)
    if "tau" in settings and "amplitude" in settings:
        raise ValueError("config keys 'tau' and 'amplitude' are mutually exclusive")
    if (rhs := settings.pop("rhs", "one")) != "one":
        raise ValueError(f"unsupported rhs {rhs!r} (only 'one' ships)")
    return settings


def _build_spec(args) -> ProblemSpec:
    """The problem of the flags over the `--config` file: a flag overrides
    its key, and `--tau` or `--amplitude` both file keys.  Sets `args.mesh`."""
    settings = _read_config(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    if "tau" in flags and "amplitude" in flags:
        raise ValueError("--tau and --amplitude are mutually exclusive")
    if "tau" in flags or "amplitude" in flags:
        settings = {k: v for k, v in settings.items() if k not in ("tau", "amplitude")}
    settings.update(flags)
    args.mesh = settings.pop("mesh", "lshape")
    if "amplitude" in settings:
        return ProblemSpec(settings.get("sigma", 2.0), settings["amplitude"])
    return lshape_benchmark(**settings)


def _load_mesh(source: str):
    return initial_lshape() if source == "lshape" else read_mesh(source)


def _add_common_flags(p: _Parser) -> None:
    p.add_argument("--criterion", choices=CRITERIA, default="A")
    p.add_argument("--vartheta", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-2)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--mesh", default=None, help="'lshape' or a mesh file path")
    p.add_argument("--solver-tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--max-dof", type=int, default=200_000)
    p.add_argument("--config", default=None, help="key=value problem config file")


def _parse_range(text: str, other: int = 1) -> list[float]:
    """Parse '0.5', '0.1,0.3,0.5', or '0.1..0.9' (optional '..step'): the
    points lo + k step, rounded to 12 digits, up to hi.  Before any is built,
    their count times `other` (the other axis's) must not exceed _MAX_GRID."""
    if ".." not in text:
        values = [float(tok) for tok in text.split(",")]
        count = len(values)
    else:
        parts = [float(tok) for tok in text.split("..")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {text!r}")
        lo, hi, step = (parts + [0.1])[:3]
        # every theta lies in [0, 1], and the rounding merges points closer than 1e-12
        if not (0.0 <= lo <= hi <= 1.0 and 1e-12 <= step < math.inf):
            raise ValueError(f"bad range {text!r}: need 0 <= lo <= hi <= 1, 1e-12 <= step < inf")
        # each k step <= hi - lo is kept; the slack and the rounding keep at most two more
        count = int((hi - lo) / step) + 1
        while round(lo + count * step, 12) <= hi + 1e-12:
            count += 1
        values = (round(lo + k * step, 12) for k in range(count))
    if count * other > _MAX_GRID:
        raise ValueError(f"bad range {text!r}: a grid of {count * other} points or more, "
                         f"over the cap of {_MAX_GRID}")
    return list(values)


def _label(x: float) -> str:
    """`x` in a file name or summary row: '%g', or the shortest repr where
    '%g' does not read back as `x`."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def _run_single(spec, mesh, args, theta_x, theta_p):
    params = MarkingParams(theta_x=theta_x, theta_p=theta_p, vartheta=args.vartheta)
    return run_adaptive(
        spec,
        criterion=args.criterion,
        params=params,
        tol=args.tol,
        max_iter=args.max_iter,
        max_dof=args.max_dof,
        solver_tol=args.solver_tol,
        mesh=mesh,
    )


def _cmd_run(args) -> int:
    spec = _build_spec(args)
    mesh = _load_mesh(args.mesh)
    trace = _run_single(spec, mesh, args, args.theta_x, args.theta_p)
    zetas = effectivity(trace, reference_solution(trace)) if args.with_reference else None
    out = Path(args.output)
    _write_atomic(out, format_trace_csv(trace, zetas))
    _write_atomic(out.with_suffix(out.suffix + ".config"), _config_echo(args, spec))
    print(
        f"levels={trace.num_levels} eta={trace.records[-1].eta:.6g} "
        f"cost={cumulative_cost(trace)} stop={trace.stop_reason}"
    )
    return EXIT_OK if trace.reached_tol else EXIT_CAP


def _cmd_sweep(args) -> int:
    spec = _build_spec(args)
    mesh = _load_mesh(args.mesh)
    thetas_x = _parse_range(args.theta_x)
    thetas_p = _parse_range(args.theta_p, len(thetas_x))
    grid = [(tx, tp) for tx in thetas_x for tp in thetas_p]
    if len(set(grid)) < len(grid):
        raise ValueError("repeated grid point: each (theta_x, theta_p) runs once")
    threads = os.environ.get("SGFEM_THREADS", "1")
    if not (threads.isascii() and threads.isdigit() and int(threads) > 0):
        raise ValueError(f"SGFEM_THREADS must be a positive integer, got {threads!r}")
    workers = int(threads)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    def job(point):
        tx, tp = point
        trace = _run_single(spec, mesh, args, tx, tp)
        name = f"run_thx{_label(tx)}_thp{_label(tp)}.csv"
        _write_atomic(outdir / name, format_trace_csv(trace))
        try:
            rate = fit_rate(trace)
        except ValueError:
            rate = float("nan")
        return (tx, tp, cumulative_cost(trace), rate, trace.num_levels, trace.reached_tol)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, grid))
    else:
        results = [job(point) for point in grid]

    lines = ["theta_x,theta_p,cost,rate,levels,reached_tol"]
    for tx, tp, cost, rate, levels, ok in results:
        lines.append(f"{_label(tx)},{_label(tp)},{cost},{_g17(rate)},{levels},{int(ok)}")
    _write_atomic(outdir / "summary.csv", "\n".join(lines) + "\n")
    print(f"sweep complete: {len(grid)} runs, summary in {outdir / 'summary.csv'}")
    return EXIT_OK if all(r[5] for r in results) else EXIT_CAP


def build_parser() -> _Parser:
    parser = _Parser(prog="sgfem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single adaptive run")
    _add_common_flags(p_run)
    p_run.add_argument("--theta-x", type=float, default=0.5)
    p_run.add_argument("--theta-p", type=float, default=0.5)
    p_run.add_argument("--with-reference", action="store_true")
    p_run.add_argument("--output", default="trace.csv")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of adaptive runs")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--theta-x", default="0.5", help="value, list, or lo..hi[..step]")
    p_sweep.add_argument("--theta-p", default="0.5", help="value, list, or lo..hi[..step]")
    p_sweep.add_argument("--output-dir", default="sweep")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"sgfem: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (SolverError, AssertionError) as exc:
        # solver breakdown or a failed online check of the adaptive loop
        print(f"sgfem: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
