"""One round of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD OUTDIR TRACE SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so that set-up time counts the interpreter's start.  The round
imports sgfem, builds the problem spec and the initial mesh (set-up), then
runs `sgfem` through its CLI entry point exactly as a user does (the run),
checks the outputs and writes OUTDIR/result.json.  With TRACE = 1 the calls
into each layer are wrapped first and the spans go to OUTDIR/spans.json.
"""

import json
import os
import resource
import sys
import time


def _cpu():
    """User plus system seconds of this process's threads and reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv):
    name, outdir, traced, spawned = argv[0], argv[1], argv[2] == "1", float(argv[3])

    from sgfem import cli
    from sgfem.mesh import initial_lshape
    from sgfem.problem import lshape_benchmark

    from workloads import WORKLOADS, command

    work = WORKLOADS[name]
    lshape_benchmark(work["sigma"], work["tau"])
    initial_lshape()

    tracing = tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    # keep what the CLI computes, for the checks
    traces, references = [], []
    run_single, reference_solution = cli._run_single, cli.reference_solution

    def keep_trace(*args):
        traces.append(run_single(*args))
        return traces[-1]

    def keep_reference(*args):
        references.append(reference_solution(*args))
        return references[-1]

    cli._run_single, cli.reference_solution = keep_trace, keep_reference

    result = {"setup_s": time.monotonic() - spawned, "error": None}
    cpu_ready = _cpu()
    t_ready = time.perf_counter()
    argv_cli = command(name, outdir)
    try:
        if tracer is None:
            rc = cli.main(argv_cli)
        else:
            rc = tracer.run_root(cli.main, argv_cli)
    except Exception as exc:  # the round failed; report it, do not crash
        rc = None
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["run_s"] = time.perf_counter() - t_ready
    result["cpu_s"] = _cpu() - cpu_ready
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["rc"] = rc

    if rc == 0:
        result.update(_check(name, outdir, traces, references))
    elif result["error"] is None:
        result["error"] = f"sgfem exited with {rc}"
    if tracer is not None and result["error"] is None:
        layers = tracing.layer_metrics(tracer)
        selfs = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        # one thread: the layers' self times partition the traced run
        if abs(selfs - layers["trace.run_s"]) > 1e-6:
            result["bad"].append(f"layer self times sum to {selfs}, "
                                 f"run took {layers['trace.run_s']}")
        result["layers"] = layers
        with open(os.path.join(outdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _check(name, outdir, traces, references):
    import checks
    from workloads import WORKLOADS

    work = WORKLOADS[name]
    if len(traces) != 1:
        return {"bad": [f"the CLI ran {len(traces)} adaptive runs, expected 1"],
                "cum_dofs": 0}
    rows = checks.read_csv(os.path.join(outdir, "trace.csv"))
    bad = checks.trace_rows(rows, work["tol"]) + checks.final_state(traces[0], rows)
    cum_dofs = int(rows[-1]["cum_cost"]) if rows else 0
    if "--with-reference" in work["argv"]:
        bad += checks.zeta_bound(rows, work["tau"])
        cum_dofs += sum(u.num_dof for u in references)
    return {"bad": bad, "cum_dofs": cum_dofs}


if __name__ == "__main__":
    main(sys.argv[1:])
