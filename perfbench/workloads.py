"""The benchmark's workloads: fixed `sgfem` command lines on the L-shape.

Every workload is deterministic: the program has no random input, so the
benchmark's `--seed` selects nothing here (see README.md).  The tolerances
are chosen so that one adaptive run takes 1.3-2 s on a quiet 2-core machine
and 3-5 s on a busy one, which lets one benchmark run repeat it several times.
"""

import os

WORKLOADS = {
    # Criterion B: pays the trial refinement inside marking.decide, so the
    # mesh layer does the most work here.  The desk run at a looser tolerance.
    "desk-B": {
        "argv": ["run", "--criterion", "B", "--theta-x", "0.5",
                 "--theta-p", "0.5", "--tol", "2e-2"],
        "tol": 2e-2,
        "sigma": 2.0,
        "tau": 0.9,
    },
    # Slow decay (sigma 1.5) and vartheta 10 favour parametric enrichment:
    # about half of the steps enrich the index set on an unchanged mesh, so
    # per-mode assembly and the parametric estimator carry the load.
    "param-rich": {
        "argv": ["run", "--criterion", "A", "--sigma", "1.5", "--tau", "0.9",
                 "--vartheta", "10", "--tol", "2.3e-2"],
        "tol": 2.3e-2,
        "sigma": 1.5,
        "tau": 0.9,
    },
    # A short adaptive run, then one cold PCG solve on the reference space
    # (uniform refinement, index set enlarged twice): the solver layer
    # dominates and the reference system sets the peak memory.
    "reference": {
        "argv": ["run", "--criterion", "A", "--tol", "2.5e-2",
                 "--with-reference"],
        "tol": 2.5e-2,
        "sigma": 2.0,
        "tau": 0.9,
    },
}


def command(name: str, outdir: str) -> list[str]:
    """The CLI arguments of one round of workload `name`, writing to outdir."""
    return WORKLOADS[name]["argv"] + ["--output", os.path.join(outdir, "trace.csv")]
