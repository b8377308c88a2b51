"""Output checks of one workload round.

They recompute what they compare from the mesh and the CSV columns, or test
properties every correct run has; none compares with a stored copy of an
earlier output.  Each check returns a list of failure messages.
"""

import csv
import math

import numpy as np

# Each coarse triangle meets the hat supports of at most three new interior
# vertices (one per edge): the overlap constant K of the two-level estimator.
K_OVERLAP = 3
# Relative slack on identities that hold to the PCG tolerance (1e-10).
SOLVER_SLACK = 1e-9
MIN_ANGLE_DEG = 22.5


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def trace_rows(rows, tol):
    """Stop at tolerance; monotone energy; n_total = dim_x * card_p."""
    bad = []
    if not rows:
        return ["trace CSV has no rows"]
    last = rows[-1]
    if last["refine_type"] != "final" or not float(last["eta"]) <= tol:
        bad.append(f"final row {last['refine_type']} with eta {last['eta']} > tol {tol}")
    cost = 0
    for prev, row in zip([None] + rows[:-1], rows):
        n = int(row["n_total"])
        if n != int(row["dim_x"]) * int(row["card_p"]):
            bad.append(f"level {row['iter']}: n_total {n} != dim_x * card_p")
        cost += n
        if int(row["cum_cost"]) != cost:
            bad.append(f"level {row['iter']}: cum_cost {row['cum_cost']} != {cost}")
        # nested Galerkin spaces: the energy never decreases
        if prev is not None:
            e0, e1 = float(prev["energy_sq"]), float(row["energy_sq"])
            if e1 < e0 * (1.0 - 1e-8):
                bad.append(f"level {row['iter']}: energy decreased {e0} -> {e1}")
    return bad


def final_state(trace, rows):
    """Galerkin identity B(u,u) = l(u) and the geometry of the final mesh."""
    bad = []
    if trace.stop_reason != "tol":
        bad.append(f"stop reason {trace.stop_reason!r}, expected 'tol'")
    mesh, u = trace.final_mesh, trace.final_solution
    verts = np.asarray(mesh.vertices, dtype=np.float64)
    tris = np.asarray(mesh.triangles)
    p = verts[tris]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    # l(u) for f = 1: each hat function integrates to a third of its patch
    free = np.flatnonzero(~np.asarray(mesh.boundary))
    zero = [i for i, nu in enumerate(trace.final_indices) if nu.total_degree == 0]
    if u.coeffs.shape != (free.size, len(trace.final_indices)) or len(zero) != 1:
        return bad + [f"solution shape {u.coeffs.shape} does not fit the mesh"]
    hat = np.zeros(verts.shape[0])
    np.add.at(hat, tris.ravel(), np.repeat(area / 3.0, 3))
    load = float(hat[free] @ u.coeffs[:, zero[0]])
    energy = float(rows[-1]["energy_sq"])
    if not abs(energy - load) <= SOLVER_SLACK * abs(load):
        bad.append(f"Galerkin identity: B(u,u) = {energy} but l(u) = {load}")

    # dyadic coordinates: the areas add up to the L-shape's 3 exactly
    if math.fsum(area) != 3.0:
        bad.append(f"mesh area {math.fsum(area)!r} != 3")
    if not np.all(area > 0.0):
        bad.append(f"{int(np.sum(area <= 0.0))} triangles not positively oriented")
    angle = min_angle_deg(p)
    if not angle >= MIN_ANGLE_DEG - 1e-9:
        bad.append(f"minimum angle {angle} deg < {MIN_ANGLE_DEG}")
    return bad


def min_angle_deg(p):
    """Smallest interior angle over triangles given as (n, 3, 2) corners."""
    smallest = math.inf
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        cos = (a * b).sum(axis=1) / np.sqrt((a * a).sum(axis=1) * (b * b).sum(axis=1))
        smallest = min(smallest, float(np.degrees(np.arccos(np.clip(cos, -1, 1))).min()))
    return smallest


def zeta_bound(rows, tau):
    """Guaranteed efficiency: every defined zeta <= sqrt(K / lambda).

    With a0 = 1 the norm-equivalence constant is lambda = 1 / (1 + tau).
    """
    bound = math.sqrt(K_OVERLAP * (1.0 + tau))
    zetas = [float(r["zeta"]) for r in rows if r["zeta"]]
    if not zetas:
        return ["reference run defines no zeta"]
    return [f"level {i}: zeta {z} > {bound}" for i, z in enumerate(zetas)
            if not z <= bound]
