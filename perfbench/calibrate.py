"""A fixed reference computation that times how fast the machine runs now.

It uses no `sgfem` code, so no change to the program can move it.  Its mix
resembles one adaptive step of the program: Python-level bookkeeping over a
triangle mesh (dictionaries keyed by edges, as in bisection refinement),
vectorised element assembly into a sparse matrix, and sparse
matrix-vector products (as in PCG).
"""

import time

import numpy as np
import scipy.sparse as sp

GRID = 200  # vertices per side of the unit-square mesh the kernel works on


def _mesh(n):
    """Vertices and triangles of a structured n x n grid of the unit square."""
    x = np.linspace(0.0, 1.0, n)
    verts = np.stack(np.meshgrid(x, x), axis=-1).reshape(-1, 2)
    idx = np.arange(n * n).reshape(n, n)
    a, b = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()
    c, d = idx[1:, :-1].ravel(), idx[1:, 1:].ravel()
    tris = np.concatenate([np.stack([a, b, d], 1), np.stack([a, d, c], 1)])
    return verts, tris


def _edge_midpoints(tris):
    """Python bookkeeping: number every edge once, by its sorted end points."""
    mids = {}
    for t in tris.tolist():
        for i in range(3):
            u, v = t[i], t[(i + 1) % 3]
            key = (u, v) if u < v else (v, u)
            if key not in mids:
                mids[key] = len(mids)
    return len(mids)


def _stiffness(verts, tris):
    """P1 stiffness matrix, assembled element by element in numpy."""
    p = verts[tris]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    grads = []
    for k in range(3):
        a, b = p[:, (k + 1) % 3], p[:, (k + 2) % 3]
        grads.append(np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], 1))
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tris[:, i])
            cols.append(tris[:, j])
            vals.append((grads[i] * grads[j]).sum(1) / (4.0 * area))
    n = verts.shape[0]
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def kernel():
    """One pass of the reference computation; returns a checksum."""
    verts, tris = _mesh(GRID)
    edges = _edge_midpoints(tris)
    a = _stiffness(verts, tris) + sp.identity(verts.shape[0], format="csr")
    x = np.ones(verts.shape[0])
    for _ in range(60):
        x = a @ x
        x /= np.abs(x).max()
    return edges + float(x.sum())


def seconds():
    """Wall seconds of one pass of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print([round(seconds(), 4) for _ in range(5)])
