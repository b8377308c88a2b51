"""Conforming 2D triangle meshes with newest-vertex-bisection refinement.

A mesh stores vertex coordinates, a per-vertex boundary flag, triangles as
vertex-id triples, and a local reference-edge marker per triangle.  Edge ``k``
of triangle ``(v0, v1, v2)`` is the edge opposite local vertex ``k``, i.e. the
pair ``(v[(k+1)%3], v[(k+2)%3])``.  Each mesh keeps one edge table: the sorted
edge keys ``a * n + b`` (a < b, n vertices), the number of triangles on each
edge and the edge id of each (triangle, local edge); edges are numbered in
lexicographic order of their vertex pairs.

The two-level estimator and ``refine`` number the new interior vertices N+
of the uniform refinement, the midpoints of the interior edges, in edge
order: ``interior_edge_ids`` lists their edges and ``triangle_nplus`` the N+
position of each (triangle, local edge).  Both are derived from the edge
table on each access, not kept on the mesh.

This module alone knows how NVB lays out a triangle's children.  The
estimator takes the corners of the uniform refinement's children from
``child_corners``, where each midpoint sits among them from
``MIDPOINT_SLOTS`` and its N+ position from ``Mesh.midpoint_nplus``.

Refinement follows the 2D NVB rule: a triangle is bisected at its reference
edge and the reference edges of the two children are opposite the new vertex.
It runs as array passes over the edge table, with no loop over triangles.
Midpoint coordinates are exact averages, so all vertices of meshes refined
from a dyadic initial mesh are exactly representable in float64.

A refined mesh records its own step only (``new_vertex_edge``, and in
``source`` the coarse row of each triangle it kept) and keeps no reference
to the coarser mesh, so a run keeps alive only the meshes it holds.

``read_mesh`` is the one way in for a mesh from outside.  It accepts only a
conforming, positively oriented triangulation that tiles the region its
boundary encloses, with every vertex of a boundary edge flagged as boundary,
and raises a ValueError that names the first property a file fails.  Meshes
made by refinement keep these properties and are not checked again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Mesh",
    "initial_lshape",
    "unit_square",
    "uniform_refine",
    "child_corners",
    "MIDPOINT_SLOTS",
    "refine",
    "realized",
    "bisected_edges",
    "read_mesh",
    "write_mesh",
]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation with NVB state.  Meshes compare and hash by
    identity.

    Attributes
    ----------
    vertices : (n, 2) float array of coordinates.
    boundary : (n,) bool array, True for vertices on the domain boundary.
    triangles : (m, 3) int array of vertex ids, positively oriented.
    ref_edge : (m,) int array of local reference-edge markers in {0, 1, 2}.
    new_vertex_edge : (k, 2) int array, or None for a mesh not made by
        refinement; row i holds the endpoints ``(a, b)``, a < b, of the
        bisected edge of the coarser mesh whose midpoint is vertex
        ``num_vertices - k + i``.  The first ``num_vertices - k`` vertices
        are those of the coarser mesh.
    source : (m,) int32 array, or None for a mesh not made by refinement:
        the row in the coarser mesh of each triangle the step left as it was
        (same vertex ids and reference edge), -1 for each one it made.
    """

    vertices: np.ndarray
    boundary: np.ndarray
    triangles: np.ndarray
    ref_edge: np.ndarray
    new_vertex_edge: np.ndarray | None = None
    source: np.ndarray | None = None

    def __reduce__(self):
        # the cached tables derive from the fields: rebuilt, not pickled
        return Mesh, (self.vertices, self.boundary, self.triangles, self.ref_edge,
                      self.new_vertex_edge, self.source)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted edge keys, the triangle count of each edge, and the edge id
        of each (triangle, local edge)."""
        tri = self.triangles
        a, b = tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]  # edge k = (v[k+1], v[k+2])
        keys = np.minimum(a, b) * self.num_vertices + np.maximum(a, b)
        uniq, inverse, counts = np.unique(
            keys.ravel(), return_inverse=True, return_counts=True
        )
        return uniq, counts, inverse.reshape(tri.shape)

    @property
    def edge_keys(self) -> np.ndarray:
        """(e,) sorted keys ``a * num_vertices + b`` of the edges (a < b)."""
        return self._edge_table[0]

    @property
    def edge_counts(self) -> np.ndarray:
        """(e,) number of triangles on each edge: 1 on the boundary, 2 inside."""
        return self._edge_table[1]

    @property
    def triangle_edges(self) -> np.ndarray:
        """(m, 3) edge id of local edge k of each triangle."""
        return self._edge_table[2]

    @cached_property
    def edges(self) -> np.ndarray:
        """(e, 2) sorted vertex pairs of all edges, in lexicographic order."""
        return np.stack(np.divmod(self.edge_keys, self.num_vertices), axis=1)

    @property
    def interior_edge_ids(self) -> np.ndarray:
        """Ids of the interior edges, ascending: position i of N+ is the
        midpoint of edge ``interior_edge_ids[i]``."""
        return np.flatnonzero(self.edge_counts == 2)

    @property
    def triangle_nplus(self) -> np.ndarray:
        """(m, 3) N+ position of local edge k of each triangle, -1 on the
        boundary."""
        interior = self.edge_counts == 2
        return np.where(interior, np.cumsum(interior) - 1, -1)[self.triangle_edges]

    @property
    def midpoint_nplus(self) -> np.ndarray:
        """(m, 3) N+ position of the midpoints m, w1, w2 of each triangle
        (see ``child_corners``), -1 on the boundary."""
        frame = (self.ref_edge[:, None] + _FRAME[3:]) % 3
        return self.triangle_nplus[np.arange(self.num_triangles)[:, None], frame]

    @cached_property
    def free_nodes(self) -> np.ndarray:
        """Ids of interior (non-Dirichlet) vertices, ascending."""
        return np.flatnonzero(~self.boundary)

    @cached_property
    def free_index(self) -> np.ndarray:
        """Maps vertex id to free-node position, -1 for boundary vertices."""
        idx = np.full(self.num_vertices, -1, dtype=np.int64)
        idx[self.free_nodes] = np.arange(self.free_nodes.size)
        return idx

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        u = p[:, 1] - p[:, 0]
        v = p[:, 2] - p[:, 0]
        return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def _make_initial(coords, boundary, tris, refs) -> Mesh:
    return Mesh(
        vertices=np.asarray(coords, dtype=np.float64),
        boundary=np.asarray(boundary, dtype=bool),
        triangles=np.asarray(tris, dtype=np.int64),
        ref_edge=np.asarray(refs, dtype=np.int64),
    )


def initial_lshape() -> Mesh:
    """Initial mesh of the L-shaped domain (-1,1)^2 minus (-1,0]^2.

    Three unit squares, each split into two right isosceles triangles by its
    diagonal; the diagonals carry the reference-edge markers.
    """
    coords = [
        (-1.0, 0.0),  # 0
        (-1.0, 1.0),  # 1
        (0.0, -1.0),  # 2
        (0.0, 0.0),   # 3  reentrant corner
        (0.0, 1.0),   # 4
        (1.0, -1.0),  # 5
        (1.0, 0.0),   # 6
        (1.0, 1.0),   # 7
    ]
    boundary = [True] * 8
    tris = [
        (0, 3, 4),
        (0, 4, 1),
        (3, 6, 7),
        (3, 7, 4),
        (2, 5, 6),
        (2, 6, 3),
    ]
    # diagonals (0,4), (3,7), (2,6) as reference edges
    refs = [1, 2, 1, 2, 1, 2]
    return _make_initial(coords, boundary, tris, refs)


def unit_square() -> Mesh:
    """Two-triangle unit square, diagonal as reference edge of both."""
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    tris = [(0, 1, 2), (0, 2, 3)]
    refs = [1, 2]  # the diagonal (0, 2)
    return _make_initial(coords, [True] * 4, tris, refs)


# Bisection of T = (a, b, c) = (v[r], v[r+1], v[r+2]), r the reference edge,
# with m = mid(b, c), w1 = mid(a, b), w2 = mid(c, a), by which edges are
# marked: case = [bc] + 2 [ab] + 4 [ca].  The children, in the depth-first
# order of recursive bisection, as indices into (a, b, c, m, w1, w2); every
# child has reference edge 2.  Case 0 keeps T as it is.  Cases 2, 4 and 6 (a
# marked edge without the reference edge) cannot occur in a closed marking.
_NUM_CHILDREN = np.array([1, 2, 0, 3, 0, 3, 0, 4])
_CHILD_SLOTS = np.zeros((8, 4, 3), dtype=np.int64)
for _case, _children in {
    1: [(0, 1, 3), (2, 0, 3)],
    3: [(3, 0, 4), (1, 3, 4), (2, 0, 3)],
    5: [(0, 1, 3), (3, 2, 5), (0, 3, 5)],
    7: [(3, 0, 4), (1, 3, 4), (3, 2, 5), (0, 3, 5)],
}.items():
    _CHILD_SLOTS[_case, : len(_children)] = _children
# the local vertex of a, b, c and the local edge of m, w1, w2, offsets from r
_FRAME = np.array([0, 1, 2, 0, 2, 1])
# per midpoint m, w1, w2: its (child, corner) pairs in ``child_corners``
MIDPOINT_SLOTS = tuple(np.argwhere(_CHILD_SLOTS[7] == k) for k in (3, 4, 5))


def _bisect(mesh: Mesh, marked: np.ndarray) -> Mesh:
    """Bisect every edge flagged in the mask `marked` over ``mesh.edges``;
    the marking must be closed under the NVB rule (if a triangle has a
    marked edge, its reference edge is marked too).  New vertices are
    numbered in edge order."""
    n, nt = mesh.num_vertices, mesh.num_triangles
    bisected = np.flatnonzero(marked)
    midpoint = np.where(marked, n + np.cumsum(marked) - 1, -1)
    new_edges = mesh.edges[bisected]
    new_coords = 0.5 * (mesh.vertices[new_edges[:, 0]] + mesh.vertices[new_edges[:, 1]])

    rows = np.arange(nt)[:, None]
    frame = (mesh.ref_edge[:, None] + _FRAME) % 3
    abc = mesh.triangles[rows, frame[:, :3]]
    mids = midpoint[mesh.triangle_edges[rows, frame[:, 3:]]]
    case = (mids >= 0) @ np.array([1, 2, 4])
    count = _NUM_CHILDREN[case]
    if not count.all():
        raise ValueError("marked edges are not closed under the NVB rule")
    origin = np.repeat(np.arange(nt), count)
    child = np.arange(origin.size) - np.repeat(np.cumsum(count) - count, count)
    case = case[origin]
    six = np.concatenate([abc, mids], axis=1)
    triangles = six[origin[:, None], _CHILD_SLOTS[case, child]]
    ref_edge = np.full(origin.size, 2, dtype=np.int64)
    kept = case == 0
    triangles[kept] = mesh.triangles[origin[kept]]
    ref_edge[kept] = mesh.ref_edge[origin[kept]]

    return Mesh(
        vertices=np.vstack([mesh.vertices, new_coords]),
        boundary=np.concatenate([mesh.boundary, mesh.edge_counts[bisected] == 1]),
        triangles=triangles,
        ref_edge=ref_edge,
        new_vertex_edge=new_edges,
        source=np.where(kept, origin, -1).astype(np.int32),
    )


def _closure(mesh: Mesh, marked: np.ndarray) -> np.ndarray:
    """Close an edge mask, in place, under the rule: a triangle with a
    marked edge gets its reference edge marked."""
    edges = mesh.triangle_edges
    ref = edges[np.arange(mesh.num_triangles), mesh.ref_edge]
    while True:
        grow = ref[marked[edges].any(axis=1) & ~marked[ref]]
        if grow.size == 0:
            return marked
        marked[grow] = True


def uniform_refine(mesh: Mesh) -> Mesh:
    """Bisect every edge of `mesh` once (three bisections per triangle).
    Edge e gets vertex ``num_vertices + e``, so N+ position i is vertex
    ``num_vertices + interior_edge_ids[i]``, and the four children of
    triangle t are triangles 4t..4t+3."""
    return _bisect(mesh, np.ones(mesh.edge_keys.size, dtype=bool))


def child_corners(mesh: Mesh, rows: np.ndarray) -> np.ndarray:
    """(nr, 4, 3, 2) corners of the four children that ``uniform_refine``
    makes of each triangle t in `rows` (its triangles 4t..4t+3), in their
    vertex order, without building the refined mesh."""
    frame = (mesh.ref_edge[rows, None] + _FRAME[:3]) % 3
    p3 = mesh.vertices[mesh.triangles[rows[:, None], frame]]
    p6 = np.concatenate([p3, 0.5 * (p3[:, [1, 0, 2]] + p3[:, [2, 1, 0]])], axis=1)
    return p6[:, _CHILD_SLOTS[7]]


def refine(mesh: Mesh, marked) -> Mesh:
    """Refine `mesh` so that every marked new vertex becomes a mesh vertex.

    `marked` holds N+ positions of `mesh` (midpoints of interior edges, see
    ``Mesh.interior_edge_ids``).  Every triangle adjacent to a marked edge
    is refined by three bisections; NVB reference-edge closure then restores
    conformity.  With all of N+ marked this reproduces the uniform
    refinement exactly.
    """
    marked = np.unique(np.fromiter(marked, dtype=np.int64))
    if marked.size == 0:
        return mesh
    nplus = mesh.interior_edge_ids
    if marked[0] < 0 or marked[-1] >= nplus.size:
        raise ValueError(f"marked vertex id out of range 0..{nplus.size - 1}")

    edges = mesh.triangle_edges
    seed = np.zeros(mesh.edge_keys.size, dtype=bool)
    seed[nplus[marked]] = True
    full = seed.copy()
    full[edges[seed[edges].any(axis=1)]] = True
    return _bisect(mesh, _closure(mesh, full))


def bisected_edges(coarse: Mesh, refined: Mesh) -> np.ndarray | None:
    """Edge ids of `coarse`, ascending, that one refinement step from
    `coarse` to `refined` bisected, or None if `refined` is not one step
    from `coarse`: its new vertices must follow the vertices of `coarse`,
    unchanged, one per edge of `coarse` in ``new_vertex_edge``."""
    new, n = refined.new_vertex_edge, coarse.num_vertices
    if (new is None or refined.num_vertices != n + len(new)
            or not np.array_equal(refined.vertices[:n], coarse.vertices)):
        return None
    keys = new[:, 0] * n + new[:, 1]
    ids = np.searchsorted(coarse.edge_keys, keys)
    return ids if np.array_equal(coarse.edge_keys.take(ids, mode="clip"), keys) else None


def _one_step(coarse: Mesh, refined: Mesh) -> np.ndarray:
    ids = bisected_edges(coarse, refined)
    if ids is None:
        raise ValueError("refined mesh is not one step from the coarse mesh")
    return ids


def realized(coarse: Mesh, refined: Mesh) -> np.ndarray:
    """N+ positions of `coarse`, ascending, of the vertices that one
    refinement step from `coarse` to `refined` created (marked plus
    closure)."""
    if refined is coarse:
        return np.zeros(0, dtype=np.int64)
    ids = _one_step(coarse, refined)
    return np.searchsorted(coarse.interior_edge_ids, ids[coarse.edge_counts[ids] == 2])


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the plain text format (see ``read_mesh``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"vertices {mesh.num_vertices} triangles {mesh.num_triangles}\n")
        for (x, y), b in zip(mesh.vertices, mesh.boundary):
            fh.write(f"{x:.17g} {y:.17g} {int(b)}\n")
        for tri, r in zip(mesh.triangles, mesh.ref_edge):
            fh.write(f"{tri[0]} {tri[1]} {tri[2]} {r}\n")


@np.errstate(over="ignore", invalid="ignore")  # huge coordinates fail below, not warn
def _check(mesh: Mesh, path) -> None:
    """Raise a ValueError naming the first property of a conforming,
    positively oriented triangulation that `mesh`, read from `path`, lacks.
    Triangle t is line ``num_vertices + 2 + t`` of the file."""
    areas = mesh.signed_areas()
    if not (areas > 0.0).all():
        t = int(np.argmin(areas > 0.0))
        raise ValueError(f"mesh file {path}, line {mesh.num_vertices + 2 + t}: triangle {t} "
                         f"is not positively oriented (signed area {areas[t]:g})")
    counts = mesh.edge_counts
    if counts.max() > 2:
        e = int(np.argmax(counts > 2))
        raise ValueError(f"mesh file {path}: edge {tuple(mesh.edges[e].tolist())} lies on "
                         f"{counts[e]} triangles")
    # a vertex strictly inside a once-counted edge, within rounding of its
    # line, hangs (as NVB leaves one at a midpoint).  Each edge tests the
    # vertices in its x-range, in batches of some 4 pairs per mesh vertex
    a, b = mesh.edges[counts == 1].T
    xy, order = mesh.vertices, np.argsort(mesh.vertices[:, 0], kind="stable")
    lo = np.searchsorted(xy[order, 0], np.minimum(xy[a, 0], xy[b, 0]), "left")
    n = np.searchsorted(xy[order, 0], np.maximum(xy[a, 0], xy[b, 0]), "right") - lo
    batches = np.flatnonzero(np.diff(np.cumsum(n) // (4 * len(xy)))) + 1
    for es in np.split(np.arange(a.size), batches):
        e, k = np.repeat(es, n[es]), n[es]
        v = order[np.repeat(lo[es] - np.cumsum(k) + k, k) + np.arange(e.size)]
        d, w = xy[b[e]] - xy[a[e]], xy[v] - xy[a[e]]
        dd, along = (d * d).sum(axis=1), (d * w).sum(axis=1)
        cross = d[:, 0] * w[:, 1] - d[:, 1] * w[:, 0]
        inside = (0.0 < along) & (along < dd) & (dd < np.inf) & (np.abs(cross) <= 1e-10 * dd)
        if inside.any():
            i = int(np.argmax(inside))
            raise ValueError(f"mesh file {path}: hanging node: vertex {v[i]} lies inside "
                             f"boundary edge ({a[e[i]]}, {b[e[i]]})")
    free = ~(mesh.boundary[a] & mesh.boundary[b])
    if free.any():
        e = int(np.argmax(free))
        v = a[e] if not mesh.boundary[a[e]] else b[e]
        raise ValueError(f"mesh file {path}, line {v + 2}: vertex {v} lies on boundary edge "
                         f"({a[e]}, {b[e]}) but is not flagged as boundary")
    # the triangles tile the region their boundary encloses: their areas sum
    # to the shoelace area of the once-counted edges, each oriented as in its
    # triangle (a duplicated or folded triangle counts its edges twice);
    # coordinates are taken from a vertex to keep the cross products small
    t, k = np.nonzero(counts[mesh.triangle_edges] == 1)
    p = mesh.vertices[mesh.triangles[t, (k + 1) % 3]] - mesh.vertices[0]
    q = mesh.vertices[mesh.triangles[t, (k + 2) % 3]] - mesh.vertices[0]
    total, enclosed = areas.sum(), 0.5 * (p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]).sum()
    if not np.isfinite([total, enclosed]).all():
        raise ValueError(f"mesh file {path}: the coordinates are too large: the areas overflow")
    if abs(total - enclosed) > 1e-10 * total:
        raise ValueError(f"mesh file {path}: the triangles do not tile the region their "
                         f"boundary encloses: their areas sum to {total:.17g}, the "
                         f"boundary encloses {enclosed:.17g}")


def read_mesh(path) -> Mesh:
    """Read the text format: header ``vertices N triangles M``, then N lines
    ``x y boundary_flag`` and M lines ``v0 v1 v2 ref_edge`` (0-based ids).

    Rejects a header whose counts the file does not hold, naming the first
    missing line, before anything is allocated.  Then rejects, naming the
    first offence and its line where it has one: a malformed line, a
    non-finite coordinate, a vertex id or reference edge out of range, a
    vertex of no triangle, a triangle that is not positively oriented, an
    edge on more than two triangles, a vertex inside a boundary edge (a
    hanging node or T-junction), a boundary edge with a
    vertex not flagged as boundary, coordinates so large that the areas
    overflow, and triangles that do not tile the region their boundary
    encloses (a duplicated or folded triangle).
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if (len(header) != 4 or header[0] != "vertices" or header[2] != "triangles"
                or not (header[1].isdigit() and header[3].isdigit())):
            raise ValueError(f"bad mesh header: {' '.join(header)!r}")
        nv, nt = int(header[1]), int(header[3])
        if nt == 0:
            raise ValueError(f"mesh file {path} has no triangles")
        body = list(itertools.islice(fh, nv + nt))
    if len(body) < nv + nt:
        k = len(body)
        what = f"vertex {k}" if k < nv else f"triangle {k - nv}"
        raise ValueError(
            f"mesh file {path} announces {nv} vertices and {nt} triangles "
            f"but ends after line {k + 1}: line {k + 2} ({what}) is missing"
        )

    def fail(k, what):
        raise ValueError(f"mesh file {path}, line {k + 2}: {what}")

    def fields(k, names, kinds):
        values = body[k].split()
        if len(values) == len(kinds):
            try:
                return [kind(s) for kind, s in zip(kinds, values)]
            except ValueError:
                pass
        fail(k, f"expected {names!r}, got {body[k].strip()!r}")

    coords = np.empty((nv, 2))
    bdry = np.empty(nv, dtype=bool)
    for i in range(nv):
        x, y, b = fields(i, "x y boundary_flag", (float, float, int))
        if not (math.isfinite(x) and math.isfinite(y)):
            fail(i, f"vertex {i} has a non-finite coordinate ({x}, {y})")
        coords[i] = (x, y)
        bdry[i] = bool(b)
    tris = np.empty((nt, 3), dtype=np.int64)
    refs = np.empty(nt, dtype=np.int64)
    for i in range(nt):
        v0, v1, v2, r = fields(nv + i, "v0 v1 v2 ref_edge", (int,) * 4)
        if not (0 <= v0 < nv and 0 <= v1 < nv and 0 <= v2 < nv):
            fail(nv + i, f"triangle {i} has a vertex id out of range 0..{nv - 1}")
        if not 0 <= r <= 2:
            fail(nv + i, f"triangle {i} has reference edge {r} out of range 0..2")
        tris[i] = (v0, v1, v2)
        refs[i] = r
    unused = np.setdiff1d(np.arange(nv), tris)
    if unused.size:
        raise ValueError(f"mesh file {path}, line {unused[0] + 2}: vertex {unused[0]} "
                         "belongs to no triangle")
    mesh = Mesh(
        vertices=coords,
        boundary=bdry,
        triangles=tris,
        ref_edge=refs,
    )
    _check(mesh, path)
    return mesh
