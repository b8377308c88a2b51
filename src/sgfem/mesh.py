"""Conforming 2D triangle meshes with newest-vertex-bisection refinement.

A mesh stores vertex coordinates, a per-vertex boundary flag, triangles as
vertex-id triples, and a local reference-edge marker per triangle.  Edge ``k``
of triangle ``(v0, v1, v2)`` is the edge opposite local vertex ``k``, i.e. the
pair ``(v[(k+1)%3], v[(k+2)%3])``.

Refinement follows the 2D NVB rule: a triangle is bisected at its reference
edge and the reference edges of the two children are opposite the new vertex.
Midpoint coordinates are exact averages, so all vertices of meshes refined
from a dyadic initial mesh are exactly representable in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Mesh",
    "TwoLevelOverlay",
    "MeshAudit",
    "initial_lshape",
    "unit_square",
    "uniform_refine",
    "refine",
    "mesh_audit",
    "read_mesh",
    "write_mesh",
]


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with NVB state.

    Attributes
    ----------
    vertices : (n, 2) float array of coordinates.
    boundary : (n,) bool array, True for vertices on the domain boundary.
    triangles : (m, 3) int array of vertex ids, positively oriented.
    ref_edge : (m,) int array of local reference-edge markers in {0, 1, 2}.
    generation : (m,) int array of bisection depths.
    parent : the mesh this one was refined from, or None.
    new_vertex_edge : maps each vertex id created by the refinement step
        that produced this mesh to the parent-edge endpoints ``(a, b)``.
    """

    vertices: np.ndarray
    boundary: np.ndarray
    triangles: np.ndarray
    ref_edge: np.ndarray
    generation: np.ndarray
    parent: "Mesh | None" = None
    new_vertex_edge: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted vertex pairs, in lexicographic order."""
        seen = set()
        for tri in self.triangles:
            v0, v1, v2 = (int(v) for v in tri)
            seen.add(_edge_key(v1, v2))
            seen.add(_edge_key(v2, v0))
            seen.add(_edge_key(v0, v1))
        return sorted(seen)

    @cached_property
    def edge_counts(self) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for tri in self.triangles:
            v0, v1, v2 = (int(v) for v in tri)
            for e in (_edge_key(v1, v2), _edge_key(v2, v0), _edge_key(v0, v1)):
                counts[e] = counts.get(e, 0) + 1
        return counts

    @cached_property
    def interior_edges(self) -> list[tuple[int, int]]:
        return [e for e in self.edges if self.edge_counts[e] == 2]

    @cached_property
    def boundary_edges(self) -> list[tuple[int, int]]:
        return [e for e in self.edges if self.edge_counts[e] == 1]

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

    def local_edge(self, t: int, k: int) -> tuple[int, int]:
        tri = self.triangles[t]
        return _edge_key(int(tri[(k + 1) % 3]), int(tri[(k + 2) % 3]))

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees."""
        p = self.vertices[self.triangles]
        ang = np.empty((self.num_triangles, 3))
        for k in range(3):
            u = p[:, (k + 1) % 3] - p[:, k]
            v = p[:, (k + 2) % 3] - p[:, k]
            cosang = (u * v).sum(axis=1) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            ang[:, k] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(ang.min())

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        u = p[:, 1] - p[:, 0]
        v = p[:, 2] - p[:, 0]
        return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    def lineage_to(self, ancestor: "Mesh") -> list["Mesh"]:
        """Chain of meshes from `ancestor` (exclusive) down to self (inclusive).

        Raises ValueError if `ancestor` is not reachable via parent links.
        """
        chain: list[Mesh] = []
        m: Mesh | None = self
        while m is not None and m is not ancestor:
            chain.append(m)
            m = m.parent
        if m is None:
            raise ValueError("meshes are not nested (no parent path found)")
        chain.reverse()
        return chain


@dataclass(frozen=True)
class TwoLevelOverlay:
    """The new interior vertices N+ of the uniform refinement of a mesh.

    N+ holds the midpoints of the interior edges of ``coarse``; its order is
    that of ``coarse.interior_edges`` (lexicographic), listed in
    ``nplus_edges``.  ``triangle_nplus[t, k]`` is the N+ position of local
    edge ``k`` of triangle ``t``, or -1 for a boundary edge.

    The uniformly refined mesh itself is built only on first access of
    ``fine``; ``nplus`` then holds the fine-mesh vertex ids of N+ and
    ``parent_triangle`` the coarse parent of each fine triangle.
    """

    coarse: Mesh

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted edge keys ``a * n + b`` (a < b), their interior flags, and
        the key index of each (triangle, local edge)."""
        tri = self.coarse.triangles
        a, b = tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]  # edge k = (v[k+1], v[k+2])
        keys = np.minimum(a, b) * self.coarse.num_vertices + np.maximum(a, b)
        uniq, inverse, counts = np.unique(
            keys.ravel(), return_inverse=True, return_counts=True
        )
        return uniq, counts == 2, inverse.reshape(tri.shape)

    @cached_property
    def triangle_nplus(self) -> np.ndarray:
        _, interior, inverse = self._edge_table
        position = np.where(interior, np.cumsum(interior) - 1, -1)
        return position[inverse]

    @cached_property
    def nplus_edges(self) -> list[tuple[int, int]]:
        uniq, interior, _ = self._edge_table
        a, b = np.divmod(uniq[interior], self.coarse.num_vertices)
        return list(zip(a.tolist(), b.tolist()))

    @property
    def num_new(self) -> int:
        return len(self.nplus_edges)

    @cached_property
    def edge_position(self) -> dict[tuple[int, int], int]:
        """Maps an interior coarse edge to its position in the N+ ordering."""
        return {e: i for i, e in enumerate(self.nplus_edges)}

    @cached_property
    def fine(self) -> Mesh:
        return _bisect_all(self.coarse, set(self.coarse.edges))

    @cached_property
    def nplus(self) -> np.ndarray:
        inv = {e: v for v, e in self.fine.new_vertex_edge.items()}
        return np.asarray([inv[e] for e in self.nplus_edges], dtype=np.int64)

    @cached_property
    def parent_triangle(self) -> np.ndarray:
        # each coarse triangle yields exactly four children, emitted in order
        return np.repeat(np.arange(self.coarse.num_triangles), 4)

    def new_vertices_per_triangle(self) -> np.ndarray:
        """For each coarse triangle, the number of z in N+ whose hat support
        intersects it (equals the triangle's interior-edge count)."""
        return (self.triangle_nplus >= 0).sum(axis=1)


def _make_initial(coords, boundary, tris, refs) -> Mesh:
    return Mesh(
        vertices=np.asarray(coords, dtype=np.float64),
        boundary=np.asarray(boundary, dtype=bool),
        triangles=np.asarray(tris, dtype=np.int64),
        ref_edge=np.asarray(refs, dtype=np.int64),
        generation=np.zeros(len(tris), dtype=np.int64),
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


def _bisect_all(mesh: Mesh, marked_edges: set[tuple[int, int]]) -> Mesh:
    """Bisect every marked edge of `mesh`; `marked_edges` must be closed under
    the NVB rule (if a triangle has a marked edge, its reference edge is
    marked too)."""
    n = mesh.num_vertices
    order = sorted(marked_edges)
    midpoint_id = {e: n + i for i, e in enumerate(order)}
    counts = mesh.edge_counts

    new_coords = np.empty((len(order), 2))
    new_bdry = np.empty(len(order), dtype=bool)
    for i, (a, b) in enumerate(order):
        new_coords[i] = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        new_bdry[i] = counts[(a, b)] == 1

    tris_out: list[tuple[int, int, int]] = []
    refs_out: list[int] = []
    gen_out: list[int] = []

    def split(v: tuple[int, int, int], r: int, gen: int) -> None:
        e = _edge_key(v[(r + 1) % 3], v[(r + 2) % 3])
        w = midpoint_id.get(e)
        if w is None:
            tris_out.append(v)
            refs_out.append(r)
            gen_out.append(gen)
            return
        # children ordering: the child keeping the (r+1) vertex first
        c1 = (v[r], v[(r + 1) % 3], w)
        c2 = (v[(r + 2) % 3], v[r], w)
        split(c1, 2, gen + 1)
        split(c2, 2, gen + 1)

    for t in range(mesh.num_triangles):
        v = tuple(int(x) for x in mesh.triangles[t])
        split(v, int(mesh.ref_edge[t]), int(mesh.generation[t]))

    return Mesh(
        vertices=np.vstack([mesh.vertices, new_coords]),
        boundary=np.concatenate([mesh.boundary, new_bdry]),
        triangles=np.asarray(tris_out, dtype=np.int64),
        ref_edge=np.asarray(refs_out, dtype=np.int64),
        generation=np.asarray(gen_out, dtype=np.int64),
        parent=mesh,
        new_vertex_edge={midpoint_id[e]: e for e in order},
    )


def _closure(mesh: Mesh, marked: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Close an edge set under the rule: a triangle with a marked edge gets
    its reference edge marked."""
    marked = set(marked)
    changed = True
    while changed:
        changed = False
        for t in range(mesh.num_triangles):
            ref = mesh.local_edge(t, int(mesh.ref_edge[t]))
            if ref in marked:
                continue
            if any(mesh.local_edge(t, k) in marked for k in range(3)):
                marked.add(ref)
                changed = True
    return marked


def uniform_refine(mesh: Mesh) -> TwoLevelOverlay:
    """Bisect every edge of `mesh` once (three bisections per triangle); the
    overlay's ``fine`` mesh is built here rather than on first access."""
    overlay = TwoLevelOverlay(mesh)
    overlay.fine  # built now, so that its cost falls inside this call
    return overlay


def refine(mesh: Mesh, marked, overlay: TwoLevelOverlay | None = None) -> Mesh:
    """Refine `mesh` so that every marked new vertex becomes a mesh vertex.

    Parameters
    ----------
    marked : iterable of positions into the N+ ordering of `overlay`
        (midpoints of interior edges, see ``TwoLevelOverlay``).
    overlay : reused if supplied, otherwise recomputed.

    Every triangle adjacent to a marked parent edge is refined by three
    bisections; NVB reference-edge closure then restores conformity.  With all
    of N+ marked this reproduces the uniform refinement exactly.
    """
    marked = sorted(set(int(i) for i in marked))
    if not marked:
        return mesh
    if overlay is None:
        overlay = TwoLevelOverlay(mesh)
    if marked[0] < 0 or marked[-1] >= overlay.num_new:
        raise ValueError(
            f"marked vertex id out of range 0..{overlay.num_new - 1}"
        )

    marked_edges = {overlay.nplus_edges[i] for i in marked}
    full = set(marked_edges)
    for t in range(mesh.num_triangles):
        tri_edges = [mesh.local_edge(t, k) for k in range(3)]
        if any(e in marked_edges for e in tri_edges):
            full.update(tri_edges)
    closed = _closure(mesh, full)
    return _bisect_all(mesh, closed)


@dataclass(frozen=True)
class MeshAudit:
    conforming: bool
    oriented: bool
    ref_edges_valid: bool
    min_angle_deg: float
    num_vertices: int
    num_triangles: int
    num_edges: int
    num_boundary_edges: int
    num_interior_edges: int

    @property
    def ok(self) -> bool:
        return self.conforming and self.oriented and self.ref_edges_valid


def mesh_audit(mesh: Mesh) -> MeshAudit:
    """Run invariant checks; used by the fuzz tests and the mesh reader."""
    counts = mesh.edge_counts
    conforming = all(c in (1, 2) for c in counts.values())

    # NVB hanging nodes sit at midpoints of once-counted edges
    if conforming:
        coord_set = {(float(x), float(y)) for x, y in mesh.vertices}
        for (a, b), c in counts.items():
            if c == 1:
                mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
                if (float(mid[0]), float(mid[1])) in coord_set:
                    conforming = False
                    break
                if not (mesh.boundary[a] and mesh.boundary[b]):
                    conforming = False
                    break

    oriented = bool(np.all(mesh.signed_areas() > 0.0))
    refs_valid = bool(
        np.all((mesh.ref_edge >= 0) & (mesh.ref_edge <= 2))
    ) and mesh.ref_edge.shape == (mesh.num_triangles,)

    return MeshAudit(
        conforming=conforming,
        oriented=oriented,
        ref_edges_valid=refs_valid,
        min_angle_deg=mesh.min_angle(),
        num_vertices=mesh.num_vertices,
        num_triangles=mesh.num_triangles,
        num_edges=len(mesh.edges),
        num_boundary_edges=len(mesh.boundary_edges),
        num_interior_edges=len(mesh.interior_edges),
    )


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the plain text format (see ``read_mesh``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"vertices {mesh.num_vertices} triangles {mesh.num_triangles}\n")
        for (x, y), b in zip(mesh.vertices, mesh.boundary):
            fh.write(f"{x:.17g} {y:.17g} {int(b)}\n")
        for tri, r in zip(mesh.triangles, mesh.ref_edge):
            fh.write(f"{tri[0]} {tri[1]} {tri[2]} {r}\n")


def read_mesh(path) -> Mesh:
    """Read the text format: header ``vertices N triangles M``, then N lines
    ``x y boundary_flag`` and M lines ``v0 v1 v2 ref_edge`` (0-based ids).

    Rejects non-conforming or badly oriented input.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "vertices" or header[2] != "triangles":
            raise ValueError(f"bad mesh header: {' '.join(header)!r}")
        nv, nt = int(header[1]), int(header[3])
        coords = np.empty((nv, 2))
        bdry = np.empty(nv, dtype=bool)
        for i in range(nv):
            x, y, b = fh.readline().split()
            coords[i] = (float(x), float(y))
            bdry[i] = bool(int(b))
        tris = np.empty((nt, 3), dtype=np.int64)
        refs = np.empty(nt, dtype=np.int64)
        for i in range(nt):
            v0, v1, v2, r = (int(s) for s in fh.readline().split())
            tris[i] = (v0, v1, v2)
            refs[i] = r
    if tris.size and (tris.min() < 0 or tris.max() >= nv):
        raise ValueError("triangle vertex id out of range")
    mesh = Mesh(
        vertices=coords,
        boundary=bdry,
        triangles=tris,
        ref_edge=refs,
        generation=np.zeros(nt, dtype=np.int64),
    )
    audit = mesh_audit(mesh)
    if not audit.ok:
        raise ValueError(f"mesh file {path} failed validation: {audit}")
    return mesh
