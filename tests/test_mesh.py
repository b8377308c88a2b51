import dataclasses
import itertools
import pickle
import warnings
import weakref

import numpy as np
import pytest

import oracles
import sgfem.mesh
from oracles import mesh_audit, min_angle
from sgfem import (
    initial_lshape,
    read_mesh,
    refine,
    uniform_refine,
    unit_square,
    write_mesh,
)


# the unit square as two triangles plus two free vertices no triangle uses
STRAY_VERTICES_MESH = """vertices 6 triangles 2
0 0 1
1 0 1
1 1 1
0 1 1
0.5 0.25 0
0.25 0.5 0
0 1 2 1
0 2 3 2
"""


# one triangle listed twice: every edge counts 2, so no edge is on the
# boundary; with its vertices free or flagged as boundary
DUPLICATE_TRIANGLE_MESHES = {
    name: f"vertices 3 triangles 2\n0 0 {flag}\n1 0 {flag}\n0 1 {flag}\n0 1 2 0\n0 1 2 0\n"
    for name, flag in (("free", 0), ("boundary", 1))
}


# the unit square cut by its diagonal (0, 2): triangle (0, 2, 3) above it,
# and below it two triangles meeting at vertex 4, a quarter of the way along
# the diagonal, a T-junction that is not a midpoint
T_JUNCTION_MESH = """vertices 5 triangles 3
0 0 1
1 0 1
1 1 1
0 1 1
0.25 0.25 1
0 2 3 0
0 1 4 0
1 2 4 0
"""


@pytest.fixture
def lmesh():
    return initial_lshape()


class TestPickle:
    @pytest.mark.parametrize("steps", [0, 3])
    def test_pickles_its_fields_only(self, lmesh, steps):
        mesh = lmesh
        for k in range(steps):
            mesh = refine(uniform_refine(mesh), [k])
        cold = pickle.dumps(mesh)
        mesh.free_index, mesh.edges, mesh.triangle_edges  # fill the caches
        warm = pickle.dumps(mesh)
        assert len(warm) == len(cold)
        copy = pickle.loads(warm)
        for field in dataclasses.fields(mesh):
            want = getattr(mesh, field.name)
            got = getattr(copy, field.name)
            assert got is want is None or np.array_equal(got, want), field.name
        assert np.array_equal(copy.edges, mesh.edges)
        assert weakref.ref(copy)() is copy


class TestInitialMeshes:
    def test_lshape_counts(self, lmesh):
        assert lmesh.num_vertices == 8
        assert lmesh.num_triangles == 6
        assert len(lmesh.edges) == 13
        assert (lmesh.edge_counts == 1).sum() == 8
        assert lmesh.interior_edge_ids.size == 5
        assert bool(lmesh.boundary.all())
        assert lmesh.free_nodes.size == 0

    def test_lshape_geometry(self, lmesh):
        assert lmesh.signed_areas().sum() == pytest.approx(3.0, abs=1e-14)
        assert np.all(lmesh.signed_areas() > 0)
        assert min_angle(lmesh) == pytest.approx(45.0, abs=1e-10)

    def test_lshape_reference_edges_are_diagonals(self, lmesh):
        # every reference edge has length sqrt(2)
        for t in range(lmesh.num_triangles):
            a, b = lmesh.edges[lmesh.triangle_edges[t, lmesh.ref_edge[t]]]
            d = lmesh.vertices[a] - lmesh.vertices[b]
            assert np.hypot(*d) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_lshape_audit(self, lmesh):
        audit = mesh_audit(lmesh)
        assert audit.ok
        assert audit.num_edges == 13
        assert audit.num_boundary_edges == 8

    def test_unit_square(self):
        sq = unit_square()
        assert sq.num_triangles == 2
        assert mesh_audit(sq).ok
        assert sq.signed_areas().sum() == pytest.approx(1.0)

    def test_identity_equality(self, lmesh):
        other = initial_lshape()
        assert lmesh == lmesh
        assert lmesh != other
        assert len({lmesh, other, lmesh}) == 2
        assert hash(lmesh) != hash(other)


class TestUniformRefine:
    def test_counts(self, lmesh):
        fine = uniform_refine(lmesh)
        assert fine.num_triangles == 24
        assert fine.num_vertices == 8 + 13  # one midpoint per coarse edge
        assert sgfem.mesh.bisected_edges(lmesh, fine).tolist() == list(range(13))
        assert lmesh.interior_edge_ids.size == 5  # interior-edge midpoints
        assert mesh_audit(fine).ok
        assert min_angle(fine) == pytest.approx(45.0, abs=1e-10)

    def test_new_vertices_are_midpoints(self, lmesh):
        fine = uniform_refine(lmesh)
        assert fine.new_vertex_edge.shape == (fine.num_vertices - lmesh.num_vertices, 2)
        for v, (a, b) in enumerate(fine.new_vertex_edge, start=lmesh.num_vertices):
            mid = 0.5 * (lmesh.vertices[a] + lmesh.vertices[b])
            assert np.allclose(fine.vertices[v], mid)

    def test_nplus_vertices_interior(self, lmesh):
        fine = uniform_refine(lmesh)
        nplus = oracles.nplus_vertices(lmesh)
        assert not fine.boundary[nplus].any()
        # every other new vertex lies on the boundary
        new = np.arange(lmesh.num_vertices, fine.num_vertices)
        assert fine.boundary[np.setdiff1d(new, nplus)].all()

    def test_overlap_counts_at_most_three(self, lmesh):
        counts = (lmesh.triangle_nplus >= 0).sum(axis=1)
        assert counts.max() <= 3
        assert counts.min() >= 1

    def test_areas_preserved(self, lmesh):
        fine = uniform_refine(lmesh)
        assert fine.signed_areas().sum() == pytest.approx(3.0, abs=1e-13)

    def test_nplus_tables_match_mesh_edges(self, lmesh):
        rng = np.random.default_rng(7)
        mesh = lmesh
        for _ in range(6):
            counts = oracles.edge_counts(mesh)
            assert [tuple(e) for e in mesh.edges.tolist()] == sorted(counts)
            assert mesh.edge_counts.tolist() == [counts[e] for e in sorted(counts)]
            nplus = oracles.interior_edges(mesh)
            assert [tuple(mesh.edges[e]) for e in mesh.interior_edge_ids] == nplus
            position = {e: i for i, e in enumerate(nplus)}
            for t in range(mesh.num_triangles):
                for k in range(3):
                    edge = oracles.local_edge(mesh, t, k)
                    assert tuple(mesh.edges[mesh.triangle_edges[t, k]]) == edge
                    assert mesh.triangle_nplus[t, k] == position.get(edge, -1)
            # the N+ tables are derived on access; only the edge table and
            # the free-node maps are kept on the mesh
            fields = {f.name for f in dataclasses.fields(mesh)}
            assert set(vars(mesh)) - fields <= {"_edge_table", "edges", "free_nodes", "free_index"}
            num_new = len(nplus)
            marked = rng.choice(num_new, size=max(1, num_new // 3), replace=False)
            mesh = refine(mesh, marked)

    def test_parent_triangle_map(self, lmesh):
        fine = uniform_refine(lmesh)
        # four children per coarse triangle, emitted in order, with matching
        # total area
        parent_triangle = np.repeat(np.arange(lmesh.num_triangles), 4)
        for t in range(lmesh.num_triangles):
            children = np.flatnonzero(parent_triangle == t)
            assert children.size == 4
            child_area = fine.signed_areas()[children].sum()
            assert child_area == pytest.approx(lmesh.signed_areas()[t], abs=1e-14)


def nvb_chain(start, seed, steps=8):
    """`steps` meshes of a seeded NVB chain from `start()`, each refined
    from the one before by a third of its N+ marked at random."""
    rng = np.random.default_rng(seed)
    mesh = start()
    for _ in range(steps):
        yield mesh
        num_new = mesh.interior_edge_ids.size
        mesh = refine(mesh, rng.choice(num_new, size=max(1, num_new // 3), replace=False))


class TestChildLayout:
    """``child_corners``, ``MIDPOINT_SLOTS`` and ``Mesh.midpoint_nplus``
    describe the triangles and new vertices that ``uniform_refine`` makes."""

    @pytest.mark.parametrize("start", [initial_lshape, unit_square])
    def test_children_are_those_of_uniform_refine(self, start):
        rng = np.random.default_rng(1)
        for mesh in nvb_chain(start, 3):
            fine = uniform_refine(mesh)
            children = fine.vertices[fine.triangles].reshape(mesh.num_triangles, 4, 3, 2)
            rows = np.arange(mesh.num_triangles)
            assert np.array_equal(sgfem.mesh.child_corners(mesh, rows), children)
            some = rng.permutation(rows)[: max(1, rows.size // 2)]
            assert np.array_equal(sgfem.mesh.child_corners(mesh, some), children[some])

    @pytest.mark.parametrize("start", [initial_lshape, unit_square])
    def test_midpoints_sit_at_their_slots(self, start):
        for mesh in nvb_chain(start, 4):
            fine = uniform_refine(mesh)
            children = fine.triangles.reshape(mesh.num_triangles, 4, 3)
            nplus = mesh.midpoint_nplus
            vertex = mesh.num_vertices + mesh.interior_edge_ids[np.maximum(nplus, 0)]
            new = np.zeros((4, 3), dtype=bool)
            for j, slots in enumerate(sgfem.mesh.MIDPOINT_SLOTS):
                child, corner = slots.T
                at = children[:, child, corner]
                assert (at == at[:, :1]).all()  # one new vertex in all its slots
                inside = nplus[:, j] >= 0
                assert np.array_equal(at[inside, 0], vertex[inside, j])
                assert fine.boundary[at[~inside, 0]].all()
                assert not new[child, corner].any()
                new[child, corner] = True
            # the other corners are the coarse triangle's vertices
            assert (children[:, new] >= mesh.num_vertices).all()
            assert (children[:, ~new] < mesh.num_vertices).all()
            # midpoint m halves the reference edge
            ref = mesh.triangle_nplus[np.arange(mesh.num_triangles), mesh.ref_edge]
            assert np.array_equal(nplus[:, 0], ref)


class TestRefine:
    def test_empty_marking_is_identity(self, lmesh):
        assert refine(lmesh, []) is lmesh

    def test_all_marked_equals_uniform(self, lmesh):
        fine = uniform_refine(lmesh)
        full = refine(lmesh, range(lmesh.interior_edge_ids.size))
        assert np.array_equal(full.triangles, fine.triangles)
        assert np.array_equal(full.ref_edge, fine.ref_edge)
        assert np.array_equal(full.vertices, fine.vertices)

    def test_single_mark_conforming(self, lmesh):
        out = refine(lmesh, [0])
        # both wing triangles of the marked diagonal are fully bisected and
        # conformity closure propagates; the refined mesh stays admissible
        assert out.num_triangles == 15
        audit = mesh_audit(out)
        assert audit.ok
        assert min_angle(out) == pytest.approx(45.0, abs=1e-10)

    def test_marked_vertices_present(self, lmesh):
        fine = uniform_refine(lmesh)
        nplus = oracles.nplus_vertices(lmesh)
        for pos in range(nplus.size):
            out = refine(lmesh, [pos])
            target = fine.vertices[nplus[pos]]
            assert np.any(np.all(np.isclose(out.vertices, target), axis=1))

    def test_realized_needs_one_step(self, lmesh):
        realized = sgfem.mesh.realized
        once = refine(lmesh, [0])
        assert realized(lmesh, lmesh).size == 0
        assert 0 in realized(lmesh, once)
        with pytest.raises(ValueError, match="one step"):
            realized(lmesh, refine(once, [0]))

    def test_source_of_uniform_refinement(self, lmesh):
        # a uniform refinement keeps no triangle; a mesh read or made from
        # scratch has no source
        assert lmesh.source is None
        assert (uniform_refine(lmesh).source == -1).all()

    def test_bisected_edges_one_step_only(self, lmesh):
        bisected_edges = sgfem.mesh.bisected_edges
        once = refine(lmesh, [0])
        twice = refine(once, [1])
        ids = bisected_edges(lmesh, once)
        assert np.array_equal(lmesh.edges[ids], once.new_vertex_edge)
        assert lmesh.interior_edge_ids[0] in ids
        # a mesh with the same arrays is the same coarse mesh
        assert np.array_equal(bisected_edges(refine(lmesh, [0]), twice),
                              bisected_edges(once, twice))
        for coarse, refined in ((lmesh, lmesh), (once, once), (lmesh, twice),
                                (once, lmesh), (unit_square(), once)):
            assert bisected_edges(coarse, refined) is None
        # same vertex count, other vertices
        moved = dataclasses.replace(lmesh, vertices=lmesh.vertices + 1.0)
        assert bisected_edges(moved, once) is None
        # same vertices, other edges: (0, 4) is no edge of the flipped mesh
        flipped = dataclasses.replace(
            lmesh, triangles=np.array([[0, 3, 1], [3, 4, 1], *lmesh.triangles[2:]]))
        assert bisected_edges(flipped, refine(lmesh, [0])) is None

    def test_out_of_range_mark_rejected(self, lmesh):
        with pytest.raises(ValueError):
            refine(lmesh, [lmesh.interior_edge_ids.size])

    def test_bisection_depth(self, lmesh):
        out = refine(lmesh, [0])
        # fully bisected triangles are split twice within one call, and NVB
        # halves the area exactly: 0.5 is the area of an initial triangle
        assert out.signed_areas().min() == 0.5 * 2.0**-2
        assert out.signed_areas().max() == 0.5
        assert np.array_equal(out.vertices[: lmesh.num_vertices], lmesh.vertices)

    def test_repeated_refinement_stays_admissible(self, lmesh):
        rng = np.random.default_rng(42)
        mesh = lmesh
        for _ in range(12):
            num_new = mesh.interior_edge_ids.size
            k = int(rng.integers(1, 4))
            marked = rng.choice(num_new, size=min(k, num_new), replace=False)
            mesh = refine(mesh, marked)
            audit = mesh_audit(mesh)
            assert audit.ok
            assert audit.min_angle_deg >= 22.5
        assert mesh.signed_areas().sum() == pytest.approx(3.0, abs=1e-12)


class TestAudit:
    def test_detects_bad_orientation(self, lmesh):
        tris = lmesh.triangles.copy()
        tris[0] = tris[0][::-1]
        from sgfem.mesh import Mesh

        bad = Mesh(
            vertices=lmesh.vertices,
            boundary=lmesh.boundary,
            triangles=tris,
            ref_edge=lmesh.ref_edge,
        )
        assert not mesh_audit(bad).oriented

    def test_detects_hanging_node(self, lmesh):
        # refine one triangle's reference edge without closing the neighbor
        from sgfem.mesh import Mesh

        fine = uniform_refine(lmesh)
        # mix one coarse triangle with fine triangles sharing a bisected edge
        tris = np.vstack([fine.triangles[:4], lmesh.triangles[1:]])
        bad = Mesh(
            vertices=fine.vertices,
            boundary=fine.boundary,
            triangles=tris,
            ref_edge=np.zeros(len(tris), dtype=np.int64),
        )
        assert not mesh_audit(bad).conforming


class TestIO:
    def test_roundtrip(self, tmp_path, lmesh):
        mesh = refine(lmesh, [0, 2])
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.ref_edge, mesh.ref_edge)
        assert np.array_equal(back.boundary, mesh.boundary)
        assert mesh_audit(back).ok

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_mesh(tmp_path / "nope.txt")

    @pytest.mark.parametrize("vertices", [0, 3])
    def test_read_mesh_without_triangles(self, tmp_path, vertices):
        path = tmp_path / "empty.mesh"
        lines = ["0 0 1", "1 0 1", "0 1 1"][:vertices]
        path.write_text(f"vertices {vertices} triangles 0\n" + "".join(f"{v}\n" for v in lines))
        with pytest.raises(ValueError, match="no triangles"):
            read_mesh(path)

    def test_read_header_counts_beyond_the_file(self, tmp_path):
        # counts the file cannot hold are rejected before any allocation
        path = tmp_path / "huge.mesh"
        path.write_text("vertices 100000000000 triangles 1\n0 0 1\n")
        with pytest.raises(ValueError, match=r"line 3 \(vertex 1\) is missing"):
            read_mesh(path)

    @pytest.mark.parametrize("keep, missing", [(2, r"line 4 \(vertex 2\)"),
                                               (3, r"line 5 \(triangle 0\)")])
    def test_read_truncated_file_names_the_missing_line(self, tmp_path, keep, missing):
        lines = ["vertices 3 triangles 1", "0 0 1", "1 0 1", "0 1 1", "0 1 2 0"]
        path = tmp_path / "cut.mesh"
        path.write_text("\n".join(lines[:1 + keep]) + "\n")
        with pytest.raises(ValueError, match=missing + " is missing"):
            read_mesh(path)

    @pytest.mark.parametrize("header", ["vertices -3 triangles 1", "vertices 3 triangles x"])
    def test_read_bad_counts(self, tmp_path, header):
        path = tmp_path / "bad.mesh"
        path.write_text(header + "\n0 0 1\n1 0 1\n0 1 1\n0 1 2 0\n")
        with pytest.raises(ValueError, match="bad mesh header"):
            read_mesh(path)

    def test_read_vertex_of_no_triangle(self, tmp_path):
        path = tmp_path / "stray.mesh"
        path.write_text(STRAY_VERTICES_MESH)
        with pytest.raises(ValueError, match="line 6: vertex 4 belongs to no triangle"):
            read_mesh(path)

    @pytest.mark.parametrize("vertices", sorted(DUPLICATE_TRIANGLE_MESHES))
    def test_read_duplicate_triangle(self, tmp_path, vertices):
        path = tmp_path / "twice.mesh"
        path.write_text(DUPLICATE_TRIANGLE_MESHES[vertices])
        with pytest.raises(ValueError, match="do not tile the region their boundary encloses"):
            read_mesh(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_read_non_finite_coordinate(self, tmp_path, value):
        path = tmp_path / "nan.mesh"
        path.write_text(f"vertices 3 triangles 1\n0 0 1\n{value} 0 1\n0 1 1\n0 1 2 0\n")
        with pytest.raises(ValueError, match="line 3: vertex 1 has a non-finite coordinate"):
            read_mesh(path)

    @pytest.mark.parametrize("line, what", [
        ("0 1 2 3", "triangle 0 has reference edge 3 out of range 0..2"),
        ("0 1 2 -1", "triangle 0 has reference edge -1 out of range 0..2"),
        ("0 1 3 0", "triangle 0 has a vertex id out of range 0..2"),
        ("0 1 2 99999999999999999999", "triangle 0 has reference edge 99999999999999999999 out of"),
    ])
    def test_read_triangle_line_out_of_range(self, tmp_path, line, what):
        path = tmp_path / "range.mesh"
        path.write_text(f"vertices 3 triangles 1\n0 0 1\n1 0 1\n0 1 1\n{line}\n")
        with pytest.raises(ValueError, match="line 5: " + what):
            read_mesh(path)

    def test_read_coordinates_too_large(self, tmp_path):
        path = tmp_path / "huge.mesh"
        path.write_text("vertices 3 triangles 1\n0 0 1\n1e200 0 1\n0 1e200 1\n0 1 2 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coordinates are too large: the areas overflow"):
                read_mesh(path)

    @staticmethod
    def reject(tmp_path, mesh, what):
        path = tmp_path / "bad.mesh"
        write_mesh(mesh, path)
        with pytest.raises(ValueError, match=what):
            read_mesh(path)

    def test_read_reversed_triangle(self, tmp_path, lmesh):
        tris = lmesh.triangles.copy()
        tris[2] = tris[2, ::-1]
        # triangle 2 is on line 2 + 8 vertices + 2
        self.reject(tmp_path, dataclasses.replace(lmesh, triangles=tris),
                    r"line 12: triangle 2 is not positively oriented \(signed area -0.5\)")

    def test_read_edge_on_three_triangles(self, tmp_path, lmesh):
        tris = np.vstack([lmesh.triangles, lmesh.triangles[:1]])
        refs = np.append(lmesh.ref_edge, lmesh.ref_edge[0])
        self.reject(tmp_path, dataclasses.replace(lmesh, triangles=tris, ref_edge=refs),
                    r"edge \(0, 4\) lies on 3 triangles")

    def test_read_hanging_node(self, tmp_path):
        # the unit square's triangle (0, 1, 2) bisected at the diagonal's
        # midpoint 4, the other triangle (0, 2, 3) not
        square = unit_square()
        mesh = dataclasses.replace(
            square, vertices=np.vstack([square.vertices, [0.5, 0.5]]),
            boundary=np.append(square.boundary, False),
            triangles=np.array([[0, 1, 4], [1, 2, 4], [0, 2, 3]]), ref_edge=np.array([2, 2, 1]))
        self.reject(tmp_path, mesh,
                    r"hanging node: vertex 4 lies inside boundary edge \(0, 2\)")

    def test_read_t_junction(self, tmp_path):
        path = tmp_path / "t.mesh"
        path.write_text(T_JUNCTION_MESH)
        with pytest.raises(ValueError, match=r"hanging node: vertex 4 lies inside boundary "
                                             r"edge \(0, 2\)"):
            read_mesh(path)

    def test_read_t_junction_under_every_numbering(self, tmp_path):
        # the check takes the boundary edges in batches, in the order of
        # their vertex ids; the 120 numberings of the five vertices put the
        # cut diagonal into either of the two batches, and each finds it
        lines = T_JUNCTION_MESH.splitlines()
        path = tmp_path / "t.mesh"
        for new in itertools.permutations(range(5)):
            old = np.argsort(new)
            tris = [" ".join(str(new[int(v)]) for v in line.split()[:3]) + " 0"
                    for line in lines[6:]]
            path.write_text("\n".join([lines[0]] + [lines[1 + k] for k in old] + tris) + "\n")
            a, b = sorted((new[0], new[2]))
            with pytest.raises(ValueError, match=rf"vertex {new[4]} lies inside boundary "
                                                 rf"edge \({a}, {b}\)"):
                read_mesh(path)

    def test_read_refined_meshes_have_no_t_junction(self, tmp_path):
        # boundary edges of every direction, one vertex on each side's line
        # beyond them: collinear, but not inside
        mesh = refine(uniform_refine(uniform_refine(initial_lshape())), [0, 5, 17])
        path = tmp_path / "fine.mesh"
        write_mesh(mesh, path)
        assert read_mesh(path).num_triangles == mesh.num_triangles

    def test_read_boundary_vertex_not_flagged(self, tmp_path):
        square = unit_square()
        boundary = square.boundary.copy()
        boundary[1] = False
        self.reject(tmp_path, dataclasses.replace(square, boundary=boundary),
                    r"line 3: vertex 1 lies on boundary edge \(0, 1\) but is not flagged")

    def test_read_malformed_line(self, tmp_path):
        path = tmp_path / "short.mesh"
        path.write_text("vertices 3 triangles 1\n0 0 1\n1 0\n0 1 1\n0 1 2 0\n")
        with pytest.raises(ValueError, match="line 3: expected 'x y boundary_flag'"):
            read_mesh(path)


def assert_same_as_oracle(new, old):
    """`new` (array refinement) equals `old` (loop oracle) bit for bit."""
    for name in ("vertices", "boundary", "triangles", "ref_edge"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    n = new.num_vertices - len(new.new_vertex_edge)
    assert {
        n + i: tuple(e) for i, e in enumerate(new.new_vertex_edge.tolist())
    } == old.new_vertex_edge


class TestLoopOracle:
    """The array refinement against the former loop implementation, kept in
    tests/oracles.py, along seeded refinement chains."""

    @staticmethod
    def step(mesh, marked):
        new = refine(mesh, marked)
        assert_same_as_oracle(new, oracles.loop_refine(mesh, marked))
        # the realized positions are those of the bisected interior edges
        position = {e: i for i, e in enumerate(oracles.interior_edges(mesh))}
        realized = sorted(
            position[tuple(e)] for e in new.new_vertex_edge.tolist() if tuple(e) in position
        )
        assert sgfem.mesh.realized(mesh, new).tolist() == realized
        # the kept triangles are those with a vertex triple and reference
        # edge of the coarse mesh
        before = np.column_stack([mesh.triangles, mesh.ref_edge]).tolist()
        after = np.column_stack([new.triangles, new.ref_edge]).tolist()
        row = {tuple(t): i for i, t in enumerate(before)}
        matches = [(row[tuple(t)], i) for i, t in enumerate(after) if tuple(t) in row]
        rows = np.flatnonzero(new.source >= 0)
        assert list(zip(new.source[rows].tolist(), rows.tolist())) == matches
        return new

    @pytest.mark.parametrize("start", [initial_lshape, unit_square])
    @pytest.mark.parametrize("fraction", [0.0, 0.2, 1.0])
    def test_random_chains(self, start, fraction):
        rng = np.random.default_rng(11 + int(10 * fraction))
        mesh = start()
        for _ in range(7):
            num_new = mesh.interior_edge_ids.size
            k = max(1, int(fraction * num_new))
            mesh = self.step(mesh, rng.choice(num_new, size=k, replace=False))

    @pytest.mark.parametrize("start", [initial_lshape, unit_square])
    def test_uniform(self, start):
        mesh = start()
        for _ in range(5):
            fine = uniform_refine(mesh)
            assert_same_as_oracle(fine, oracles.loop_uniform_refine(mesh))
            all_marked = self.step(mesh, range(mesh.interior_edge_ids.size))
            assert_same_as_oracle(all_marked, oracles.loop_uniform_refine(mesh))
            mesh = fine

    def test_single_marks_at_deep_generations(self):
        # grade the mesh towards the reentrant corner by marking one edge at
        # a time, then mark single edges across the graded region, whose
        # closure runs through dozens of generations
        mesh = initial_lshape()
        for _ in range(40):
            edges = mesh.edges[mesh.interior_edge_ids]
            mid = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
            mesh = self.step(mesh, [int(np.argmin(np.hypot(*mid.T)))])
        # NVB halves areas exactly: some triangle is 60 bisections deep
        assert mesh.signed_areas().min() <= 0.5 * 2.0**-60
        rng = np.random.default_rng(5)
        longest = 0
        for pos in rng.choice(mesh.interior_edge_ids.size, size=25, replace=False):
            out = self.step(mesh, [pos])
            longest = max(longest, sgfem.mesh.realized(mesh, out).size)
        assert longest > 50

    @pytest.mark.parametrize("start", [initial_lshape, unit_square])
    def test_chain_past_30k_triangles(self, start):
        rng = np.random.default_rng(2024)
        mesh = start()
        while mesh.num_triangles <= 30_000:
            num_new = mesh.interior_edge_ids.size
            k = max(1, num_new // 4)
            mesh = self.step(mesh, rng.choice(num_new, size=k, replace=False))
        assert mesh_audit(mesh).ok

    def test_open_marking_rejected(self, lmesh):
        # a marked edge without its reference edge would leave a hanging node
        marked = np.zeros(lmesh.edge_keys.size, dtype=bool)
        t = 0
        marked[lmesh.triangle_edges[t, (lmesh.ref_edge[t] + 1) % 3]] = True
        with pytest.raises(ValueError, match="not closed"):
            sgfem.mesh._bisect(lmesh, marked)
