"""Mesh construction, geometry, orientation, and file round-trip tests.

Frozen entity counts come from drawing the n = 1, 2 uniform meshes by hand:
triangles have V = (n+1)^2, F = 2n^2, E = 3n^2 + 2n; quads have F = n^2 and
E = 2n(n+1).
"""

import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wg_biharm as wg
from conftest import (grid_vertex, jittered_triangle_mesh,
                      polygonal_mesh_cells, single_cell_mesh)
from wg_biharm.mesh import edge_points, polygon_area_centroid


def test_triangle_mesh_entity_counts():
    for n, expected in [(1, (4, 2, 5)), (2, (9, 8, 16)), (3, (16, 18, 33))]:
        mesh = wg.build_uniform_triangle_mesh(n)
        assert (mesh.n_vertices, mesh.n_cells, mesh.n_edges) == expected
        assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1
        assert int(np.sum(mesh.boundary_edges)) == 4 * n


def test_quad_mesh_entity_counts():
    for n, expected in [(1, (4, 1, 4)), (2, (9, 4, 12)), (3, (16, 9, 24))]:
        mesh = wg.build_uniform_quad_mesh(n)
        assert (mesh.n_vertices, mesh.n_cells, mesh.n_edges) == expected
        assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1
        assert int(np.sum(mesh.boundary_edges)) == 4 * n


def test_unit_right_triangle_geometry():
    mesh = single_cell_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    geom = wg.cell_geometry(mesh, 0)
    assert geom.area == pytest.approx(0.5, abs=1e-15)
    assert geom.diameter == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert geom.centroid == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-15)


def test_quad_cell_geometry():
    mesh = wg.build_uniform_quad_mesh(2)
    geom = wg.cell_geometry(mesh, 0)
    assert geom.area == pytest.approx(0.25, abs=1e-15)
    assert geom.centroid == pytest.approx([0.25, 0.25], abs=1e-15)
    assert geom.diameter == pytest.approx(np.sqrt(0.5), abs=1e-15)


def test_cell_areas_partition_unit_square():
    for mesh in (wg.build_uniform_triangle_mesh(4), wg.build_uniform_quad_mesh(4)):
        total = sum(wg.cell_geometry(mesh, c).area for c in range(mesh.n_cells))
        assert total == pytest.approx(1.0, abs=1e-14)


def test_edge_geometry_frames():
    mesh = wg.build_uniform_triangle_mesh(2)
    for e in range(mesh.n_edges):
        a, b = mesh.vertices[mesh.edges[e]]
        normal, tangent = mesh.edge_normals[e], mesh.edge_tangents[e]
        assert mesh.edge_lengths[e] == pytest.approx(np.linalg.norm(b - a),
                                                     abs=1e-15)
        assert mesh.edge_midpoints[e] == pytest.approx(0.5 * (a + b),
                                                       abs=1e-15)
        assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(tangent) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.dot(normal, tangent)) < 1e-14
        # right-handed frame: rotating the tangent by -90 degrees gives n
        assert normal == pytest.approx([tangent[1], -tangent[0]], abs=1e-14)


def test_edge_points_parameterization():
    mesh = wg.build_uniform_triangle_mesh(1)
    for e in range(mesh.n_edges):
        a, b = mesh.vertices[mesh.edges[e]]
        pts = edge_points(mesh, e, np.array([-1.0, 0.0, 1.0]))
        assert pts[0] == pytest.approx(a, abs=1e-15)
        assert pts[1] == pytest.approx(0.5 * (a + b), abs=1e-15)
        assert pts[2] == pytest.approx(b, abs=1e-15)
    # an index array of edges gives the per-edge points stacked edge by
    # edge, bit for bit, and an (r, m) array one stack per row
    t = wg.edge_quadrature(7).points
    for ids in (np.arange(mesh.n_edges), np.array([4, 1, 3])):
        stacked = np.concatenate([edge_points(mesh, e, t) for e in ids])
        assert np.array_equal(edge_points(mesh, ids, t), stacked)
        assert np.array_equal(edge_points(mesh, np.stack([ids, ids]), t),
                              np.stack([stacked, stacked]))


def test_geometry_arrays_on_polygonal_mesh():
    vertices, cells = polygonal_mesh_cells()
    v = grid_vertex
    mesh = wg.mesh_from_cells(vertices, cells)
    # the L cell turns right at (3, 1)
    (px, py), (qx, qy), (rx, ry) = vertices[[v(3, 2), v(3, 1), v(2, 1)]]
    assert (qx - px) * (ry - qy) - (qy - py) * (rx - qx) < 0.0

    for c in range(mesh.n_cells):
        coords = mesh.cell_vertices(c)
        area, centroid = polygon_area_centroid(coords)
        diameter = max(np.sqrt(np.sum((a - b) ** 2))
                       for a in coords for b in coords)
        assert mesh.cell_areas[c] == area
        assert np.array_equal(mesh.cell_centroids[c], centroid)
        assert mesh.cell_diameters[c] == diameter
    assert np.sum(mesh.cell_areas) == pytest.approx(0.5, abs=1e-15)
    for e, (a, b) in enumerate(mesh.edges):
        d = vertices[b] - vertices[a]
        length = np.hypot(*d)
        assert mesh.edge_lengths[e] == length
        assert np.array_equal(mesh.edge_midpoints[e],
                              0.5 * (vertices[a] + vertices[b]))
        assert np.array_equal(mesh.edge_tangents[e], d / length)
        assert np.array_equal(mesh.edge_normals[e],
                              [d[1] / length, -d[0] / length])
    assert wg.max_cell_diameter(mesh) == np.max(mesh.cell_diameters)

    for name in ("cell_areas", "cell_centroids", "cell_diameters",
                 "edge_lengths", "edge_midpoints", "edge_normals",
                 "edge_tangents"):
        arr = getattr(mesh, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("h, shift", [(2.0 ** -12, 1e5 + 0.1234),
                                      (2.0 ** -15, 1e4 + 0.1234)])
def test_small_cells_far_from_the_origin_keep_their_area(h, shift):
    # h is a power of two, so the moved vertices' offsets are exact and the
    # true area of every cell is h^2; products of absolute coordinates
    # lose the area to rounding and call the cells clockwise
    base = wg.build_uniform_quad_mesh(4)
    vertices = base.vertices * (4.0 * h) + shift
    mesh = wg.mesh_from_cells(vertices, base.cells)
    assert np.allclose(mesh.cell_areas, h * h, rtol=1e-12, atol=0.0)
    assert np.allclose(mesh.cell_centroids - shift,
                       base.cell_centroids * (4.0 * h), rtol=0.0,
                       atol=1e-12 * h)
    with pytest.raises(ValueError, match="counter-clockwise"):
        wg.mesh_from_cells(vertices, [c[::-1] for c in base.cells])


def test_boundary_normals_point_outward():
    mesh = wg.build_uniform_quad_mesh(3)
    for e in np.flatnonzero(mesh.boundary_edges):
        outward = mesh.edge_midpoints[e] + 1e-3 * mesh.edge_normals[e]
        assert np.any((outward < 0.0) | (outward > 1.0))


def test_interior_edge_signs_follow_cell_ids():
    for mesh in (wg.build_uniform_triangle_mesh(3), wg.build_uniform_quad_mesh(3)):
        sign_of = {}
        for c in range(mesh.n_cells):
            for e, s in mesh.cell_rows(c)[1]:
                sign_of.setdefault(e, {})[c] = s
        for e in range(mesh.n_edges):
            c0, c1 = mesh.edge_cells[e]
            if mesh.boundary_edges[e]:
                assert c1 == -1 and sign_of[e][c0] == 1
            else:
                assert c0 < c1
                assert sign_of[e][c0] == 1 and sign_of[e][c1] == -1


def test_signed_normals_close_per_cell():
    # divergence theorem for constants: sum of sign * h_e * n_e vanishes
    for mesh in (wg.build_uniform_triangle_mesh(3), wg.build_uniform_quad_mesh(3)):
        for c in range(mesh.n_cells):
            total = np.zeros(2)
            for e, s in mesh.cell_rows(c)[1]:
                total += s * mesh.edge_lengths[e] * mesh.edge_normals[e]
            assert np.max(np.abs(total)) < 1e-12


def _shape_classes(mesh):
    """The cells grouped by shape, as a set of frozensets of cell ids."""
    return {frozenset(np.flatnonzero(mesh.cell_shapes == rep).tolist())
            for rep in np.unique(mesh.cell_shapes)}


@pytest.mark.parametrize("n", [2, 7, 24, 33])
@pytest.mark.parametrize("build", [wg.build_uniform_triangle_mesh,
                                   wg.build_uniform_quad_mesh])
def test_uniform_meshes_have_four_cell_shapes(build, n):
    # the incidence signs of the bottom and left (triangles: bottom or
    # left) edges split the translates of each grid cell in two: boundary
    # edges are the cell's own, interior ones its lower neighbour's
    mesh = build(n)
    shapes = mesh.cell_shapes
    assert np.unique(shapes).size == 4
    assert np.all(shapes <= np.arange(mesh.n_cells))
    assert np.array_equal(shapes[shapes], shapes)
    for c in range(mesh.n_cells):
        rep = shapes[c]
        shift = mesh.cell_shifts(c)
        assert np.array_equal(mesh.cell_rows(c)[1][:, 1],
                              mesh.cell_rows(rep)[1][:, 1])
        np.testing.assert_allclose(
            mesh.vertices[mesh.cell_rows(c)[0]],
            mesh.vertices[mesh.cell_rows(rep)[0]] + shift, rtol=0.0,
            atol=1e-15)


def test_a_moved_vertex_gives_its_cells_their_own_shapes():
    for build in (wg.build_uniform_triangle_mesh, wg.build_uniform_quad_mesh):
        mesh = build(6)
        vertices = mesh.vertices.copy()
        moved = 3 * 7 + 2  # an interior grid vertex
        vertices[moved, 1] += 1e-9 * wg.max_cell_diameter(mesh)
        other = wg.mesh_from_cells(vertices, mesh.cells)
        touched = {c for c, ids in enumerate(mesh.cells) if moved in ids}
        assert {frozenset([c]) for c in touched} <= _shape_classes(other)
        untouched = {cls - touched for cls in _shape_classes(mesh)}
        assert _shape_classes(other) - {frozenset([c]) for c in touched} \
            == untouched


# Property tests of the shape partition: derandomized, so Tier-1 stays
# deterministic, with few enough examples to add about a second.
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
_BUILDS = st.sampled_from([wg.build_uniform_triangle_mesh,
                           wg.build_uniform_quad_mesh])
_ANGLE = st.floats(0.0, 2.0 * np.pi)


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@_PROPERTY
@given(_BUILDS, st.integers(1, 8), _ANGLE, _ANGLE, st.floats(-6.0, 6.0),
       st.floats(-3.0, 0.0), st.floats(0.0, 1e6), _ANGLE)
def test_an_affine_map_keeps_the_shape_partition(build, n, alpha, beta,
                                                 log_s, log_r, t, gamma):
    # x -> R(alpha) diag(s, s r) R(beta) x + t maps translates onto
    # translates and keeps every incidence sign, at any scale and offset
    mesh = build(n)
    s = 10.0 ** log_s
    A = _rotation(alpha) @ np.diag([s, s * 10.0 ** log_r]) @ _rotation(beta)
    shift = t * s * np.array([np.cos(gamma), np.sin(gamma)])
    other = wg.mesh_from_cells(mesh.vertices @ A.T + shift, mesh.cells)
    assert np.array_equal(other.cell_shapes, mesh.cell_shapes)


@_PROPERTY
@given(_BUILDS, st.integers(2, 8), st.data(), st.floats(-9.0, -3.0), _ANGLE)
def test_a_moved_vertex_leaves_the_other_cells_shapes(build, n, data,
                                                      log_delta, angle):
    mesh = build(n)
    i, j = (data.draw(st.integers(1, n - 1)) for _ in range(2))
    moved = j * (n + 1) + i  # an interior grid vertex
    vertices = mesh.vertices.copy()
    vertices[moved] += 10.0 ** log_delta / n * np.array(
        [np.cos(angle), np.sin(angle)])
    other = wg.mesh_from_cells(vertices, mesh.cells)
    touched = {c for c, ids in enumerate(mesh.cells) if moved in ids}
    # the untouched cells keep their partition, and no touched cell joins
    # one of their shapes
    untouched = {cls - touched for cls in _shape_classes(mesh)} - {frozenset()}
    assert {cls - touched for cls in _shape_classes(other)} - {frozenset()} \
        == untouched
    assert all(cls <= touched for cls in _shape_classes(other)
               if cls & touched)


def test_rotated_vertex_order_and_other_signs_do_not_merge():
    # the centre square of the 3 x 3 grid is a translate of the top right
    # one, but listed from another vertex it is not the same shape
    vertices, squares = wg.mesh._grid_squares(3)
    mesh = wg.mesh_from_cells(vertices, squares)
    assert mesh.cell_shapes[8] == mesh.cell_shapes[4] == 4
    rotated = squares.copy()
    rotated[8] = np.roll(rotated[8], 1)
    other = wg.mesh_from_cells(vertices, rotated)
    assert other.cell_shapes[8] == 8
    assert np.array_equal(np.delete(other.cell_shapes, 8),
                          np.delete(mesh.cell_shapes, 8))
    # a bottom-row square and the one above it differ in their bottom
    # edge's incidence sign and normal only
    assert mesh.cell_shapes[1] == 1 and mesh.cell_shapes[4] == 4
    assert np.array_equal(mesh.vertices[mesh.cell_rows(4)[0]]
                          - mesh.vertices[mesh.cell_rows(1)[0]],
                          np.tile([0.0, 1.0 / 3.0], (4, 1)))


def test_cells_off_the_grid_are_their_own_shapes():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from bench import brick_mesh  # the benchmark's jittered brick mesh

    meshes = [jittered_triangle_mesh(5, 3),
              wg.mesh_from_cells(*polygonal_mesh_cells())]
    meshes += [brick_mesh(n, 3) for n in (8, 16, 24)]
    for mesh in meshes:
        assert np.array_equal(mesh.cell_shapes, np.arange(mesh.n_cells))


def test_refinement_halves_mesh_size():
    for build in (wg.build_uniform_triangle_mesh, wg.build_uniform_quad_mesh):
        h2 = wg.max_cell_diameter(build(2))
        h4 = wg.max_cell_diameter(build(4))
        assert h2 / h4 == pytest.approx(2.0, rel=1e-13)


def test_mesh_file_round_trip(tmp_path):
    mesh = wg.build_uniform_triangle_mesh(2)
    path = tmp_path / "mesh.txt"
    wg.write_mesh(mesh, path)
    back = wg.read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert len(back.cells) == len(mesh.cells)
    for a, b in zip(back.cells, mesh.cells):
        assert np.array_equal(a, b)
    assert np.array_equal(back.edges, mesh.edges)
    assert np.array_equal(back.edge_cells, mesh.edge_cells)
    assert np.array_equal(back.cell_edge_rows, mesh.cell_edge_rows)


def test_read_mesh_rejects_bad_files(tmp_path):
    good = tmp_path / "good.txt"
    wg.write_mesh(wg.build_uniform_triangle_mesh(1), good)
    text = good.read_text()

    bad_edges = tmp_path / "bad_edges.txt"
    tokens = text.split()
    tokens[1] = "7"  # header says 7 edges, mesh has 5
    bad_edges.write_text(" ".join(tokens))
    with pytest.raises(ValueError, match="edges"):
        wg.read_mesh(bad_edges)

    truncated = tmp_path / "trunc.txt"
    truncated.write_text(" ".join(text.split()[:-1]))
    with pytest.raises(ValueError, match="truncated"):
        wg.read_mesh(truncated)

    trailing = tmp_path / "trail.txt"
    trailing.write_text(text + " 0")
    with pytest.raises(ValueError, match="trailing"):
        wg.read_mesh(trailing)

    header = tmp_path / "header.txt"
    for counts, message in (("-3 3 1", "negative count"),
                            ("3 3 -1", "negative count"),
                            ("3 3 0", "declares no cells")):
        header.write_text(counts + "\n0 0\n1 0\n0 1\n")
        where = re.escape(str(header))
        with pytest.raises(ValueError, match=f"{where}: .*{message}"):
            wg.read_mesh(header)

    short_cell = tmp_path / "short_cell.txt"
    for count in ("-1", "2"):
        short_cell.write_text(f"3 3 1\n0 0\n1 0\n0 1\n{count} 0 1 2\n")
        where = re.escape(str(short_cell))
        with pytest.raises(ValueError,
                           match=f"{where}: cell 0 has {count} vertices"):
            wg.read_mesh(short_cell)

    not_integer = tmp_path / "not_integer.txt"
    for text, what in (("3 3.0 1\n0 0\n1 0\n0 1\n3 0 1 2\n",
                        "header counts"),
                       ("3 3 1\n0 0\n1 0\n0 1\n3.5 0 1 2\n",
                        "cell 0's vertex count"),
                       ("3 3 1\n0 0\n1 0\n0 1\n3 0 1 2.5\n",
                        "cell 0's vertex ids")):
        not_integer.write_text(text)
        where = re.escape(str(not_integer))
        with pytest.raises(ValueError,
                           match=f"{where}: {what} must be integers"):
            wg.read_mesh(not_integer)


def test_read_mesh_names_the_file_of_a_non_numeric_coordinate(tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("3 3 1\n0 0\n1 zero\n0 1\n3 0 1 2\n")
    where = re.escape(str(path))
    with pytest.raises(ValueError,
                       match=f"{where}: vertex coordinates .*'zero'"):
        wg.read_mesh(path)


def test_mesh_from_cells_leaves_caller_vertices_alone():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = wg.mesh_from_cells(v, [[0, 1, 2]])
    assert v.flags.writeable
    assert not mesh.vertices.flags.writeable
    v[1, 0] = 5.0
    assert mesh.vertices[1, 0] == 1.0


def test_mesh_from_cells_reads_an_id_array_as_its_rows():
    # an (F, m) int array of cells builds the mesh its rows as lists build
    mesh = wg.build_uniform_triangle_mesh(3)
    ids = np.array(mesh.cells)
    assert ids.shape == (18, 3) and ids.dtype.kind == "i"
    a = wg.mesh_from_cells(mesh.vertices, ids)
    b = wg.mesh_from_cells(mesh.vertices, ids.tolist())
    arrays = [k for k, v in vars(a).items() if isinstance(v, np.ndarray)]
    assert arrays
    for k in arrays:
        x, y = getattr(a, k), getattr(b, k)
        assert x.dtype == y.dtype and np.array_equal(x, y), k


def test_mesh_from_cells_rejects_cells_that_are_not_simple():
    not_simple = {
        # a bowtie of signed area 1.0: its first and third edges cross
        "bowtie": [[0.0, 0.0], [3.0, 0.0], [0.0, 1.0], [1.0, 1.5]],
        # the fourth vertex lies on the first edge
        "touching": [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.0],
                     [0.0, 2.0]],
        # the fifth edge runs back along the first
        "overlapping": [[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0],
                        [2.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    }
    for name, verts in not_simple.items():
        with pytest.raises(ValueError, match="cell 0 is not a simple"):
            wg.mesh_from_cells(verts, [list(range(len(verts)))])
    # collinear non-adjacent edges that do not overlap are fine: an arrow
    # with two edges on x = 1, and an L whose bottom side has two edges
    for verts in ([[0.0, 0.3], [1.0, 0.3], [1.0, 0.0], [1.8, 0.6],
                   [1.0, 1.2], [1.0, 0.9], [0.0, 0.9]],
                  [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0],
                   [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]):
        assert wg.mesh_from_cells(verts, [list(range(len(verts)))]).n_cells == 1


def test_mesh_from_cells_validation():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="counter-clockwise"):
        wg.mesh_from_cells(square, [[0, 3, 2, 1]])
    with pytest.raises(ValueError, match="repeats"):
        wg.mesh_from_cells(square, [[0, 1, 1, 2]])
    with pytest.raises(ValueError, match="missing vertex"):
        wg.mesh_from_cells(square, [[0, 1, 7]])
    for ids in ([0.0, 1.0, 2.9], [0, 1, np.nan]):
        with pytest.raises(ValueError, match="cell 1 has a non-integer"):
            wg.mesh_from_cells(square, [[0, 1, 2], ids])
    with pytest.raises(ValueError, match="fewer than 3"):
        wg.mesh_from_cells(square, [[0, 1]])
    with pytest.raises(ValueError, match="finite"):
        wg.mesh_from_cells([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]], [[0, 1, 2]])
    with pytest.raises(ValueError, match="at least one cell"):
        wg.mesh_from_cells(square, [])
    # a zero-length edge is named before any geometry divides by its length
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cell 0 has coincident "
                                             "consecutive vertices 1 and 2"):
            wg.mesh_from_cells([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]],
                               [[0, 1, 2, 3, 4]])
    # a collinear cell has zero area and is rejected without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="counter-clockwise"):
            wg.mesh_from_cells([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                               [[0, 1, 2]])

    # two CCW cells traversing a shared edge the same way: inconsistent
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.8]])
    with pytest.raises(ValueError, match="same direction"):
        wg.mesh_from_cells(verts, [[0, 1, 2], [0, 1, 3]])

    # an edge shared by three cells is rejected
    verts3 = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [1.5, 1.0],
                       [0.5, -1.0]])
    with pytest.raises(ValueError, match="more than two"):
        wg.mesh_from_cells(verts3, [[0, 1, 2], [2, 1, 3], [1, 2, 4]])

    # two disjoint triangles: V - E + F = 2, not a simply connected disk
    verts_disjoint = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                               [3.0, 0.0], [4.0, 0.0], [3.0, 1.0]])
    with pytest.raises(ValueError, match="simply connected"):
        wg.mesh_from_cells(verts_disjoint, [[0, 1, 2], [3, 4, 5]])

    # V - E + F = 1 on each input below: it is additive over pieces, and
    # an unused vertex adds 1
    ring = wg.build_uniform_quad_mesh(3)
    ring_cells = [c for i, c in enumerate(ring.cells) if i != 4]
    with pytest.raises(ValueError, match="vertex 16 belongs to no cell"):
        wg.mesh_from_cells(np.vstack([ring.vertices, [[2.0, 2.0]]]),
                           ring_cells)
    with pytest.raises(ValueError, match="simply connected.* 2 pieces"):
        wg.mesh_from_cells(
            np.vstack([ring.vertices, [[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]]]),
            ring_cells + [[16, 17, 18]])
    bowtie = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                       [0.0, -1.0]])
    with pytest.raises(ValueError, match="simply connected.* 2 pieces"):
        wg.mesh_from_cells(bowtie, [[0, 1, 2], [0, 3, 4]])
    # the ring itself, the 3 x 3 grid less its centre cell: one piece with
    # a hole
    with pytest.raises(ValueError, match=r"simply connected disk \(V - E \+ "
                                         r"F = 0\)"):
        wg.mesh_from_cells(ring.vertices, ring_cells)
    for vertices in (np.zeros((4, 3)), np.zeros(8)):
        with pytest.raises(ValueError, match=r"vertices must be a \(V, 2\)"):
            wg.mesh_from_cells(vertices, [[0, 1, 2]])

    with pytest.raises(ValueError, match=">= 1"):
        wg.build_uniform_triangle_mesh(0)
    with pytest.raises(ValueError, match=">= 1"):
        wg.build_uniform_quad_mesh(0)
