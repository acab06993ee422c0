"""Polygonal meshes with globally oriented edges.

A mesh is a set of counter-clockwise polygonal cells covering a simply
connected plane domain.  Edges are derived from the cells, never stored in
input files.  Every edge carries one fixed unit normal ``n_e``: on interior
edges it points from the lower-numbered incident cell to the higher-numbered
one, on boundary edges it points out of the domain.  Each (cell, edge) pair
has an incidence sign, +1 when the cell's outward normal on that edge equals
``n_e`` and -1 when it is the reversal.  Flux unknowns defined against
``n_e`` are therefore single-valued across cells.

``mesh_from_cells`` checks that every cell is a simple polygon and that
the cells form a disk: every vertex belongs to a cell, the cells are
connected through shared edges and V - E + F = 1.  The solver's analysis
also assumes shape-regular cells (bounded aspect ratio, edges comparable to
the cell diameter).  That is not verified at runtime; the uniform
generators below satisfy it by construction.

A mesh holds each fact once, in read-only arrays that every layer reads:
the cells' vertex ids and (edge, sign) rows in two flat tables, and the cell
and edge geometry, computed once per mesh.  That includes which cells share
a shape: two cells do when one is a translate of the other, in the same
vertex order and with the same incidence signs, so every local operator of
the element is the same on both.  Translates are matched to within
``SHAPE_ULPS`` units in the last place of the largest vertex coordinate,
the roundoff the coordinates themselves carry.

Mesh file format (plain text): first line ``V E F``, then ``V`` lines with
vertex coordinates ``x y``, then ``F`` lines ``m i_1 ... i_m`` listing each
cell's vertices counter-clockwise, 0-based.  ``E`` is redundant and checked
against the derived edge count.
"""

from __future__ import annotations

import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# Two cells share a shape when their vertex offsets from the first vertex,
# their diameters and their incidence signs times the diameter differ by at
# most this many units in the last place of the largest vertex coordinate.
# Translates on the uniform grids differ by under one.
SHAPE_ULPS = 16


@dataclass(frozen=True)
class CellGeometry:
    """Area, area-weighted centroid and diameter of one cell."""

    area: float
    centroid: np.ndarray
    diameter: float


class Mesh:
    """Immutable polygonal mesh.

    Attributes
    ----------
    vertices : (V, 2) float array
    cells : tuple of CCW vertex id arrays, one per cell, split on reading
    edges : (E, 2) int array, stored vertex order defines the orientation
    edge_cells : (E, 2) int array, incident cell ids (lower first, -1 when
        the edge is on the boundary)
    boundary_edges : (E,) bool array
    cell_sizes : (F,) int array, vertex (and edge) count of each cell
    cell_edge_rows : (sum of cell_sizes, 2) int array, rows (edge id, sign)
        along each cell's boundary, cell after cell; sign is the cell's
        incidence sign on that edge
    cell_areas, cell_centroids, cell_diameters : (F,), (F, 2), (F,) floats
    cell_shapes : (F,) int array, the lowest-numbered cell of the same shape
        as each cell (a translate of it, see the module docstring), so a
        cell c with cell_shapes[c] == c is its shape's representative
    edge_lengths, edge_midpoints, edge_tangents, edge_normals : (E,) and
        (E, 2) floats; the unit tangent runs from the first stored vertex to
        the second, and the normal is the tangent rotated by -90 degrees
    """

    def __init__(self, vertices, cell_sizes, cell_vertex_ids, cell_edge_rows,
                 edges, edge_cells, boundary_edges):
        self.vertices = vertices
        self.edges = edges
        self.edge_cells = edge_cells
        self.boundary_edges = boundary_edges
        self.cell_sizes = cell_sizes
        self._cell_starts = np.cumsum(cell_sizes) - cell_sizes
        self._cell_vertex_ids = cell_vertex_ids
        self.cell_edge_rows = cell_edge_rows
        pa, pb = vertices[edges[:, 0]], vertices[edges[:, 1]]
        d = pb - pa
        self.edge_lengths = np.hypot(d[:, 0], d[:, 1])
        self.edge_midpoints = 0.5 * (pa + pb)
        self.edge_tangents = d / self.edge_lengths[:, None]
        # (t_y, -t_x): the tangent rotated by -90 degrees
        self.edge_normals = self.edge_tangents[:, ::-1] * [1.0, -1.0]
        self.cell_areas = np.empty(cell_sizes.size)
        self.cell_centroids = np.empty((cell_sizes.size, 2))
        self.cell_diameters = np.empty(cell_sizes.size)
        self.cell_shapes = np.arange(cell_sizes.size)
        tol = SHAPE_ULPS * np.finfo(float).eps * np.max(np.abs(vertices))
        for m in np.unique(cell_sizes):
            group = np.flatnonzero(cell_sizes == m)
            ids, rows = self.cell_rows(group)
            coords = vertices[ids]
            # A zero-area cell's centroid is 0/0; mesh_from_cells rejects it.
            with np.errstate(divide="ignore", invalid="ignore"):
                self.cell_areas[group], self.cell_centroids[group] = \
                    polygon_area_centroid(coords)
            diff = coords[:, :, None, :] - coords[:, None, :, :]
            self.cell_diameters[group] = np.sqrt(
                np.max(np.sum(diff ** 2, axis=-1), axis=(1, 2)))
            # The kernel reads the vertices relative to the cell, the
            # diameter, the signs and the edge normals, which the vertices
            # and the signs fix.
            key = np.empty((group.size, 3 * m - 1))
            key[:, :2 * m - 2] = (coords[:, 1:]
                                  - coords[:, :1]).reshape(group.size, -1)
            h = self.cell_diameters[group]
            key[:, 2 * m - 2:-1] = rows[..., 1] * h[:, None]
            key[:, -1] = h
            _merge_translates(group, key, tol, np.max(h), self.cell_shapes)
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    @property
    def cells(self):
        """Read-only views of the flat vertex table, one per cell."""
        return tuple(np.split(self._cell_vertex_ids, self._cell_starts[1:]))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cell_sizes.size

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def cell_vertices(self, cell):
        """Coordinates of one cell's vertices, CCW, shape (m, 2)."""
        return self.vertices[self.cell_rows(cell)[0]]

    def cell_shifts(self, cells):
        """(c, 2) translations from the representative of each cell's shape
        onto the cell: the difference of their first vertices."""
        first = self._cell_vertex_ids[self._cell_starts]
        return (self.vertices[first[cells]]
                - self.vertices[first[self.cell_shapes[cells]]])

    def cell_rows(self, cells):
        """Vertex ids (m,) and cell_edge_rows (m, 2) of one cell, or
        (c, m) and (c, m, 2) of c cells that all have m vertices."""
        at = self._cell_starts[cells, None] + np.arange(
            self.cell_sizes[np.ravel(cells)[0]])
        return self._cell_vertex_ids[at], self.cell_edge_rows[at]


def _merge_translates(cells, key, tol, bound, shapes):
    """Set shapes[c], for c in the ascending index array ``cells``, to the
    lowest-numbered cell whose ``key`` row is within ``tol`` of c's in
    every entry; every key entry is at most ``bound`` in magnitude.

    Cells are sorted by a weighted sum of their key entries and cut into
    chains where consecutive sums differ by more than those of two matching
    cells can, rounding included.  The lowest cell of a chain takes every
    member within ``tol`` of it, and the rest form chains again; on the
    uniform grids one pass takes every cell.
    """
    w = 1.0 + np.arange(key.shape[1]) / key.shape[1]
    slack = w.sum() * (tol + 2.0 * key.shape[1] * np.finfo(float).eps * bound)
    while cells.size:
        proj = key @ w
        order = np.argsort(proj)
        starts = np.flatnonzero(np.diff(proj[order], prepend=-np.inf) > slack)
        head = np.empty_like(order)
        head[order] = np.repeat(np.minimum.reduceat(order, starts),
                                np.diff(starts, append=order.size))
        gap = key - key[head]
        same = np.max(np.abs(gap, out=gap), axis=1) <= tol
        shapes[cells[same]] = cells[head[same]]
        cells, key = cells[~same], key[~same]


def mesh_from_cells(vertices, cells):
    """Build a validated mesh from vertex coordinates and CCW cell lists,
    or an (F, m) array of the ids of F cells with m vertices each.

    Raises ValueError on non-finite coordinates, non-integer vertex ids,
    degenerate, self-intersecting or clockwise cells, edges shared by more
    than two cells, inconsistently oriented neighbours, or a topology that
    is not a simply connected disk: a vertex that belongs to no cell, cells
    not connected through shared edges, or V - E + F != 1.
    """
    # a copy: Mesh makes its arrays read-only, never the caller's
    vertices = np.array(vertices, dtype=float, order="C")
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError("vertices must be a (V, 2) array")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")

    # All cells' vertex ids in one flat array and the cell owning each; the
    # ids are read as floats, so that non-integer ones fail below.
    cells = list(cells)
    if not cells:
        raise ValueError("a mesh needs at least one cell")
    sizes = np.array([len(cell) for cell in cells], dtype=np.int64)
    owner = np.repeat(np.arange(sizes.size), sizes)
    with warnings.catch_warnings():  # a complex id is an error
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        ids = np.concatenate(cells, dtype=float, casting="unsafe")
    with np.errstate(invalid="ignore"):  # nan and inf ids fail below
        a = ids.astype(np.int64)
    _, once = np.unique(owner * len(vertices) + a, return_index=True)
    for bad, problem in (
            (np.flatnonzero(sizes < 3), "has fewer than 3 vertices"),
            (owner[a != ids], "has a non-integer vertex id"),
            (owner[(a < 0) | (a >= len(vertices))],
             "references a missing vertex"),
            (np.delete(owner, once), "repeats a vertex")):
        if bad.size:
            raise ValueError(f"cell {bad[0]} {problem}")
    unused = np.flatnonzero(np.bincount(a, minlength=len(vertices)) == 0)
    if unused.size:
        raise ValueError(f"vertex {unused[0]} belongs to no cell")

    # Edge extraction.  Edges are numbered by first appearance in cell id
    # order, so the first cell to claim an edge is the lower-numbered one;
    # the edge keeps that cell's traversal direction, so the derived normal
    # obeys the global orientation convention.
    after = np.arange(1, a.size + 1)
    after[np.cumsum(sizes) - 1] -= sizes  # a cell's last vertex wraps
    b = a[after]
    bad = np.flatnonzero(np.all(vertices[a] == vertices[b], axis=1))
    if bad.size:  # a zero-length edge has no normal
        s = bad[0]
        raise ValueError(f"cell {owner[s]} has coincident consecutive "
                         f"vertices {a[s]} and {b[s]}")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _, first, slot, count = np.unique(lo * len(vertices) + hi,
                                      return_index=True, return_inverse=True,
                                      return_counts=True)
    if np.any(count > 2):
        s = first[np.argmax(count > 2)]
        raise ValueError(
            f"edge ({lo[s]}, {hi[s]}) is shared by more than two cells")
    order = np.argsort(first)
    e = np.argsort(order)[slot]
    claims = first[slot] == np.arange(a.size)
    edges = np.column_stack([a, b])[first[order]]
    bad = np.flatnonzero(~claims & (a == edges[e, 0]))
    if bad.size:
        s = bad[0]
        raise ValueError(
            f"cells {owner[first[slot[s]]]} and {owner[s]} traverse edge "
            f"({lo[s]}, {hi[s]}) in the same direction; orientation is "
            "inconsistent")
    edge_cells = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_cells[e, np.where(claims, 0, 1)] = owner

    # V - E + F is additive over pieces and an unused vertex adds 1, so the
    # Euler check below needs every vertex used and one piece of cells.
    c0, c1 = edge_cells[edge_cells[:, 1] >= 0].T
    graph = sp.coo_matrix((np.ones(c0.size), (c0, c1)), (sizes.size,) * 2)
    pieces, _ = connected_components(graph, directed=False)
    if pieces > 1:
        raise ValueError("mesh is not a simply connected disk: its cells "
                         f"form {pieces} pieces that share no edge")
    euler = len(vertices) - len(edges) + sizes.size
    if euler != 1:
        raise ValueError(
            f"mesh is not a simply connected disk (V - E + F = {euler})")

    rows = np.column_stack([e, np.where(claims, 1, -1)])
    mesh = Mesh(vertices, sizes, a, rows, edges, edge_cells,
                edge_cells[:, 1] == -1)
    for m in np.unique(sizes[sizes > 3]):  # a triangle is simple
        group = np.flatnonzero(sizes == m)
        bad = group[_edges_meet(vertices[mesh.cell_rows(group)[0]])]
        if bad.size:
            raise ValueError(f"cell {bad[0]} is not a simple polygon: two "
                             "of its non-adjacent edges meet")
    bad = np.flatnonzero(mesh.cell_areas <= 0.0)
    if bad.size:
        raise ValueError(f"cell {bad[0]} is not counter-clockwise")
    return mesh


def _edges_meet(coords):
    """Whether two non-adjacent edges of a polygon meet, for each polygon
    of a (c, m, 2) stack.  Collinear edges meet only where they overlap."""
    m = coords.shape[1]
    i, j = np.triu_indices(m, 2)
    keep = j - i < m - 1  # edges m - 1 and 0 are adjacent
    i, j = i[keep], j[keep]
    nxt = np.roll(coords, -1, axis=1)
    p, q, r, s = coords[:, i], nxt[:, i], coords[:, j], nxt[:, j]

    def side(a, b, c):
        """Sign of c's side of the line a -> b, 0 on it."""
        ab, ac = b - a, c - a
        return np.sign(ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0])

    def within(a, b, c):
        """c in the bounding box of segment a b."""
        return np.all((np.minimum(a, b) <= c) & (c <= np.maximum(a, b)),
                      axis=-1)

    sp, sq, sr, ss = side(r, s, p), side(r, s, q), side(p, q, r), side(p, q, s)
    meet = ((sp * sq < 0) & (sr * ss < 0)
            | (sp == 0) & within(r, s, p) | (sq == 0) & within(r, s, q)
            | (sr == 0) & within(p, q, r) | (ss == 0) & within(p, q, s))
    return np.any(meet, axis=1)


def _grid_squares(n):
    """Vertices of the uniform (n + 1) x (n + 1) grid on the unit square and
    the (n^2, 4) CCW corner ids (a, b, c, d) of its subsquares, row by row,
    a at the lower left."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    lower_left = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return (np.column_stack([xg.ravel(), yg.ravel()]),
            lower_left[:, None] + np.array([0, 1, n + 2, n + 1]))


def build_uniform_triangle_mesh(n):
    """Uniform triangulation of the unit square, 2*n^2 cells.

    Each of the n x n subsquares is split by the diagonal from its
    lower-left to its upper-right corner.
    """
    vertices, squares = _grid_squares(n)
    return mesh_from_cells(vertices,
                           squares[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3))


def build_uniform_quad_mesh(n):
    """Uniform n x n square mesh of the unit square."""
    return mesh_from_cells(*_grid_squares(n))


def polygon_area_centroid(coords):
    """Signed area and area-weighted centroid of the polygon with (m, 2)
    vertex coordinates ``coords`` in boundary order, or of a (..., m, 2)
    stack of polygons.  Both come from the offsets to the first vertex, so
    their rounding follows the polygon's size, not its distance from the
    origin."""
    offsets = coords - coords[..., :1, :]
    nxt = np.roll(offsets, -1, axis=-2)
    x, y = offsets[..., 0], offsets[..., 1]
    xn, yn = nxt[..., 0], nxt[..., 1]
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    centroid = np.stack([np.sum((x + xn) * cross, axis=-1),
                         np.sum((y + yn) * cross, axis=-1)], axis=-1)
    return area, coords[..., 0, :] + centroid / (6.0 * area[..., None])


def cell_geometry(mesh, cell):
    return CellGeometry(float(mesh.cell_areas[cell]),
                        mesh.cell_centroids[cell],
                        float(mesh.cell_diameters[cell]))


def edge_points(mesh, edges, t):
    """Physical points at parameters t in [-1, 1] of an edge's stored
    orientation, or on each edge of an index array of edges in turn; an
    (..., m) array of edges gives (..., m * len(t), 2) points."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = 0.5 * mesh.edge_lengths[edges][..., None, None]
    pts = (mesh.edge_midpoints[edges][..., None, :]
           + (t[:, None] * half) * mesh.edge_tangents[edges][..., None, :])
    return pts.reshape(half.shape[:-3] + (-1, 2))


def max_cell_diameter(mesh):
    """Mesh size h = max over cells of the cell diameter."""
    return float(np.max(mesh.cell_diameters))


def read_mesh(path):
    """Read a mesh from the plain-text format described in the module
    docstring and validate it."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    pos = 0

    def take(count):
        nonlocal pos
        if pos + count > len(tokens):
            raise ValueError(f"{path}: truncated mesh file")
        out = tokens[pos:pos + count]
        pos += count
        return out

    def integers(count, what):
        out = take(count)
        try:
            return [int(t) for t in out]
        except ValueError:
            raise ValueError(f"{path}: {what} must be integers, got "
                             f"{' '.join(out)}") from None

    nv, ne, nf = integers(3, "header counts")
    if min(nv, ne, nf) < 0:
        raise ValueError(f"{path}: negative count in header {nv} {ne} {nf}")
    if nf == 0:
        raise ValueError(f"{path}: header declares no cells")
    coords = take(2 * nv)
    try:
        coords = np.array([float(t) for t in coords]).reshape(nv, 2)
    except ValueError as err:
        raise ValueError(f"{path}: vertex coordinates must be numbers: "
                         f"{err}") from None
    cells = []
    for c in range(nf):
        m, = integers(1, f"cell {c}'s vertex count")
        if m < 3:
            raise ValueError(f"{path}: cell {c} has {m} vertices (< 3)")
        cells.append(integers(m, f"cell {c}'s vertex ids"))
    if pos != len(tokens):
        raise ValueError(f"{path}: trailing data after last cell")
    mesh = mesh_from_cells(coords, cells)
    if mesh.n_edges != ne:
        raise ValueError(
            f"{path}: header declares {ne} edges, mesh has {mesh.n_edges}")
    return mesh


def write_mesh(mesh, path):
    """Write a mesh in the plain-text format read by :func:`read_mesh`."""
    lines = [f"{mesh.n_vertices} {mesh.n_edges} {mesh.n_cells}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for idx in mesh.cells:
        lines.append(" ".join([str(idx.size)] + [str(int(v)) for v in idx]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return os.fspath(path)
