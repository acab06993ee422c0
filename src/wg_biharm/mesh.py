"""Polygonal meshes with globally oriented edges.

A mesh is a set of counter-clockwise polygonal cells covering a simply
connected plane domain.  Edges are derived from the cells, never stored in
input files.  Every edge carries one fixed unit normal ``n_e``: on interior
edges it points from the lower-numbered incident cell to the higher-numbered
one, on boundary edges it points out of the domain.  Each (cell, edge) pair
has an incidence sign, +1 when the cell's outward normal on that edge equals
``n_e`` and -1 when it is the reversal.  Flux unknowns defined against
``n_e`` are therefore single-valued across cells.

The solver's analysis assumes shape-regular cells (bounded aspect ratio,
edges comparable to the cell diameter).  This is not verified at runtime;
the uniform generators below satisfy it by construction.

Cell areas, centroids and diameters and edge lengths, midpoints, normals
and tangents are computed once per mesh and kept as read-only arrays.

Mesh file format (plain text): first line ``V E F``, then ``V`` lines with
vertex coordinates ``x y``, then ``F`` lines ``m i_1 ... i_m`` listing each
cell's vertices counter-clockwise, 0-based.  ``E`` is redundant and checked
against the derived edge count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CellGeometry:
    """Area, area-weighted centroid and diameter of one cell."""

    area: float
    centroid: np.ndarray
    diameter: float


@dataclass(frozen=True)
class EdgeGeometry:
    """Length, midpoint, global unit normal and unit tangent of one edge,
    or the stacked arrays of these for an index array of edges.

    The tangent points from the edge's first stored vertex to its second;
    the normal is the tangent rotated by -90 degrees, so (tangent, normal)
    is a right-handed pair and the normal agrees with the orientation
    convention in the module docstring.
    """

    length: float
    midpoint: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray


class Mesh:
    """Immutable polygonal mesh.

    Attributes
    ----------
    vertices : (V, 2) float array
    cells : tuple of int arrays, one per cell, CCW vertex ids
    edges : (E, 2) int array, stored vertex order defines the orientation
    cell_edges : tuple of (m, 2) int arrays, rows are (edge id, sign)
        following the cell boundary; sign is the incidence sign of the cell
        on that edge
    edge_cells : (E, 2) int array, incident cell ids (lower first, -1 when
        the edge is on the boundary)
    boundary_edges : (E,) bool array
    cell_areas, cell_centroids, cell_diameters : (F,), (F, 2), (F,) floats
    edge_lengths, edge_midpoints, edge_normals, edge_tangents : (E,) and
        (E, 2) floats, as in EdgeGeometry
    """

    def __init__(self, vertices, cells, edges, cell_edges, edge_cells,
                 boundary_edges, cell_areas, cell_centroids, cell_diameters):
        self.vertices = vertices
        self.cells = cells
        self.edges = edges
        self.cell_edges = cell_edges
        self.edge_cells = edge_cells
        self.boundary_edges = boundary_edges
        self.cell_areas = cell_areas
        self.cell_centroids = cell_centroids
        self.cell_diameters = cell_diameters
        pa, pb = vertices[edges[:, 0]], vertices[edges[:, 1]]
        d = pb - pa
        self.edge_lengths = np.hypot(d[:, 0], d[:, 1])
        self.edge_midpoints = 0.5 * (pa + pb)
        self.edge_tangents = d / self.edge_lengths[:, None]
        # (t_y, -t_x): the tangent rotated by -90 degrees
        self.edge_normals = self.edge_tangents[:, ::-1] * [1.0, -1.0]
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def cell_vertices(self, cell):
        """Coordinates of one cell's vertices, CCW, shape (m, 2)."""
        return self.vertices[self.cells[cell]]


def mesh_from_cells(vertices, cells):
    """Build a validated mesh from vertex coordinates and CCW cell lists.

    Raises ValueError on non-finite coordinates, degenerate or clockwise
    cells, edges shared by more than two cells, inconsistently oriented
    neighbours, or a topology that is not a simply connected disk
    (Euler relation V - E + F = 1).
    """
    # a copy: Mesh makes its arrays read-only, never the caller's
    vertices = np.array(vertices, dtype=float, order="C")
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError("vertices must be a (V, 2) array")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")

    cell_arrays = []
    geometry = []  # area, centroid x, centroid y, diameter per cell
    for c, cell in enumerate(cells):
        idx = np.asarray(cell, dtype=np.int64)
        if idx.size < 3:
            raise ValueError(f"cell {c} has fewer than 3 vertices")
        if idx.min() < 0 or idx.max() >= len(vertices):
            raise ValueError(f"cell {c} references a missing vertex")
        if len(np.unique(idx)) != idx.size:
            raise ValueError(f"cell {c} repeats a vertex")
        coords = vertices[idx]
        # A zero-area cell's centroid is 0/0; the area check rejects it.
        with np.errstate(divide="ignore", invalid="ignore"):
            area, centroid = polygon_area_centroid(coords)
        if area <= 0.0:
            raise ValueError(f"cell {c} is not counter-clockwise")
        diff = coords[:, None, :] - coords[None, :, :]
        geometry.append((area, *centroid,
                         np.sqrt(np.max(np.sum(diff ** 2, axis=2)))))
        idx.setflags(write=False)
        cell_arrays.append(idx)

    # Edge extraction.  Scanning cells in id order makes the first cell to
    # claim an edge the lower-numbered one; the edge keeps that cell's
    # traversal direction, so the derived normal obeys the global
    # orientation convention.
    edge_of = {}
    edge_list = []
    edge_cells = []
    cell_edges = []
    for c, idx in enumerate(cell_arrays):
        rows = []
        for i in range(idx.size):
            a, b = int(idx[i]), int(idx[(i + 1) % idx.size])
            key = (a, b) if a < b else (b, a)
            if key not in edge_of:
                e = len(edge_list)
                edge_of[key] = e
                edge_list.append((a, b))
                edge_cells.append([c, -1])
                rows.append((e, 1))
            else:
                e = edge_of[key]
                if edge_cells[e][1] != -1:
                    raise ValueError(
                        f"edge {key} is shared by more than two cells")
                if edge_list[e] != (b, a):
                    raise ValueError(
                        f"cells {edge_cells[e][0]} and {c} traverse edge "
                        f"{key} in the same direction; orientation is "
                        "inconsistent")
                edge_cells[e][1] = c
                rows.append((e, -1))
        cell_edges.append(np.array(rows, dtype=np.int64))
        cell_edges[-1].setflags(write=False)

    edges = np.array(edge_list, dtype=np.int64)
    edge_cells = np.array(edge_cells, dtype=np.int64)
    boundary = edge_cells[:, 1] == -1

    euler = len(vertices) - len(edges) + len(cell_arrays)
    if euler != 1:
        raise ValueError(
            f"mesh is not a simply connected disk (V - E + F = {euler})")

    geometry = np.array(geometry).reshape(-1, 4)
    return Mesh(vertices, tuple(cell_arrays), edges, tuple(cell_edges),
                edge_cells, boundary, geometry[:, 0], geometry[:, 1:3],
                geometry[:, 3])


def _grid_squares(n):
    """Vertices of the uniform (n + 1) x (n + 1) grid on the unit square and
    the CCW corner ids (a, b, c, d) of its subsquares, row by row, a at the
    lower left."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    lower_left = [j * (n + 1) + i for j in range(n) for i in range(n)]
    return (np.column_stack([xg.ravel(), yg.ravel()]),
            [(a, a + 1, a + n + 2, a + n + 1) for a in lower_left])


def build_uniform_triangle_mesh(n):
    """Uniform triangulation of the unit square, 2*n^2 cells.

    Each of the n x n subsquares is split by the diagonal from its
    lower-left to its upper-right corner.
    """
    vertices, squares = _grid_squares(n)
    cells = [tri for a, b, c, d in squares for tri in ([a, b, c], [a, c, d])]
    return mesh_from_cells(vertices, cells)


def build_uniform_quad_mesh(n):
    """Uniform n x n square mesh of the unit square."""
    vertices, squares = _grid_squares(n)
    return mesh_from_cells(vertices, [list(sq) for sq in squares])


def polygon_area_centroid(coords):
    """Signed area and area-weighted centroid of the polygon with (m, 2)
    vertex coordinates ``coords`` in boundary order."""
    nxt = np.concatenate([coords[1:], coords[:1]])
    x, y = coords[:, 0], coords[:, 1]
    xn, yn = nxt[:, 0], nxt[:, 1]
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    centroid = np.array([np.sum((x + xn) * cross), np.sum((y + yn) * cross)])
    return area, centroid / (6.0 * area)


def cell_geometry(mesh, cell):
    return CellGeometry(float(mesh.cell_areas[cell]),
                        mesh.cell_centroids[cell],
                        float(mesh.cell_diameters[cell]))


def edge_geometry(mesh, edge):
    """Geometry of one edge, or of an index array of edges."""
    return EdgeGeometry(mesh.edge_lengths[edge], mesh.edge_midpoints[edge],
                        mesh.edge_normals[edge], mesh.edge_tangents[edge])


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

    nv, ne, nf = (int(t) for t in take(3))
    coords = np.array([float(t) for t in take(2 * nv)]).reshape(nv, 2)
    cells = []
    for _ in range(nf):
        m = int(take(1)[0])
        cells.append([int(t) for t in take(m)])
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
