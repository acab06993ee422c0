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
    """Length, midpoint, global unit normal and unit tangent of one edge.

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
    """

    def __init__(self, vertices, cells, edges, cell_edges, edge_cells,
                 boundary_edges):
        self.vertices = vertices
        self.cells = cells
        self.edges = edges
        self.cell_edges = cell_edges
        self.edge_cells = edge_cells
        self.boundary_edges = boundary_edges
        for a in (self.vertices, self.edges, self.edge_cells,
                  self.boundary_edges):
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
    vertices = np.ascontiguousarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError("vertices must be a (V, 2) array")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")

    cell_arrays = []
    for c, cell in enumerate(cells):
        idx = np.asarray(cell, dtype=np.int64)
        if idx.size < 3:
            raise ValueError(f"cell {c} has fewer than 3 vertices")
        if idx.min() < 0 or idx.max() >= len(vertices):
            raise ValueError(f"cell {c} references a missing vertex")
        if len(np.unique(idx)) != idx.size:
            raise ValueError(f"cell {c} repeats a vertex")
        # A zero-area cell's centroid is 0/0; the area check rejects it.
        with np.errstate(divide="ignore", invalid="ignore"):
            area, _ = polygon_area_centroid(vertices[idx])
        if area <= 0.0:
            raise ValueError(f"cell {c} is not counter-clockwise")
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

    return Mesh(vertices, tuple(cell_arrays), edges, tuple(cell_edges),
                edge_cells, boundary)


def build_uniform_triangle_mesh(n):
    """Uniform triangulation of the unit square, 2*n^2 cells.

    Each of the n x n subsquares is split by the diagonal from its
    lower-left to its upper-right corner.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            cells.append([a, b, c])
            cells.append([a, c, d])
    return mesh_from_cells(vertices, cells)


def build_uniform_quad_mesh(n):
    """Uniform n x n square mesh of the unit square."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            cells.append([vid(i, j), vid(i + 1, j),
                          vid(i + 1, j + 1), vid(i, j + 1)])
    return mesh_from_cells(vertices, cells)


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
    coords = mesh.cell_vertices(cell)
    area, centroid = polygon_area_centroid(coords)
    diff = coords[:, None, :] - coords[None, :, :]
    diameter = np.sqrt(np.max(np.sum(diff ** 2, axis=2)))
    return CellGeometry(float(area), centroid, float(diameter))


def edge_geometry(mesh, edge):
    a, b = mesh.edges[edge]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    d = pb - pa
    length = float(np.hypot(d[0], d[1]))
    tangent = d / length
    normal = np.array([tangent[1], -tangent[0]])
    return EdgeGeometry(length, 0.5 * (pa + pb), normal, tangent)


def max_cell_diameter(mesh):
    """Mesh size h = max over cells of the cell diameter."""
    return max(cell_geometry(mesh, c).diameter for c in range(mesh.n_cells))


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
