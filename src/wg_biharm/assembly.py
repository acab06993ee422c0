"""Global system assembly and essential boundary conditions.

Global DOF order: all cell interior blocks (cell id order), then all edge
trace blocks (edge id order), then all edge flux blocks.  Assembly builds
and scatters the local stiffness-plus-stabilizer matrices in one loop in
cell id order, so the assembled arrays are bitwise reproducible.

Boundary conditions are essential: trace and flux blocks of boundary edges
are set to edge projections of the prescribed data, eliminated from the
system, and their coupling moved to the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis_quadrature import polynomial_space_dim
from .projection import WgField, evaluate_at, project_edge
from .weak_laplacian import local_dof_count, local_operators


@dataclass(frozen=True)
class DofLayout:
    """Index bookkeeping between coefficient blocks and the flat vector."""

    degree: int
    n_cells: int
    n_edges: int

    @property
    def cell_block(self):
        return polynomial_space_dim(self.degree)

    @property
    def edge_block(self):
        return self.degree

    @property
    def trace_offset(self):
        return self.n_cells * self.cell_block

    @property
    def flux_offset(self):
        return self.trace_offset + self.n_edges * self.edge_block

    @property
    def total(self):
        return self.flux_offset + self.n_edges * self.edge_block

    def cell_span(self, cell):
        b = self.cell_block
        return cell * b, (cell + 1) * b

    def trace_span(self, edge):
        b = self.edge_block
        o = self.trace_offset
        return o + edge * b, o + (edge + 1) * b

    def flux_span(self, edge):
        b = self.edge_block
        o = self.flux_offset
        return o + edge * b, o + (edge + 1) * b

    def cell_dofs(self, mesh, cell):
        """Global indices of one cell's local DOFs, local canonical order
        (interior, then trace blocks, then flux blocks, edges in boundary
        order)."""
        ce = mesh.cell_edges[cell]
        parts = [np.arange(*self.cell_span(cell))]
        parts += [np.arange(*self.trace_span(e)) for e, _ in ce]
        parts += [np.arange(*self.flux_span(e)) for e, _ in ce]
        return np.concatenate(parts)

    def boundary_dofs(self, mesh):
        """Trace and flux DOFs of boundary edges, ascending."""
        b = self.edge_block
        edges = np.flatnonzero(mesh.boundary_edges)
        block = (b * edges[:, None] + np.arange(b)).ravel()
        return np.concatenate([self.trace_offset + block,
                               self.flux_offset + block])

    def field_to_vector(self, field):
        assert field.interior.shape == (self.n_cells, self.cell_block)
        assert field.trace.shape == (self.n_edges, self.edge_block)
        assert field.flux.shape == (self.n_edges, self.edge_block)
        return np.concatenate([field.interior.ravel(), field.trace.ravel(),
                               field.flux.ravel()])

    def vector_to_field(self, vec):
        assert vec.shape == (self.total,)
        interior = vec[:self.trace_offset].reshape(self.n_cells,
                                                   self.cell_block)
        trace = vec[self.trace_offset:self.flux_offset].reshape(
            self.n_edges, self.edge_block)
        flux = vec[self.flux_offset:].reshape(self.n_edges, self.edge_block)
        return WgField(self.degree, interior.copy(), trace.copy(),
                       flux.copy())


def build_dof_layout(mesh, degree):
    if degree < 2:
        raise ValueError("the element requires k >= 2")
    return DofLayout(degree, mesh.n_cells, mesh.n_edges)


@dataclass
class SparseSymmetricSystem:
    """Assembled operator (CSR), load vector and the layout behind them."""

    matrix: sp.csr_matrix
    load: np.ndarray
    layout: DofLayout
    mesh: object
    degree: int


@dataclass
class ReducedSystem:
    """System after boundary elimination, restricted to free DOFs."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free_dofs: np.ndarray
    boundary_dofs: np.ndarray
    boundary_values: np.ndarray
    layout: DofLayout
    mesh: object
    degree: int

    def expand(self, x_free):
        full = np.zeros(self.layout.total)
        full[self.free_dofs] = x_free
        full[self.boundary_dofs] = self.boundary_values
        return full


def assemble_system(mesh, degree, source, cell_exactness=None,
                    edge_exactness=None):
    """Assemble stiffness + stabilizer and the load (source, v_0).

    ``source`` is a broadcastable callable f(x, y).
    """
    layout = build_dof_layout(mesh, degree)
    nnz = sum(local_dof_count(mesh, c, degree) ** 2
              for c in range(mesh.n_cells))
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz)
    load = np.zeros(layout.total)
    at = 0
    for cell in range(mesh.n_cells):
        op = local_operators(mesh, cell, degree, cell_exactness,
                             edge_exactness)
        g = layout.cell_dofs(mesh, cell)
        n = g.size
        block = op.stiffness + op.stabilizer
        rows[at:at + n * n] = np.repeat(g, n)
        cols[at:at + n * n] = np.tile(g, n)
        data[at:at + n * n] = block.ravel()
        at += n * n

        fvals = evaluate_at(source, op.rule.points)
        lo, hi = layout.cell_span(cell)
        load[lo:hi] += op.values.T @ (op.rule.weights * fvals)

    matrix = sp.coo_matrix((data, (rows, cols)),
                           shape=(layout.total, layout.total)).tocsr()
    return SparseSymmetricSystem(matrix, load, layout, mesh, degree)


def apply_boundary_conditions(system, trace, flux, edge_exactness=None):
    """Eliminate boundary trace/flux DOFs with prescribed data.

    ``trace`` is g(x, y); ``flux`` is the normal derivative datum
    phi(x, y, nx, ny), evaluated with the edge's global normal, which on
    boundary edges is the outward normal of the domain.  Returns the
    reduced system over free DOFs with the boundary coupling moved to the
    right-hand side.
    """
    mesh, layout = system.mesh, system.layout
    k = system.degree
    boundary = layout.boundary_dofs(mesh)

    # Same order as boundary_dofs: every trace block, then every flux block.
    traces, fluxes = [], []
    for e in np.flatnonzero(mesh.boundary_edges):
        nx, ny = mesh.edge_normals[e]
        traces.append(project_edge(mesh, e, trace, k - 1, edge_exactness))
        fluxes.append(project_edge(
            mesh, e, lambda x, y: flux(x, y, nx, ny), k - 1, edge_exactness))
    values = np.concatenate(traces + fluxes)

    mask = np.ones(layout.total, dtype=bool)
    mask[boundary] = False
    free = np.flatnonzero(mask)

    lift = system.matrix[:, boundary] @ values
    rhs = (system.load - lift)[free]
    reduced = system.matrix[free][:, free].tocsr()
    return ReducedSystem(reduced, rhs, free, boundary, values, layout,
                         mesh, k)


def dump_matrix(matrix, path):
    """Write the lower triangle as ``i j value`` lines, 0-based indices,
    full precision, sorted by row then column."""
    coo = sp.tril(matrix.tocoo(), k=0, format="coo")
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="ascii") as fh:
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{i} {j} {v:.17g}\n")
    return path
