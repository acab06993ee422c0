"""Global system assembly and essential boundary conditions.

Global DOF order: all cell interior blocks (cell id order), then all edge
trace blocks (edge id order), then all edge flux blocks.  Assembly scatters
each shape's stiffness-plus-stabilizer matrix to every cell of the shape,
in the fixed batch order of ``cell_batches``, so the assembled arrays are
bitwise reproducible.

Boundary conditions are essential: trace and flux blocks of boundary edges
are set to edge projections of the prescribed data, with the element's edge
rule (``basis_quadrature.quadrature_exactness``), eliminated from the
system, and their coupling moved to the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis_quadrature import polynomial_space_dim, quadrature_exactness
from .projection import WgField, _edge_data, _project_cells
from .weak_laplacian import (_batch_operators, cell_batches,
                             gather_local_dofs)


@dataclass(frozen=True)
class DofLayout:
    """Index bookkeeping between coefficient blocks and the flat vector."""

    degree: int
    n_cells: int
    n_edges: int
    cell_edges: int  # the most edges of any one cell

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

    @cached_property
    def _numbering(self):
        """WgField holding the global index of every DOF."""
        return self.vector_to_field(np.arange(self.total))

    def cell_dofs(self, mesh, cell):
        """Global indices of one cell's local DOFs, in the local order of
        ``gather_local_dofs``, or their (c, nloc) rows for an index array
        of cells of equal vertex count."""
        return gather_local_dofs(self._numbering, mesh, cell)

    def boundary_dofs(self, mesh):
        """Trace and flux DOFs of boundary edges, ascending."""
        edges = mesh.boundary_edges
        return np.concatenate([self._numbering.trace[edges].ravel(),
                               self._numbering.flux[edges].ravel()])

    def field_to_vector(self, field):
        for name, want in (("interior", (self.n_cells, self.cell_block)),
                           ("trace", (self.n_edges, self.edge_block)),
                           ("flux", (self.n_edges, self.edge_block))):
            _check_shape(f"the field's {name} block", getattr(field, name),
                         want)
        return np.concatenate([field.interior.ravel(), field.trace.ravel(),
                               field.flux.ravel()])

    def vector_to_field(self, vec):
        _check_shape("the DOF vector", vec, (self.total,))
        interior, trace, flux = np.split(
            vec.copy(), [self.trace_offset, self.flux_offset])
        return WgField(self.degree, interior.reshape(self.n_cells, -1),
                       trace.reshape(self.n_edges, -1),
                       flux.reshape(self.n_edges, -1))


def _check_shape(what, array, want):
    if np.shape(array) != want:
        raise ValueError(f"{what} has shape {np.shape(array)}, expected "
                         f"{want}")


def build_dof_layout(mesh, degree):
    quadrature_exactness(degree)  # raises for k < 2
    return DofLayout(degree, mesh.n_cells, mesh.n_edges,
                     int(mesh.cell_sizes.max()))


@dataclass
class SparseSymmetricSystem:
    """Assembled operator (CSR), load vector and the layout behind them."""

    matrix: sp.csr_matrix
    load: np.ndarray
    layout: DofLayout
    mesh: object


@dataclass
class ReducedSystem:
    """System after boundary elimination, restricted to free DOFs."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free_dofs: np.ndarray
    boundary_dofs: np.ndarray
    boundary_values: np.ndarray
    layout: DofLayout

    def expand(self, x_free):
        full = np.zeros(self.layout.total)
        full[self.free_dofs] = x_free
        full[self.boundary_dofs] = self.boundary_values
        return full


def assemble_system(mesh, degree, source):
    """Assemble stiffness + stabilizer and the load (source, v_0).

    ``source`` is a broadcastable callable f(x, y).
    """
    layout = build_dof_layout(mesh, degree)
    nnz = int(np.sum((layout.cell_block + 2 * degree * mesh.cell_sizes) ** 2))
    rows = np.empty(nnz, dtype=np.int32)
    cols = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    load = np.zeros(layout.total)
    at = 0
    for reps, cells, which in cell_batches(mesh, degree):
        op = _batch_operators(mesh, reps, degree)
        g = layout.cell_dofs(mesh, cells)
        local = op.stiffness + op.stabilizer  # one per shape
        # The shapes' nonzero pattern leaves out the exact zeros of the
        # masked couplings; a zero of one shape where another has none is
        # summed and dropped below.
        i, j = np.nonzero(np.any(local != 0.0, axis=0))
        end = at + cells.size * i.size
        # Written straight into the COO arrays: the indices are in range,
        # and np.take buffers its output in its default mode, "raise".
        g32 = g.astype(np.int32)
        np.take(g32, i, axis=1, out=rows[at:end].reshape(-1, i.size),
                mode="clip")
        np.take(g32, j, axis=1, out=cols[at:end].reshape(-1, i.size),
                mode="clip")
        np.take(local[:, i, j], which, axis=0,
                out=data[at:end].reshape(-1, i.size), mode="clip")
        at = end

        load[g[:, :layout.cell_block]] = _project_cells(  # (f, phi_j)
            mesh, cells, which, op.rule, op.values, source)

    matrix = sp.coo_matrix((data[:at], (rows[:at], cols[:at])),
                           shape=(layout.total, layout.total)).tocsr()
    matrix.eliminate_zeros()  # duplicates that cancel, scattered zeros
    return SparseSymmetricSystem(matrix, load, layout, mesh)


def apply_boundary_conditions(system, trace, flux):
    """Eliminate boundary trace/flux DOFs with prescribed data.

    ``trace`` is g(x, y); ``flux`` is the normal derivative datum
    phi(x, y, nx, ny), evaluated with the edge's global normal, which on
    boundary edges is the outward normal of the domain; for the solution's
    own data the imposed DOFs are ``project_field``'s boundary rows.
    Returns the reduced system over free DOFs with the boundary coupling
    moved to the right-hand side.
    """
    mesh, layout = system.mesh, system.layout
    boundary = layout.boundary_dofs(mesh)

    # Same order as boundary_dofs: every trace block, then every flux block.
    traces, fluxes = _edge_data(mesh, np.flatnonzero(mesh.boundary_edges),
                                layout.degree, trace, flux)
    values = np.concatenate([traces.ravel(), fluxes.ravel()])

    free = np.ones(layout.total, dtype=bool)
    free[boundary] = False
    free = np.flatnonzero(free)

    # the lift as one SpMV of a zero-padded vector: a CSR column slice
    # costs about four times as much
    imposed = np.zeros(layout.total)
    imposed[boundary] = values
    rhs = (system.load - system.matrix @ imposed)[free]
    reduced = system.matrix[free][:, free].tocsr()
    return ReducedSystem(reduced, rhs, free, boundary, values, layout)


def dump_matrix(matrix, path):
    """Write the lower triangle as ``i j value`` lines, 0-based indices,
    full precision, sorted by row then column."""
    coo = sp.tril(matrix.tocoo(), k=0, format="coo")
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="ascii") as fh:
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{i} {j} {v:.17g}\n")
    return path
