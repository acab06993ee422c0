"""Assembly, static condensation and essential boundary conditions.

Global DOF order: all cell interior blocks (cell id order), then all edge
trace blocks (edge id order), then all edge flux blocks.  The interior
unknowns couple only to their own cell, so assembly eliminates them once
per shape of each batch of ``cell_batches``: with the local stiffness plus
stabilizer [[A_ii, A_ie], [A_ei, A_ee]], A_ii = L L^T, Y = L^-1 A_ie and
S_T = A_ee - Y^T Y, scattered to the shape's cells in the fixed batch
order, so the trace/flux matrix S is bitwise reproducible; the load b_T =
(f, v_0) condenses to g = -sum_T Y_T^T L^-1 b_T.  The full matrix A is
built by the same scatter, on request only, as a reference.

Boundary conditions are essential: trace and flux blocks of boundary edges
are set to edge projections of the prescribed data, with the element's edge
rule (``basis_quadrature.quadrature_exactness``), eliminated from S by
whole edges in S's own numbering, and their coupling moved to the
right-hand side; x_T = L^-T (L^-1 b_T - Y x_e).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis_quadrature import polynomial_space_dim, quadrature_exactness
from .projection import WgField, _edge_data, _project_cells
from .solver import _inverse_cholesky
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
    """S (CSR over every edge DOF less ``layout.trace_offset``) and its
    right-hand side; per batch of ``cell_batches``, (cells, which, L^-1 and
    Y per shape, each cell's edge DOFs less the offset, z = L^-1 b_T) to
    recover the interiors; the load (f, v_0) and the layout."""

    schur: sp.csr_matrix
    schur_rhs: np.ndarray
    recovery: list
    load: np.ndarray
    layout: DofLayout
    mesh: object

    @cached_property
    def matrix(self):
        """The full assembled operator A (CSR), built on first access: the
        reference that tests and ``--dump-matrix`` read."""
        mesh, layout, k = self.mesh, self.layout, self.layout.degree
        ops = ((_batch_operators(mesh, reps, k), cells, which)
               for reps, cells, which in cell_batches(mesh, k))
        local = ((op.stiffness + op.stabilizer, layout.cell_dofs(mesh, c), w)
                 for op, c, w in ops)
        return _scatter(layout.total,
                        layout.cell_block + 2 * k * mesh.cell_sizes, local)


@dataclass
class ReducedSystem:
    """S and its right-hand side over the free edge DOFs ``free``, in S's
    numbering (every edge DOF less ``layout.trace_offset``); ``imposed``
    holds every edge DOF, the boundary data at the fixed ones."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    imposed: np.ndarray
    layout: DofLayout
    recovery: list

    @property
    def free_dofs(self):
        """Every DOF the boundary data do not fix, the interiors first."""
        offset = self.layout.trace_offset
        return np.concatenate([np.arange(offset), self.free + offset])

    def expand(self, x_b):
        """The full DOF vector from the free edge values x_b: the boundary
        values, and each interior x_T = L^-T (z - Y x_e)."""
        edges = self.imposed.copy()
        edges[self.free] = x_b
        interior = np.zeros((self.layout.n_cells, self.layout.cell_block))
        for cells, which, inv, y, dofs, z in self.recovery:
            z = z - np.einsum("cij,cj->ci", y[which], edges[dofs])
            interior[cells] = np.einsum("cji,cj->ci", inv[which], z)
        return np.concatenate([interior.ravel(), edges])


def _scatter(size, local_sizes, batches):
    """CSR (size x size) sum of local matrices, without stored zeros: each
    of ``batches`` is (local, dofs, which), one matrix per shape and each
    cell's DOFs and row of local; ``local_sizes`` holds every cell's."""
    entries = int(np.sum(np.asarray(local_sizes) ** 2))
    rows = np.empty(entries, dtype=np.int32)
    cols = np.empty(entries, dtype=np.int32)
    data = np.empty(entries)
    at = 0
    for local, dofs, which in batches:
        # The shapes' nonzero pattern leaves out the exact zeros of the
        # masked couplings; a zero of one shape where another has none is
        # summed and dropped below.
        i, j = np.nonzero(np.any(local != 0.0, axis=0))
        end = at + which.size * i.size
        # Written straight into the COO arrays: the indices are in range,
        # and np.take buffers its output in its default mode, "raise".
        dofs = dofs.astype(np.int32)
        np.take(dofs, i, axis=1, out=rows[at:end].reshape(-1, i.size),
                mode="clip")
        np.take(dofs, j, axis=1, out=cols[at:end].reshape(-1, i.size),
                mode="clip")
        np.take(local[:, i, j], which, axis=0,
                out=data[at:end].reshape(-1, i.size), mode="clip")
        at = end
    matrix = sp.coo_matrix((data[:at], (rows[:at], cols[:at])),
                           shape=(size, size)).tocsr()
    matrix.eliminate_zeros()  # duplicates that cancel, scattered zeros
    return matrix


def assemble_system(mesh, degree, source):
    """Condense stiffness + stabilizer and the load (source, v_0), a
    broadcastable f(x, y), onto the edge DOFs, once per cell shape; an
    interior block that is not SPD or not finite raises SolverError."""
    layout = build_dof_layout(mesh, degree)
    n, offset = layout.cell_block, layout.trace_offset
    load = np.zeros(layout.total)
    rhs = np.zeros(layout.total - offset)
    recovery = []

    def condensed():
        for reps, cells, which in cell_batches(mesh, degree):
            op = _batch_operators(mesh, reps, degree)
            local = op.stiffness + op.stabilizer  # one per shape
            inv = _inverse_cholesky(local[:, :n, :n], "an interior block")
            y = inv @ local[:, :n, n:]
            dofs = layout.cell_dofs(mesh, cells)
            b = _project_cells(mesh, cells, which, op.rule, op.values,
                               source)  # (f, phi_j)
            load[dofs[:, :n]] = b
            z = np.einsum("cij,cj->ci", inv[which], b)
            edges = dofs[:, n:] - offset
            rhs[:] -= np.bincount(edges.ravel(), np.einsum(
                "cij,ci->cj", y[which], z).ravel(), rhs.size)
            recovery.append((cells, which, inv, y, edges, z))
            yield local[:, n:, n:] - y.mT @ y, edges, which

    schur = _scatter(rhs.size, 2 * degree * mesh.cell_sizes, condensed())
    return SparseSymmetricSystem(schur, rhs, recovery, load, layout, mesh)


def apply_boundary_conditions(system, trace, flux):
    """Eliminate boundary trace/flux DOFs with prescribed data.

    ``trace`` is g(x, y); ``flux`` is the normal derivative datum
    phi(x, y, nx, ny), evaluated with the edge's global normal, which on
    boundary edges is the outward normal of the domain; for the solution's
    own data the imposed DOFs are ``project_field``'s boundary rows.
    Returns S and its right-hand side over the free edge DOFs, with the
    boundary coupling moved to the right-hand side.
    """
    mesh, k = system.mesh, system.layout.degree
    edges = np.flatnonzero(mesh.boundary_edges)
    # S's order, every trace block then every flux block, edge by edge
    imposed = np.zeros((2, mesh.n_edges, k))
    imposed[:, edges] = _edge_data(mesh, edges, k, trace, flux)
    imposed = imposed.ravel()
    free = np.flatnonzero(np.tile(np.repeat(~mesh.boundary_edges, k), 2))
    # the lift as one SpMV of the zero-padded data: a CSR column slice
    # costs about four times as much
    rhs = (system.schur_rhs - system.schur @ imposed)[free]
    return ReducedSystem(system.schur[free][:, free].tocsr(), rhs, free,
                         imposed, system.layout, system.recovery)


def dump_matrix(matrix, path):
    """Write the lower triangle as ``i j value`` lines, 0-based indices,
    full precision, sorted by row then column."""
    coo = sp.tril(matrix.tocoo(), k=0, format="coo")
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="ascii") as fh:
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{i} {j} {v:.17g}\n")
    return path
