"""Local weak Laplacian and stabilizer operators.

For a discrete weak function v = {v_0, v_b, v_n n_e} on a cell T the weak
Laplacian is the polynomial Delta_w v in P_{k-2}(T) defined against every
test polynomial phi in P_{k-2}(T) by

    (Delta_w v, phi)_T = (v_0, Delta phi)_T - <v_b, grad phi . n>_dT
                         + <v_n n_e . n, phi>_dT

with n the outward normal of T, so the flux term carries the incidence
sign n_e . n = +-1.  For k = 2 the right side collapses to the flux term
alone and Delta_w v is the constant (sum_e sign * int_e v_n) / |T|.

The stabilizer penalizes the two inter-block mismatches on each cell
boundary,

    h_T^-1 <grad v_0 . n_e - v_n, grad w_0 . n_e - w_n>_dT
  + h_T^-3 <Q_b v_0 - v_b, Q_b w_0 - w_b>_dT

where Q_b is the edge L2 projection onto the trace degree.  Both mismatch
terms use the global edge normal, so the two cells sharing an edge penalize
against the same flux unknown.

Every edge term is written in the edges' Legendre coefficients.  On a
straight edge grad v_0 . n_e has degree k - 1, so it and Q_b v_0 are
projected exactly from their values at the edge points, and every edge
integral is a sum of coefficient products under the edge mass
h_e / (2j + 1): both mismatches and both edge terms of Delta_w.  The cell
and edge rules are the element's, ``basis_quadrature.quadrature_exactness(k)``.

The kernel has two stages: ``_batch_rows``, the rows of every term of
the energy form, which the error report and ``energy_norm`` read, and
``_batch_operators``, their Gram matrices, which assembly scatters.  It
runs once per cell shape (``Mesh.cell_shapes``), on each shape's
representative: a translate has the same operators, orthonormal values and
rule weights, and its rule points are the representative's moved by
``Mesh.cell_shifts``.  Its T maps to monomials about the representative's
centroid and diameter, moved the same way.

Local degrees of freedom are ordered: interior coefficients in the cell's
orthonormal basis (``_cell_values``), then the trace
block of each local edge, then the flux block of each local edge, edges in
the cell's boundary order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis_quadrature import (CellBasis, QuadratureRule, _duffy_rule,
                               _legendre_edge, edge_quadrature,
                               polygon_quadrature, polynomial_space_dim,
                               quadrature_exactness)
from .mesh import edge_points
from .solver import SolverError, _inverse_cholesky

# P_k basis values at a batch's cell and edge points, bounding its memory;
# gradients (edge points) and Laplacians (cell points) are read off subsets.
_BATCH_ENTRIES = 40_000


@dataclass(frozen=True)
class LocalOperators:
    """Per-cell operator matrices in the local DOF order.

    weak_laplacian maps local DOFs to the coefficients of Delta_w v in the
    P_{k-2} prefix of the orthonormal cell basis; stiffness is its Gram
    matrix (Delta_w u, Delta_w v)_T; stabilizer is the boundary penalty
    form; basis_change is the upper-triangular T taking orthonormal to
    scaled monomial coefficients.  rule is the cell quadrature rule and
    values the orthonormal P_k values at its points, from which the load and
    the cell projection are computed.  From ``_batch_operators`` on a batch's
    representatives every array has a leading axis over their shapes.
    """

    weak_laplacian: np.ndarray
    stiffness: np.ndarray
    stabilizer: np.ndarray
    basis_change: np.ndarray
    rule: QuadratureRule
    values: np.ndarray


def gather_local_dofs(field, mesh, cell):
    """Local DOF vector of a WgField on one cell, in the local order, or
    its (c, nloc) rows for an index array of cells of equal vertex count."""
    e = mesh.cell_rows(cell)[1][..., 0]
    shape = np.shape(cell) + (-1,)
    return np.concatenate([field.interior[cell], field.trace[e].reshape(shape),
                           field.flux[e].reshape(shape)], axis=-1)


def local_operators(mesh, cell, k):
    """LocalOperators of one cell: the kernel on a one-cell batch."""
    op = _batch_operators(mesh, np.array([cell]), k)
    rule = QuadratureRule(op.rule.points[0], op.rule.weights[0])
    return LocalOperators(op.weak_laplacian[0], op.stiffness[0],
                          op.stabilizer[0], op.basis_change[0], rule,
                          op.values[0])


def cell_batches(mesh, k):
    """List of (reps, cells, which) partitioning the cells: reps, the
    ascending representatives of some shapes (``Mesh.cell_shapes``) of one
    vertex count, with at most _BATCH_ENTRIES values of the P_k basis at
    their cell and edge quadrature points or one shape; cells, the
    ascending cells of those shapes; which, each cell's position in reps.
    Where every cell is its own shape, reps and cells are equal.  Every
    layer runs the kernel on reps, and cell cells[i] reads row which[i]."""
    cell_exactness, edge_exactness = quadrature_exactness(k)
    n_duffy = _duffy_rule(cell_exactness)[1].size
    n_edge = edge_quadrature(edge_exactness).weights.size
    shape = mesh.cell_shapes
    reps = np.flatnonzero(shape == np.arange(mesh.n_cells))
    groups = []
    for m in np.unique(mesh.cell_sizes[reps]):
        group = reps[mesh.cell_sizes[reps] == m]
        points = (m - 2) * n_duffy + m * n_edge  # per cell
        step = max(1, _BATCH_ENTRIES // (points * polynomial_space_dim(k)))
        groups += np.split(group, np.arange(step, group.size, step))
    batch = np.empty(mesh.n_cells, dtype=np.int64)  # of each representative
    for b, chunk in enumerate(groups):
        batch[chunk] = b
    members = np.split(np.argsort(batch[shape], kind="stable"), np.cumsum(
        np.bincount(batch[shape], minlength=len(groups)))[:-1])
    return [(chunk, cells, np.searchsorted(chunk, shape[cells]))
            for chunk, cells in zip(groups, members)]


def _cell_values(mesh, cells, degree, exactness):
    """P_degree scaled monomial basis, cell rule, the monomial values V at
    its points, the orthonormal basis values V T there and T, of one cell or
    of an index array of cells of one vertex count (leading cell axis).

    Cholesky QR twice on the values: V R^-1 with R^T R = V^T W V, then
    again; one pass leaves the Gram matrix 0.5 off I on a cell of aspect
    4096.  T is upper triangular, so lower degrees are a prefix.  A cell
    whose scaled monomials are dependent in float64 (a thin cell not
    aligned with the axes) raises ValueError.
    """
    basis = CellBasis(degree, mesh.cell_centroids[cells],
                      mesh.cell_diameters[cells])
    rule = polygon_quadrature(mesh.vertices[mesh.cell_rows(cells)[0]],
                              exactness)
    mono = basis.evaluate(rule.points, False)
    vals, T = mono, np.eye(basis.dimension)
    for _ in range(2):
        gram = (vals * rule.weights[..., None]).mT @ vals
        try:
            inv = _inverse_cholesky(gram, "a cell mass matrix")
        except SolverError:  # name the worst-conditioned cell
            lam = np.linalg.eigvalsh(gram)
            c = np.ravel(cells)[np.argmin(lam[..., 0] / lam[..., -1])]
            ratio = mesh.cell_areas[c] / mesh.cell_diameters[c] ** 2
            raise ValueError(f"cell {c} (area/diameter^2 = {ratio:.3g}) is "
                             f"too thin for a degree-{degree} cell basis in "
                             "float64") from None
        vals, T = vals @ inv.mT, T @ inv.mT
    return basis, rule, mono, vals, T


def _batch_rows(mesh, cells, k):
    """(rule, vals, T, B, E, G, W1, W2) of c cells that all have m edges:
    rule, vals and T as in ``_cell_values``; B maps local DOFs to Delta_w's
    coefficients; E = Q_b v_0 and G = grad v_0 . n_e map v_0 to each edge's
    Legendre coefficients, weighted by W1 = mu / h_T and W2 = mu / h_T^3,
    mu the edge mass h_e / (2j + 1).  The energy form of v is the sum of
    squares |B v|^2 + sum W1 (G v_0 - v_n)^2 + W2 (E v_0 - v_b)^2.
    """
    cell_exactness, edge_exactness = quadrature_exactness(k)
    rows = mesh.cell_rows(cells)[1]
    c, m = rows.shape[:2]
    erule, _, Q, odd = _legendre_edge(k - 1, edge_exactness)
    ne = erule.weights.size
    h_cell = mesh.cell_diameters[cells, None]
    n2 = polynomial_space_dim(k - 2)
    basis, rule, mono, vals, T = _cell_values(mesh, cells, k, cell_exactness)

    # Each edge's Legendre coefficients of v_0 (E = Q_b v_0) and of
    # grad v_0 . n_e (G, exact: degree k - 1 on a straight edge), projected
    # from the edge points, times T.
    e = rows[..., 0]
    evals = basis.evaluate(edge_points(mesh, e, erule.points), False)
    grad_n = basis.gradients(evals,
                             np.repeat(mesh.edge_normals[e], ne, axis=1))
    E, G = ((Q @ x.reshape(c, m, ne, -1)).reshape(c, m * k, -1) @ T
            for x in (evals, grad_n))
    mu = (mesh.edge_lengths[e][..., None] / odd).reshape(c, -1)

    # The edge terms by the edge mass, signed by the incidence (the outward
    # normal is sign * n_e): -<v_b, grad phi . n> and <v_n n_e . n, phi>.
    # grad phi . n_e has degree k - 3 and phi degree k - 2, so the trace
    # modes j >= k - 2 and the flux mode k - 1 are orthogonal to them;
    # masking them stores exact zeros instead of roundoff.  T is upper
    # triangular: the P_{k-2} prefix mixes only the first n2 monomials, so
    # only their Laplacians are taken.
    j = np.tile(np.arange(k), m)
    smu = np.repeat(rows[..., 1], k, axis=1) * mu
    lap = (replace(basis, degree=k - 2).laplacians(mono[..., :n2])
           @ T[..., :n2, :n2] * rule.weights[..., None])
    B = np.concatenate([lap.mT @ vals,
                        -(G[..., :n2] * (smu * (j < k - 2))[..., None]).mT,
                        (E[..., :n2] * (smu * (j < k - 1))[..., None]).mT],
                       axis=-1)
    return rule, vals, T, B, E, G, mu / h_cell, mu / h_cell ** 3


def _batch_operators(mesh, cells, k):
    """LocalOperators of c cells that all have m edges."""
    rule, vals, T, B, E, G, W1, W2 = _batch_rows(mesh, cells, k)
    c, mk, n = E.shape

    # The stabilizer is the Gram matrix of the two mismatches in
    # coefficients, G v_0 - v_n under W1 and E v_0 - v_b under W2, written
    # by blocks and diagonals into the local (interior, trace, flux) order.
    GW, EW = (G * W1[..., None]).mT, (E * W2[..., None]).mT
    S = np.zeros((c, n + 2 * mk, n + 2 * mk))
    trace, flux = slice(n, n + mk), slice(n + mk, None)
    S[:, :n, :n] = _sym(GW @ G + EW @ E)
    S[:, :n, trace], S[:, :n, flux] = -EW, -GW
    S[:, trace, :n], S[:, flux, :n] = -EW.mT, -GW.mT
    j = np.arange(mk)
    S[:, n + j, n + j], S[:, n + mk + j, n + mk + j] = W2, W1

    # the P_{k-2} prefix is orthonormal: B holds Delta_w's coefficients
    Bt = np.ascontiguousarray(B.mT)
    return LocalOperators(B, _sym(Bt @ B), S, T, rule, vals)


def _sym(A):
    return 0.5 * (A + A.mT)
