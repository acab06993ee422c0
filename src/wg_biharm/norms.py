"""Discrete norms and the six-column error report.

The energy norm is the square root of

    sum_T ( ||Delta_w v||_T^2
            + h_T^-1 ||grad v_0 . n_e - v_n||_dT^2
            + h_T^-3 ||Q_b v_0 - v_b||_dT^2 ),

the natural norm of the scheme; on the homogeneous-boundary subspace it is
a genuine norm (the assembled reduced matrix is SPD, which the tests check
through a dense eigendecomposition).

The error report takes it from the kernel's rows
(``weak_laplacian._batch_rows``, one set per cell shape) as a sum of
squares per cell,

    |B v|^2 + sum W1 (G v_0 - v_n)^2 + W2 (E v_0 - v_b)^2,

Delta_w's coefficients and the two weighted mismatches in Legendre
coefficients, so it never forms a local matrix and never goes negative.
The rows' rules and orthonormal values also project the exact interior,
and the interior L2 column is the 2-norm of the interior coefficient
errors.  ``energy_norm`` reads the same weak Laplacian rows but keeps a
second, independent route for the edge terms, direct quadrature of each
edge residual at the edge points with v_0 in scaled monomials, so the
identity energy(v)^2 = v^T A v is a meaningful cross-check; it is not on
the report's path.

Errors compare the discrete solution against the blockwise projection of
the exact one.  The flux columns compare u_n with the edge projection of
grad(u_exact) . n_e; this matches what the flux estimate actually bounds.
Edge L2 columns carry the h_e weight

    ||w||_E^2 = sum_e h_e ||w||_{L2(e)}^2

and the L-inf columns take the maximum over edge quadrature points.
Both functions integrate with the element's rules,
``basis_quadrature.quadrature_exactness(degree)``, and take none of their own.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .basis_quadrature import (CellBasis, _legendre_edge,
                               polynomial_space_dim, quadrature_exactness)
from .mesh import edge_points
from .projection import (WgField, _edge_data, _normal_derivative,
                         _project_cells)
from .weak_laplacian import _batch_rows, cell_batches, gather_local_dofs


@dataclass(frozen=True)
class ErrorReport:
    """The six error columns of a convergence study."""

    h2_energy: float
    l2_interior: float
    l2_edge_trace: float
    l2_edge_flux: float
    linf_edge_trace: float
    linf_edge_flux: float

    def as_dict(self):
        return asdict(self)


def energy_norm(mesh, degree, field):
    """Energy norm of a WgField by quadrature: of the weak Laplacian from
    the rows of ``_batch_rows``, and of the two edge residuals at every
    cell-edge incidence."""
    n2 = polynomial_space_dim(degree - 2)
    total = 0.0
    monomial = np.empty_like(field.interior)
    for reps, cells, which in cell_batches(mesh, degree):
        rule, vals, T, B = _batch_rows(mesh, reps, degree)[:4]
        wcoef = _matvec(B[which], gather_local_dofs(field, mesh, cells))
        wvals = _matvec(vals[which, :, :n2], wcoef)
        total += float(np.sum(rule.weights[which] * wvals ** 2))
        monomial[cells] = _matvec(T[which], field.interior[cells])

    cell = np.repeat(np.arange(mesh.n_cells), mesh.cell_sizes)
    e = mesh.cell_edge_rows[:, 0]
    erule, L, Q, _ = _legendre_edge(degree - 1,
                                    quadrature_exactness(degree)[1])
    # the monomials of the shape's T, about its representative moved here
    rep = mesh.cell_shapes[cell]
    basis = CellBasis(degree,
                      mesh.cell_centroids[rep] + mesh.cell_shifts(cell),
                      mesh.cell_diameters[rep])
    evals = basis.evaluate(edge_points(mesh, e[:, None], erule.points), False)
    grad_n = basis.gradients(evals, mesh.edge_normals[e, None])
    v0 = monomial[cell, None, :]
    flux_gap = np.sum(grad_n * v0, axis=-1) - field.flux[e] @ L.T
    qb = np.sum(evals * v0, axis=-1) @ Q.T
    trace_gap = (qb - field.trace[e]) @ L.T
    h_cell = mesh.cell_diameters[cell, None]
    half = 0.5 * mesh.edge_lengths[e, None]
    total += float(np.sum(erule.weights * half * (
        flux_gap ** 2 / h_cell + trace_gap ** 2 / h_cell ** 3)))
    return float(np.sqrt(total))


def compute_errors(mesh, degree, u_h, exact):
    """Six-norm error report of ``u_h`` against a smooth exact field."""
    trace, flux = _edge_data(mesh, np.arange(mesh.n_edges), degree,
                             exact.value, _normal_derivative(exact))
    diff = WgField(degree, np.empty_like(u_h.interior), trace - u_h.trace,
                   flux - u_h.flux)

    h2sq = l2sq = 0.0
    for reps, cells, which in cell_batches(mesh, degree):
        rule, vals, _, B, E, G, W1, W2 = _batch_rows(mesh, reps, degree)
        d = (_project_cells(mesh, cells, which, rule, vals, exact.value)
             - u_h.interior[cells])
        diff.interior[cells] = d
        v = gather_local_dofs(diff, mesh, cells)
        # v is (v_0, v_b, v_n): the mismatches E v_0 - v_b, G v_0 - v_n
        _, v_b, v_n = np.split(v, [d.shape[1], d.shape[1] + E.shape[1]], -1)
        h2sq += float(np.sum(_matvec(B[which], v) ** 2)
                      + np.sum(W1[which] * (_matvec(G[which], d) - v_n) ** 2)
                      + np.sum(W2[which] * (_matvec(E[which], d) - v_b) ** 2))
        l2sq += float(np.sum(d ** 2))
    h2 = float(np.sqrt(h2sq))

    # h_e times the Legendre edge mass h_e / (2j + 1).
    _, L, _, odd = _legendre_edge(degree - 1, quadrature_exactness(degree)[1])
    weights = mesh.edge_lengths[:, None] ** 2 / odd
    eb_sq = float(np.sum(weights * diff.trace ** 2))
    en_sq = float(np.sum(weights * diff.flux ** 2))
    eb_max = float(np.max(np.abs(diff.trace @ L.T)))
    en_max = float(np.max(np.abs(diff.flux @ L.T)))

    return ErrorReport(h2, float(np.sqrt(l2sq)), float(np.sqrt(eb_sq)),
                       float(np.sqrt(en_sq)), eb_max, en_max)


def _matvec(A, x):
    """A x over a stack: (c, i, j) by (c, j)."""
    return np.einsum("cij,cj->ci", A, x)
