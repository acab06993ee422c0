"""Discrete norms and the six-column error report.

The energy norm is the square root of

    sum_T ( ||Delta_w v||_T^2
            + h_T^-1 ||grad v_0 . n_e - v_n||_dT^2
            + h_T^-3 ||Q_b v_0 - v_b||_dT^2 ),

the natural norm of the scheme; on the homogeneous-boundary subspace it is
a genuine norm (the assembled reduced matrix is SPD, which the tests check
through a dense eigendecomposition).

The error report takes it from the scheme's own form, as the square root
of sum_T v_T^T (A_T + S_T) v_T over the local matrices of
``cell_operators``, whose rules and orthonormal values also project the
exact interior, and the interior L2 column as the 2-norm of the interior
coefficient errors.  ``energy_norm`` keeps a second, independent route by
direct quadrature of each edge residual, v_0 in scaled monomials, so the
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
                         _project_on_rule)
from .weak_laplacian import cell_operators, gather_local_dofs


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
    """Energy norm of a WgField by quadrature: of the weak Laplacian in the
    batches of ``cell_operators``, and of the two edge residuals at every
    cell-edge incidence."""
    n2 = polynomial_space_dim(degree - 2)
    total = 0.0
    monomial = np.empty_like(field.interior)
    for cells, ops in cell_operators(mesh, degree):
        wcoef = np.einsum("cij,cj->ci", ops.weak_laplacian,
                          gather_local_dofs(field, mesh, cells))
        wvals = np.einsum("cpi,ci->cp", ops.values[..., :n2], wcoef)
        total += float(np.sum(ops.rule.weights * wvals ** 2))
        monomial[cells] = np.einsum("cij,cj->ci", ops.basis_change,
                                    field.interior[cells])

    cell = np.repeat(np.arange(mesh.n_cells), mesh.cell_sizes)
    e = mesh.cell_edge_rows[:, 0]
    erule, L, Q, _ = _legendre_edge(degree - 1,
                                    quadrature_exactness(degree)[1])
    basis = CellBasis(degree, mesh.cell_centroids[cell],
                      mesh.cell_diameters[cell])
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
    for cells, ops in cell_operators(mesh, degree):
        d = (_project_on_rule(ops.rule, ops.values, exact.value)
             - u_h.interior[cells])
        diff.interior[cells] = d
        v = gather_local_dofs(diff, mesh, cells)
        h2sq += float(np.einsum("ci,cij,cj->", v,
                                ops.stiffness + ops.stabilizer, v))
        l2sq += float(np.sum(d ** 2))
    # A zero-energy error can sum to a tiny negative roundoff (nan in sqrt).
    h2 = float(np.sqrt(max(h2sq, 0.0)))

    # h_e times the Legendre edge mass h_e / (2j + 1).
    _, L, _, odd = _legendre_edge(degree - 1, quadrature_exactness(degree)[1])
    weights = mesh.edge_lengths[:, None] ** 2 / odd
    eb_sq = float(np.sum(weights * diff.trace ** 2))
    en_sq = float(np.sum(weights * diff.flux ** 2))
    eb_max = float(np.max(np.abs(diff.trace @ L.T)))
    en_max = float(np.max(np.abs(diff.flux @ L.T)))

    return ErrorReport(h2, float(np.sqrt(l2sq)), float(np.sqrt(eb_sq)),
                       float(np.sqrt(en_sq)), eb_max, en_max)
