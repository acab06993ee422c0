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

Local degrees of freedom are ordered: interior coefficients, then the trace
block of each local edge, then the flux block of each local edge, edges in
the cell's boundary order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.linalg import cho_factor, cho_solve

from .basis_quadrature import (CellBasis, QuadratureRule, edge_points,
                               edge_quadrature, polygon_quadrature,
                               polynomial_space_dim)
from .mesh import cell_geometry, edge_geometry


@dataclass(frozen=True)
class LocalOperators:
    """Per-cell operator matrices in the local DOF order.

    weak_laplacian maps local DOFs to the scaled monomial coefficients of
    Delta_w v; stiffness is its Gram matrix (Delta_w u, Delta_w v)_T;
    stabilizer is the boundary penalty form; mass is the Gram matrix of the
    P_k cell basis, whose leading P_{k-2} block is the Gram matrix of the
    basis used to represent Delta_w v (the lower-degree basis is a prefix).
    rule is the cell quadrature rule and values the P_k basis values at its
    points, from which the load and the cell projection are computed.
    """

    weak_laplacian: np.ndarray
    stiffness: np.ndarray
    stabilizer: np.ndarray
    mass: np.ndarray
    rule: QuadratureRule
    values: np.ndarray


def local_dof_count(mesh, cell, k):
    m = len(mesh.cell_edges[cell])
    return polynomial_space_dim(k) + 2 * m * k


def gather_local_dofs(field, mesh, cell):
    """Local DOF vector of a WgField on one cell, in the local order."""
    ce = mesh.cell_edges[cell]
    parts = [field.interior[cell]]
    parts += [field.trace[e] for e, _ in ce]
    parts += [field.flux[e] for e, _ in ce]
    return np.concatenate(parts)


def local_operators(mesh, cell, k, cell_exactness=None, edge_exactness=None):
    """Build the local weak Laplacian, stiffness and stabilizer matrices.

    Quadrature exactness defaults to 2k + 2 on the cell and 2k + 3 on the
    edges, enough for every polynomial integrand appearing here.  Lower
    overrides are accepted down to 2k on the cell (the P_k mass matrix)
    and 2k - 1 on the edges (the trace projection Q_b of P_k).
    """
    if k < 2:
        raise ValueError("the element requires k >= 2")
    if cell_exactness is None:
        cell_exactness = 2 * k + 2
    if edge_exactness is None:
        edge_exactness = 2 * k + 3
    for name, value, low in (("cell", cell_exactness, 2 * k),
                             ("edge", edge_exactness, 2 * k - 1)):
        if value < low:
            raise ValueError(f"{name} quadrature exactness {value} is below "
                             f"the minimum {low} for k = {k}")
    geom = cell_geometry(mesh, cell)
    basis = CellBasis.for_cell(geom, k)
    n0 = basis.dimension
    n2 = polynomial_space_dim(k - 2)
    ce = mesh.cell_edges[cell]
    m = len(ce)
    nloc = n0 + 2 * m * k
    h_cell = geom.diameter

    # One basis evaluation on the cell points, then on each edge's points.
    rule = polygon_quadrature(mesh.cell_vertices(cell), cell_exactness)
    erule = edge_quadrature(edge_exactness)
    eg = edge_geometry(mesh, ce[:, 0])
    nq, ne = len(rule.weights), len(erule.weights)
    allvals, allgrads, alllaps = basis.evaluate(
        np.concatenate([rule.points, edge_points(eg, erule.points)]))
    vals, laps = allvals[:nq], alllaps[:nq]
    w = rule.weights
    wvals = vals * w[:, None]
    mass = wvals.T @ vals
    # mass2 holds the entries of mass[:n2, :n2] up to the last bit: BLAS
    # rounds a product of another shape differently, and the solve keeps
    # the P_{k-2} product so that the assembled system does not change.
    mass2 = wvals[:, :n2].T @ vals[:, :n2]

    B = np.zeros((n2, nloc))
    B[:, :n0] = (laps[:, :n2] * w[:, None]).T @ vals

    S = np.zeros((nloc, nloc))
    L = legvander(erule.points, k - 1)
    proj_scale = (2.0 * np.arange(k) + 1.0) / 2.0

    tr0, fl0 = n0, n0 + m * k
    for i, (e, sign) in enumerate(ce):
        evals = allvals[nq + i * ne:nq + (i + 1) * ne]
        egrads = allgrads[nq + i * ne:nq + (i + 1) * ne]
        normal = eg.normal[i]
        wphys = erule.weights * (0.5 * eg.length[i])
        tsl = slice(tr0 + i * k, tr0 + (i + 1) * k)
        fsl = slice(fl0 + i * k, fl0 + (i + 1) * k)
        wL = wphys[:, None] * L

        # grad v_0 . n_e; the outward normal is sign * n_e, and the sign
        # flips are exact
        grad_n = egrads[:, :, 0] * normal[0] + egrads[:, :, 1] * normal[1]
        B[:, tsl] -= (sign * grad_n[:, :n2]).T @ wL
        B[:, fsl] += sign * (evals[:, :n2].T @ wL)

        # flux mismatch grad v_0 . n_e - v_n, quadrature in physical arc
        G = np.zeros((len(wphys), nloc))
        G[:, :n0] = grad_n
        G[:, fsl] = -L
        S += (G.T * wphys) @ G / h_cell

        # trace mismatch Q_b v_0 - v_b, exact in Legendre coefficients
        P = np.zeros((k, nloc))
        P[:, :n0] = proj_scale[:, None] * (L.T @ (erule.weights[:, None] * evals))
        P[:, tsl] = -np.eye(k)
        mass_diag = eg.length[i] / (2.0 * np.arange(k) + 1.0)
        S += (P.T * mass_diag) @ P / h_cell ** 3

    D = cho_solve(cho_factor(mass2), B)
    A = B.T @ D
    A = 0.5 * (A + A.T)
    S = 0.5 * (S + S.T)
    return LocalOperators(D, A, S, mass, rule, vals)
