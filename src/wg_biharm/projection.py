"""L2 projections onto cell and edge polynomial spaces.

The discrete unknown of the method is a triple of coefficient blocks: an
interior polynomial of degree k per cell, and per edge a trace polynomial
and a normal-flux polynomial of degree k - 1, the flux taken against the
edge's global normal.  ``project_field`` maps a smooth scalar field onto
such a triple by L2 projection blockwise.  ``project_cell`` and
``project_edge`` project onto any degree d with rules exact to 2d + 2 and
2d + 5, the element's at d = k and k - 1, so they are the projections of
``project_field``, the error report and the boundary data; cell
coefficients are in each cell's orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis_quadrature import (QuadratureRule, _legendre_edge,
                               polynomial_space_dim, quadrature_exactness)
from .mesh import edge_points
from .weak_laplacian import _cell_values, cell_batches


@dataclass(frozen=True)
class ScalarField:
    """A scalar field with optional derivatives.

    ``value(x, y)`` must broadcast over numpy arrays; ``gradient(x, y)``
    returns a pair of arrays, ``laplacian(x, y)`` an array.
    """

    value: Callable
    gradient: Optional[Callable] = None
    laplacian: Optional[Callable] = None


def evaluate_at(fn, points):
    """Evaluate a broadcastable callable at (..., n, 2) points."""
    points = np.atleast_2d(points)
    x, y = points[..., 0], points[..., 1]
    out = np.asarray(fn(x, y), dtype=float)
    if out.shape != x.shape:
        out = np.broadcast_to(out, x.shape)
    return out


@dataclass
class WgField:
    """Coefficient blocks of one discrete weak function.

    interior: (n_cells, dim P_k) coefficients in the cells' orthonormal bases
    trace:    (n_edges, k) Legendre coefficients of the edge trace
    flux:     (n_edges, k) Legendre coefficients of the normal flux
              against the edge's global normal
    """

    degree: int
    interior: np.ndarray
    trace: np.ndarray
    flux: np.ndarray

    @classmethod
    def zeros(cls, mesh, degree):
        return cls(degree,
                   np.zeros((mesh.n_cells, polynomial_space_dim(degree))),
                   np.zeros((mesh.n_edges, degree)),
                   np.zeros((mesh.n_edges, degree)))

    def copy(self):
        return WgField(self.degree, self.interior.copy(),
                       self.trace.copy(), self.flux.copy())


def project_cell(mesh, cell, f, degree):
    """L2 projection of ``f`` onto P_degree of one cell, or of each of an
    index array of c cells with one vertex count, where ``f`` sees (c, n)
    point arrays instead of 1-D ones and one row per cell is returned.

    Returns coefficients in the cell's orthonormal basis, from a cell rule
    exact to 2*degree + 2.
    """
    _, rule, _, vals, _ = _cell_values(mesh, cell, degree, 2 * degree + 2)
    return _project_on_rule(rule, vals, f)


def _project_on_rule(rule, vals, f):
    """``project_cell`` from the orthonormal basis values ``vals`` at the
    points of the cell rule: V^T W f; one cell or a batch with a leading
    cell axis."""
    fvals = evaluate_at(f, rule.points)[..., None]
    return ((vals * rule.weights[..., None]).mT @ fvals)[..., 0]


def _project_cells(mesh, cells, which, rule, vals, f):
    """``_project_on_rule`` on each of an index array of cells from the
    rules and values of their shapes' representatives, rows ``which``: the
    representative's rule moved onto the cell.  Also the load's moments
    (f, phi_j)."""
    moved = QuadratureRule(rule.points[which]
                           + mesh.cell_shifts(cells)[:, None],
                           rule.weights[which])
    return _project_on_rule(moved, vals[which], f)


def project_edge(mesh, edge, f, degree):
    """L2 projection of ``f`` onto P_degree of one edge, or of each edge of
    an index array of edges (one row of coefficients per edge).

    Returns Legendre coefficients in the edge parameter, from an edge rule
    exact to 2*degree + 5, the element's at degree k - 1; the Legendre
    orthogonality makes the mass matrix diagonal, so no solve is needed.
    """
    rule, _, Q, _ = _legendre_edge(degree, 2 * degree + 5)
    pts = edge_points(mesh, np.asarray(edge)[..., None], rule.points)
    return evaluate_at(f, pts) @ Q.T


def project_field(mesh, degree, field):
    """Blockwise L2 projection of a smooth field onto the discrete space,
    with the element's rules; needs ``field.gradient`` for the flux block.
    """
    trace, flux = _edge_data(mesh, np.arange(mesh.n_edges), degree,
                             field.value, _normal_derivative(field))
    interior = np.empty((mesh.n_cells, polynomial_space_dim(degree)))
    exactness = quadrature_exactness(degree)[0]
    for reps, cells, which in cell_batches(mesh, degree):
        _, rule, _, vals, _ = _cell_values(mesh, reps, degree, exactness)
        interior[cells] = _project_cells(mesh, cells, which, rule, vals,
                                         field.value)
    return WgField(degree, interior, trace, flux)


def _normal_derivative(field):
    """phi(x, y, nx, ny) = grad f . n of a field with a gradient."""
    if field.gradient is None:
        raise ValueError("the normal derivative needs the field gradient")

    def phi(x, y, nx, ny):
        gx, gy = field.gradient(x, y)
        return gx * nx + gy * ny
    return phi


def _edge_data(mesh, edges, degree, trace, flux):
    """(trace, flux) blocks of the degree-``degree`` element on an index
    array of edges: ``project_edge`` of g(x, y) and of phi(x, y, nx, ny)
    against each edge's global normal."""
    nx, ny = mesh.edge_normals[edges].T[..., None]
    return [project_edge(mesh, edges, f, degree - 1)
            for f in (trace, lambda x, y: flux(x, y, nx, ny))]
