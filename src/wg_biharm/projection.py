"""L2 projections onto cell and edge polynomial spaces.

The discrete unknown of the method is a triple of coefficient blocks: an
interior polynomial of degree k per cell, and per edge a trace polynomial
and a normal-flux polynomial of degree k - 1, the flux taken against the
edge's global normal.  ``project_field`` maps a smooth scalar field onto
such a triple by L2 projection blockwise, with the element's rules
(``basis_quadrature.quadrature_exactness``), its edge blocks by the one
helper the error report and the boundary data use; ``project_cell`` and
``project_edge`` project onto any degree d, with rules exact to 2d + 2 and
2d + 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis_quadrature import (_legendre_edge, polynomial_space_dim,
                               quadrature_exactness)
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

    interior: (n_cells, dim P_k) scaled monomial coefficients
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

    Returns scaled monomial coefficients, from a cell rule exact to
    2*degree + 2.

    The coefficients solve the normal equations M c = V^T W f with the
    mass matrix M = V^T W V (V the basis values and W the weights at the
    quadrature points).  Their rounding error grows like cond(M) * eps, and
    cond(M) of the scaled monomials grows about 50x per degree; one step of
    residual correction, c += M^-1 V^T W (f - V c), takes most of it back.
    QR of sqrt(W) V is not an option: the vertex fan gives negative weights
    on non-convex cells, jittered brick hexagons included.
    """
    _, rule, vals, mass = _cell_values(mesh, cell, degree, 2 * degree + 2)
    return _project_on_rule(rule, vals, mass, f)


def _project_on_rule(rule, vals, mass, f):
    """``project_cell`` from the basis values ``vals`` at the points of the
    cell rule and their mass matrix ``mass``, one cell or a batch with a
    leading cell axis."""
    wv = (vals * rule.weights[..., None]).mT
    fvals = evaluate_at(f, rule.points)[..., None]
    coeffs = np.linalg.solve(mass, wv @ fvals)
    coeffs += np.linalg.solve(mass, wv @ (fvals - vals @ coeffs))
    return coeffs[..., 0]


def project_edge(mesh, edge, f, degree):
    """L2 projection of ``f`` onto P_degree of one edge, or of each edge of
    an index array of edges (one row of coefficients per edge).

    Returns Legendre coefficients in the edge parameter, from an edge rule
    exact to 2*degree + 3; the Legendre orthogonality makes the mass matrix
    diagonal, so no solve is needed.
    """
    rule, _, Q, _ = _legendre_edge(degree, 2 * degree + 3)
    pts = edge_points(mesh, np.asarray(edge)[..., None], rule.points)
    return evaluate_at(f, pts) @ Q.T


def project_field(mesh, degree, field):
    """Blockwise L2 projection of a smooth field onto the discrete space.

    Needs ``field.gradient`` for the flux block.  It uses the element's
    rules, ``quadrature_exactness(degree)``, as the error report and the
    boundary data do, so both see this projection as exact.
    """
    trace, flux = _edge_data(mesh, np.arange(mesh.n_edges), degree,
                             field.value, _normal_derivative(field))
    interior = np.empty((mesh.n_cells, polynomial_space_dim(degree)))
    for cells in cell_batches(mesh, degree):
        interior[cells] = project_cell(mesh, cells, field.value, degree)
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
    array of edges: Legendre projections, with the element's edge rule, of
    g(x, y) and of phi(x, y, nx, ny) against each edge's global normal."""
    rule, _, Q, _ = _legendre_edge(degree - 1,
                                   quadrature_exactness(degree)[1])
    pts = edge_points(mesh, edges[:, None], rule.points)
    nx, ny = mesh.edge_normals[edges].T[..., None]
    return [evaluate_at(f, pts) @ Q.T
            for f in (trace, lambda x, y: flux(x, y, nx, ny))]
