"""Polynomial bases, quadrature rules and the element's quadrature policy,
``quadrature_exactness``: the cell and edge rules are a function of k.

Cell spaces use scaled monomials ((x - x_T)/h_T)^a ((y - y_T)/h_T)^b,
a + b <= degree, ordered by total degree; the basis of a lower degree is
therefore a prefix of the basis of a higher one, as in the orthonormal
basis made of them (``weak_laplacian._cell_values``).  Gradients and Laplacians
are read off the values: a monomial's derivative is a multiple of a lower
monomial, located through index tables cached per degree.  Edge spaces use
Legendre polynomials in the arc parameter t in [-1, 1] of the edge's stored
orientation, so the edge mass matrix is diagonal with entries h_e / (2j + 1);
``_legendre_edge`` holds that convention, with the modes' values at the
points of an edge rule and the projector onto them, for every layer.

Cell integration applies a Duffy-transformed tensor Gauss rule on each of
the m - 2 fan triangles (v_0, v_i, v_{i+1}) of an m-gon.  Fan Jacobians
keep their sign and the signed triangles sum to the polygon, so every
simple polygon integrates exactly (Sommariva and Vianello, BIT 2007).
Weights are negative on clockwise fan triangles, which only non-convex
cells have, and zero on fan triangles of zero area.

The reference rules (Gauss-Legendre on [-1, 1] and the Duffy rule on the
unit triangle) are built once per exactness and cached; their arrays are
read-only because every caller shares them.  Rules mapped to a physical
polygon are fresh arrays; ``mesh.edge_points`` maps edge rules onto edges.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander


def polynomial_space_dim(degree):
    """Dimension of P_degree in two variables; 0 for negative degree."""
    if degree < 0:
        return 0
    return (degree + 1) * (degree + 2) // 2


def monomial_exponents(degree):
    """(dim, 2) exponent pairs (a, b) ordered by total degree, then by
    descending a within a degree."""
    out = [(d - i, i) for d in range(degree + 1) for i in range(d + 1)]
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def quadrature_exactness(k):
    """(cell, edge) exactness of the degree-k element's rules, 2k + 2 and
    2k + 3: above the 2k of the P_k mass matrix and the 2k - 1 of the trace
    projection Q_b of P_k.  Raises ValueError unless k is an integer
    >= 2."""
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"the element degree must be an integer, got {k!r}")
    if k < 2:
        raise ValueError("the element requires k >= 2")
    return 2 * k + 2, 2 * k + 3


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights of one rule, or of a stack of rules on leading
    axes."""

    points: np.ndarray
    weights: np.ndarray

    def integrate(self, values):
        return float(np.sum(self.weights * values))


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def edge_quadrature(exactness):
    """Gauss-Legendre rule on [-1, 1] exact for the given degree.

    The rule is cached per exactness and its arrays are read-only.
    """
    if exactness < 0:
        raise ValueError("exactness must be >= 0")
    return QuadratureRule(*_read_only(*leggauss((exactness + 2) // 2)))


@lru_cache(maxsize=64)
def _legendre_edge(degree, exactness):
    """P_degree on an edge in Legendre coefficients, at the points t of the
    Gauss rule of the given exactness: that rule, and read-only values
    V (n, degree + 1), the L2 projector Q = diag(j + 1/2) V^T diag(w) from
    values at t to coefficients, and 2j + 1, which divides h_e in the
    diagonal edge mass h_e / (2j + 1).  Q is exact on P_(exactness - degree).
    """
    rule = edge_quadrature(exactness)
    V = legvander(rule.points, degree)
    j = np.arange(degree + 1)
    return (rule,) + _read_only(
        V, (j[:, None] + 0.5) * (V.T * rule.weights), 2.0 * j + 1.0)


@lru_cache(maxsize=64)
def _duffy_rule(exactness):
    # Tensor Gauss on the unit square mapped onto the reference triangle
    # (0,0)-(1,0)-(0,1) by (s, t) -> (s(1-t), st); the Jacobian s raises the
    # s-degree by one, hence the point count below.  Cached, read-only.
    m = (exactness + 3) // 2
    g, w = leggauss(m)
    g01 = 0.5 * (g + 1.0)
    w01 = 0.5 * w
    s, t = np.meshgrid(g01, g01, indexing="ij")
    ws, wt = np.meshgrid(w01, w01, indexing="ij")
    x = (s * (1.0 - t)).ravel()
    y = (s * t).ravel()
    w2 = (ws * wt * s).ravel()
    return _read_only(np.column_stack([x, y]), w2)


def polygon_quadrature(vertices, exactness):
    """Rule over a simple m-gon from Duffy rules on its m - 2 fan triangles
    (v_0, v_i, v_{i+1}), with signed weights summing to its area; vertices
    (..., m, 2) with leading axes give a rule per polygon on those axes."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[-2] < 3:
        raise ValueError("polygon needs at least 3 vertices")
    # All fan triangles at once, triangle by triangle: points p0 + a d1 +
    # b d2, weights ref_w (d1 x d2), negative on a clockwise triangle.
    ref_pts, ref_w = _duffy_rule(exactness)
    p0 = vertices[..., :1, None, :]
    d1 = vertices[..., 1:-1, None, :] - p0
    d2 = vertices[..., 2:, None, :] - p0
    pts = (p0 + ref_pts[:, 0:1] * d1) + ref_pts[:, 1:2] * d2
    det = d1[..., 0, 0] * d2[..., 0, 1] - d1[..., 0, 1] * d2[..., 0, 0]
    w = ref_w * det[..., None]
    return QuadratureRule(pts.reshape(*w.shape[:-2], -1, 2),
                          w.reshape(*w.shape[:-2], -1))


@lru_cache(maxsize=16)
def _lowering(degree):
    """Read-only exponents a, b of the monomials of P_degree, then the basis
    positions of x^(a-1) y^b, x^a y^(b-1), x^(a-2) y^b and x^a y^(b-2),
    exponents clipped at zero where the derivative's factor vanishes."""
    a, b = monomial_exponents(degree).T
    low = [(np.maximum(a - i, 0), np.maximum(b - j, 0))
           for i, j in ((1, 0), (0, 1), (2, 0), (0, 2))]
    return _read_only(a, b, *((x + y) * (x + y + 1) // 2 + y for x, y in low))


@dataclass(frozen=True)
class CellBasis:
    """Scaled monomial basis of P_degree on one cell, or on a stack of
    cells with centers (..., 2) and scales (...)."""

    degree: int
    center: np.ndarray
    scale: float

    @property
    def dimension(self):
        return polynomial_space_dim(self.degree)

    @property
    def _h(self):
        return np.asarray(self.scale, dtype=float)[..., None, None]

    def evaluate(self, points, derivatives=True):
        """Values, gradients and Laplacians at the given (n, 2) points.

        Returns (values (n, dim), gradients (n, dim, 2), laplacians
        (n, dim)), or the values alone if not ``derivatives``.  A stack of
        bases evaluates each on its own points (..., n, 2), and every output
        gains the same leading axes.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        XY = (points - np.asarray(self.center)[..., None, :]) / self._h
        a, b = _lowering(self.degree)[:2]

        # P[..., i, j] = XY[..., i] ** j as a running product
        P = np.empty(XY.shape + (self.degree + 1,))
        P[..., 0] = 1.0
        for j in range(self.degree):
            np.multiply(P[..., j], XY, out=P[..., j + 1])
        vals = P[..., 0, a] * P[..., 1, b]
        if not derivatives:
            return vals
        return vals, self.gradients(vals), self.laplacians(vals)

    # A monomial's derivatives are multiples of lower monomials, so they are
    # read off the values (..., n, dim), the products being the same ones.
    def gradients(self, vals, direction=None):
        """Gradients (..., n, dim, 2), or derivatives along (..., n, 2)."""
        a, b, a1, b1 = _lowering(self.degree)[:4]
        gx, gy = (a / self._h) * vals[..., a1], (b / self._h) * vals[..., b1]
        if direction is None:
            return np.stack([gx, gy], axis=-1)
        return gx * direction[..., None, 0] + gy * direction[..., None, 1]

    def laplacians(self, vals):
        """Laplacians (..., n, dim) of the basis."""
        a, b, _, _, a2, b2 = _lowering(self.degree)
        return ((a * (a - 1) / self._h ** 2) * vals[..., a2]
                + (b * (b - 1) / self._h ** 2) * vals[..., b2])

    @classmethod
    def for_cell(cls, geom, degree):
        """Basis centered at the cell centroid, scaled by the diameter."""
        return cls(degree, geom.centroid, geom.diameter)

