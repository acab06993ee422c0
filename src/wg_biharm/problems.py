"""Manufactured solutions of the clamped plate problem.

A problem is its exact solution (with gradient and Laplacian) and its
source f = Delta^2 u.  The built-in problems take their boundary data from
the solution, so the data hold on any domain: the trace g = u and the
normal derivative phi = grad u . n, the latter as a callable
``phi(x, y, nx, ny)`` evaluated against a caller-supplied outward normal.
A custom ``Problem`` supplies its own ``trace`` and ``normal_flux``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .projection import ScalarField, _normal_derivative


@dataclass(frozen=True)
class Problem:
    name: str
    solution: ScalarField
    source: Callable
    trace: Callable
    normal_flux: Callable


def _manufactured(name, solution, source):
    """The problem whose boundary data are the solution's trace and normal
    derivative."""
    return Problem(name, solution, source, solution.value,
                   _normal_derivative(solution))


def example_1():
    """u = p(x) p(y) with p(s) = s^2 (1-s)^2, clamped: on the unit square's
    boundary u and grad u . n vanish."""
    p = P.polymul(P.polypow([0.0, 1.0], 2), P.polypow([1.0, -1.0], 2))

    def derivative(m):
        """s -> the m-th derivative of p at s."""
        c = P.polyder(p, m)
        return lambda s: P.polyval(s, c)

    p0, p1, p2, p4 = map(derivative, (0, 1, 2, 4))
    return _manufactured(
        "example1",
        ScalarField(lambda x, y: p0(x) * p0(y),
                    lambda x, y: (p1(x) * p0(y), p0(x) * p1(y)),
                    lambda x, y: p2(x) * p0(y) + p0(x) * p2(y)),
        lambda x, y: p4(x) * p0(y) + 2.0 * p2(x) * p2(y) + p0(x) * p4(y))


def example_2():
    """u = sin(pi x) sin(pi y): on the unit square's boundary u vanishes
    and grad u . n does not."""
    pi = np.pi

    def u(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def grad(x, y):
        return (pi * np.cos(pi * x) * np.sin(pi * y),
                pi * np.sin(pi * x) * np.cos(pi * y))

    def lap(x, y):
        return -2.0 * pi ** 2 * u(x, y)

    def f(x, y):
        return 4.0 * pi ** 4 * u(x, y)

    return _manufactured("example2", ScalarField(u, grad, lap), f)


def polynomial_patch(degree):
    """u = sum of every monomial x^a y^b with a + b <= degree, unit
    coefficients.  Any scheme exact on P_degree must reproduce its
    projection to roundoff."""
    if (not isinstance(degree, numbers.Integral) or isinstance(degree, bool)
            or degree < 0):
        raise ValueError(
            f"the patch degree must be an integer >= 0, got {degree!r}")
    a, b = np.indices((degree + 1, degree + 1))
    coeffs = (a + b <= degree).astype(float)  # coeffs[a, b] of x^a y^b

    def der(ax, ay):
        return P.polyder(P.polyder(coeffs, ax, axis=0), ay, axis=1)

    def at(*terms):
        """The sum of the polynomials with coefficient matrices ``terms``."""
        return lambda x, y: sum(P.polyval2d(*np.broadcast_arrays(x, y), c)
                                for c in terms)

    ux, uy = at(der(1, 0)), at(der(0, 1))
    return _manufactured(
        f"patch-{degree}",
        ScalarField(at(coeffs), lambda x, y: (ux(x, y), uy(x, y)),
                    at(der(2, 0), der(0, 2))),
        at(der(4, 0), 2.0 * der(2, 2), der(0, 4)))


def get_problem(name):
    """Look up a problem by CLI id: example1, example2 or patch-<k>."""
    if name == "example1":
        return example_1()
    if name == "example2":
        return example_2()
    if name.startswith("patch-"):
        try:
            return polynomial_patch(int(name.split("-", 1)[1]))
        except ValueError:
            pass
    raise ValueError(
        f"unknown problem {name!r}; expected example1, example2 or patch-<k>")
