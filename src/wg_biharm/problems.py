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
    """u = x^2 (1-x)^2 y^2 (1-y)^2, clamped: on the unit square's boundary
    u and grad u . n vanish."""

    def p(s):
        return s ** 2 * (1.0 - s) ** 2

    def dp(s):
        return 2.0 * s - 6.0 * s ** 2 + 4.0 * s ** 3

    def ddp(s):
        return 2.0 - 12.0 * s + 12.0 * s ** 2

    def u(x, y):
        return p(x) * p(y)

    def grad(x, y):
        return dp(x) * p(y), p(x) * dp(y)

    def lap(x, y):
        return ddp(x) * p(y) + p(x) * ddp(y)

    def f(x, y):
        # ddddp = 24, dddp terms pair up through the mixed derivative
        return 24.0 * p(y) + 2.0 * ddp(x) * ddp(y) + 24.0 * p(x)

    return _manufactured("example1", ScalarField(u, grad, lap), f)


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
    if not isinstance(degree, numbers.Integral) or degree < 0:
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
