"""Linear solvers for the condensed symmetric positive definite system.

Assembly eliminates the cell interiors cell by cell (``assembly``), so a
reduced WG system is the trace/flux matrix S and its right-hand side g.
``solve`` solves it by the route the config names, chosen once per solve,
and alone measures and judges the relative residual ||S x - g|| / ||g||:
above min(limit, tolerance), the limit ``DIRECT_RESIDUAL_LIMIT`` for the
direct route and the tolerance for CG, it takes one residual-correction
step with the same factors, and above the limit after that it raises.
One helper (``_inverse_cholesky``) forms L^-1 for any stack of SPD
blocks: the interior blocks, the cell mass matrices and the smoother's.

"cholesky" (the default, sensible up to a few hundred thousand DOFs) is
SuperLU ``splu`` with a symmetric minimum-degree ordering and no pivoting:
LDL^T up to the scaling of U, with a row swap or a pivot <= 0 rejected as
not SPD.  "cg" is preconditioned conjugate gradients on S x_b = g from
zero, stopped at the top of an iteration once ||r|| < ``tolerance *
||g||`` (S and g do not depend on the interior basis).  Its
``iterations`` and the default ``max_iterations`` (50 sqrt(n)) refer to S.
Once per iteration it applies symmetric multiplicative two-level Schwarz
(Pavarino; Brenner): a damped block-Jacobi smoother whose blocks are each
edge's trace and flux modes, and an exact coarse solve, selected by column
and factored once like the direct route, on every edge's Legendre trace
modes < 2 (< 1 for k = 2) and flux modes < k - 1, the flux modes the weak
Laplacian reads.  Its damping is 3 / (2m), m the most edges of a cell, a
proven bound on lambda_max(D^-1 S) (``_two_level``; Toselli and Widlund).
A right-hand side that is not finite raises SolverError before any
factor is built; failure raises SolverError carrying the residual,
relative to g, and, for CG, the iteration count, instead of returning
garbage silently.  Every inner product and norm (``_norm``) is
a numpy sum, never a BLAS reduction, whose order of terms follows the
thread count: x, the reported residual and the correction decision are
the same on any number of BLAS threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DIRECT_RESIDUAL_LIMIT = 1e-9


class SolverError(RuntimeError):
    """Solve failed; carries the last relative residual and iterations."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    method: str = "cholesky"          # "cholesky" (sparse LDL^T) | "cg"
    tolerance: float = 1e-10
    max_iterations: Optional[int] = None  # None -> 50 * sqrt(n)

    def __post_init__(self):
        if self.method not in ("cholesky", "cg"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if not isinstance(self.tolerance, numbers.Real) or isinstance(
                self.tolerance, bool) or not (
                math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be a finite number > 0")
        if self.max_iterations is not None and not (
                isinstance(self.max_iterations, numbers.Integral)
                and not isinstance(self.max_iterations, bool)
                and self.max_iterations >= 1):
            raise ValueError("max_iterations must be an integer >= 1")


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    method: str
    residual: float
    iterations: Optional[int] = None


def _norm(v):
    """The Euclidean norm of v as a numpy sum."""
    return math.sqrt(np.sum(v * v))


def _relative_residual(matrix, x, b):
    return _norm(matrix @ x - b) / (_norm(b) or 1.0)


def _spd_factor(matrix):
    """LDL^T (up to U's scaling) of an SPD matrix by SuperLU without
    pivoting; a row swap or a pivot <= 0 means the matrix is not SPD."""
    try:
        factor = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
    except RuntimeError as err:
        raise SolverError(f"direct factorization failed: {err}") from err
    if not (np.array_equal(factor.perm_r, factor.perm_c)
            and np.all(factor.U.diagonal() > 0.0)):
        raise SolverError("direct factorization found a pivot that is not "
                          "positive; matrix is not SPD")
    return factor


def _inverse_cholesky(blocks, name):
    """L^-1 of every block of a stack of SPD blocks L L^T, by forward
    substitution row by row over the whole stack, exact zeros above the
    diagonal; a block that is not positive definite or not finite raises
    SolverError with ``name``."""
    try:
        chol = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"{name} is not positive definite; matrix is "
                          f"not SPD") from err
    if not np.all(np.isfinite(chol)):
        raise SolverError(f"{name} is not finite")
    n = chol.shape[-1]
    inv = np.zeros_like(chol)
    diag = chol.diagonal(0, -2, -1)
    inv[..., np.arange(n), np.arange(n)] = 1.0 / diag
    neg = -diag[..., None, None]
    for i in range(1, n):
        # row i of L X = I: X[i, :i] = -L[i, :i] X[:i, :i] / L[i, i]
        inv[..., i:i + 1, :i] = (chol[..., i:i + 1, :i] @ inv[..., :i, :i]
                                 / neg[..., i, :, :])
    return inv


def _two_level(schur, layout):
    """Two-level preconditioner r -> M r of S, symmetric multiplicative: a
    damped block-Jacobi pre-smooth, an exact coarse correction, a post-smooth.

    S holds every free edge's k = ``layout.edge_block`` Legendre trace
    modes, then every free edge's k flux modes; a block is one edge's trace
    and flux modes and the coarse space is trace modes < 2 (< 1 for k = 2)
    and flux modes < k - 1.  M is SPD while w lambda_max(D^-1 S) < 2, D the
    blocks.  S is a sum of semidefinite S_T, each on at most m =
    ``layout.cell_edges`` blocks x_e, so by Cauchy-Schwarz x^T S_T x <= m
    sum_e x_e^T (S_T)_ee x_e and lambda_max(D^-1 S) <= m: w = 3 / (2m)
    gives w lambda_max <= 3/2 by proof."""
    n = schur.shape[0]
    if n == 0:  # every edge is on the boundary
        return np.ravel
    k, j = layout.edge_block, np.arange(n)
    blocks = j.reshape(2, -1, k).transpose(1, 0, 2).reshape(-1, 2 * k)
    # flux modes < k - 1: those the weak Laplacian reads (its flux mask)
    coarse = j[j % k < np.where(j < n // 2, min(2, k - 1), k - 1)]

    # the smoother first, so that its error is raised before the coarse one
    diag = schur[np.repeat(blocks, 2 * k, axis=1).ravel(),
                 np.tile(blocks, 2 * k).ravel()]
    inv = _inverse_cholesky(np.asarray(diag).reshape(-1, 2 * k, 2 * k),
                            "a diagonal block of the block-diagonal smoother")
    factor = _spd_factor(schur[coarse][:, coarse])
    # not 1 / m: a weaker smoother stops CG closer to its tolerance
    omega = 1.5 / layout.cell_edges

    def jacobi(r):
        """D^-1 r, block by block."""
        out = np.empty(n)
        out[blocks] = np.einsum("cji,cj->ci", inv,
                                np.einsum("cij,cj->ci", inv, r[blocks]))
        return out

    def apply(r):
        x = omega * jacobi(r)
        x[coarse] += factor.solve((r - schur @ x)[coarse])
        return x + omega * jacobi(r - schur @ x)
    return apply


def _route(schur, config, scale, layout):
    """route(g) -> (x, iterations) solves S x = g by the configured method."""
    if config.method == "cholesky":
        factor = _spd_factor(schur)
        return lambda g: (factor.solve(g), None)

    n = schur.shape[0]
    maxiter = config.max_iterations or max(1, math.ceil(50.0 * math.sqrt(n)))
    precondition = _two_level(schur, layout)

    def cg(g):
        x, r, p, rho = np.zeros(n), g.copy(), np.zeros(n), 1.0
        for iteration in range(maxiter):
            if _norm(r) < config.tolerance * scale:
                return x, iteration
            z = precondition(r)
            rho, previous = np.sum(r * z), rho
            p = z + (rho / previous) * p
            q = schur @ p
            alpha = rho / np.sum(p * q)
            x += alpha * p
            r -= alpha * q
        res = _norm(schur @ x - g) / scale
        raise SolverError(
            f"conjugate gradients on the condensed system did not converge "
            f"in {maxiter} iterations (residual {res:.3e}, target "
            f"{config.tolerance:.1e})", residual=res, iterations=maxiter)
    return cg


def solve(system, config=None):
    """Solve a reduced system, S and its right-hand side (anything with
    .matrix, .rhs and a DofLayout .layout), verified and corrected at most
    once: x holds the free edge DOFs, which ``ReducedSystem.expand``
    completes.  CG's damping assumes S is a sum of semidefinite cell
    matrices, each on at most ``layout.cell_edges`` edges."""
    config = config or SolverConfig()
    matrix = sp.csr_matrix(system.matrix)
    b = np.asarray(system.rhs, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or b.shape != (n,):
        raise ValueError("matrix/right-hand side shapes do not match")
    if not np.all(np.isfinite(b)):
        raise SolverError("the right-hand side has non-finite values")
    direct = config.method == "cholesky"
    limit = DIRECT_RESIDUAL_LIMIT if direct else config.tolerance
    route = _route(matrix, config, _norm(b) or 1.0, system.layout)
    x, iterations = route(b)
    res = _relative_residual(matrix, x, b)
    if res > min(limit, config.tolerance):
        dx, more = route(b - matrix @ x)
        x = x + dx
        res = _relative_residual(matrix, x, b)
        iterations = None if more is None else iterations + more
    if not np.all(np.isfinite(x)):
        raise SolverError("solve produced non-finite values")
    if res > limit:
        raise SolverError(
            f"{config.method} solve residual {res:.3e} exceeds {limit:.1e} "
            f"after one correction step"
            + ("; matrix may not be SPD" if direct else ""), residual=res,
            iterations=iterations)
    return SolveResult(x, config.method, res, iterations)
