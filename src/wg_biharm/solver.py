"""Linear solvers for the reduced symmetric positive definite system.

Two routes: a sparse direct factorization (config name "cholesky", the
default, sensible up to a few hundred thousand DOFs) and conjugate
gradients preconditioned by the matrix diagonal.  The direct route is
SuperLU ``splu`` with a symmetric minimum-degree ordering and no pivoting:
LDL^T up to the scaling of U, with a row swap or a pivot <= 0 rejected as
not SPD.  Both verify the solution they return; failure raises SolverError
carrying the residual and, for CG, the iteration count, instead of
returning garbage silently.

``solve`` condenses a reduced WG system before either route runs.  Cell
interior unknowns couple only within their own cell, so the interior block
is block diagonal.  Its blocks are Cholesky factored in one batched call,
both methods solve only the Schur complement on the trace and flux
unknowns, and the interiors are recovered cell by cell.  CG's tolerance is
scaled so that the full system's residual meets it; if the verified full
residual misses the tolerance, one residual-correction step reuses the same
factors.  CG's ``iterations`` and the default ``max_iterations``
(50 sqrt(n)) refer to the condensed system; the reported residual is that
of the full reduced system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be finite and > 0")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    method: str
    residual: float
    iterations: Optional[int] = None


def _relative_residual(matrix, x, b):
    scale = np.linalg.norm(b)
    if scale == 0.0:
        scale = 1.0
    return float(np.linalg.norm(matrix @ x - b) / scale)


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


def _direct_solve(factor, matrix, b):
    x = factor.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite values")
    res = _relative_residual(matrix, x, b)
    if res > DIRECT_RESIDUAL_LIMIT:
        raise SolverError(
            f"direct solve residual {res:.3e} exceeds "
            f"{DIRECT_RESIDUAL_LIMIT:.1e}; matrix may not be SPD",
            residual=res)
    return SolveResult(x, "cholesky", res)


def solve_linear(matrix, b, config=None):
    """Solve the SPD system ``matrix @ x = b`` per the config."""
    if config is None:
        config = SolverConfig()
    matrix = sp.csr_matrix(matrix)
    b = np.asarray(b, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or b.shape != (n,):
        raise ValueError("matrix/right-hand side shapes do not match")

    if config.method == "cholesky":
        return _direct_solve(_spd_factor(matrix), matrix, b)

    maxiter = config.max_iterations
    if maxiter is None:
        maxiter = max(1, math.ceil(50.0 * math.sqrt(n)))
    d = matrix.diagonal()
    if np.any(d <= 0.0):
        raise SolverError("diagonal preconditioner needs positive diagonal "
                          "entries; matrix is not SPD")
    M = spla.LinearOperator((n, n), matvec=lambda v: v / d)

    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = spla.cg(matrix, b, rtol=config.tolerance, atol=0.0,
                      maxiter=maxiter, M=M, callback=count)
    res = _relative_residual(matrix, x, b)
    if info != 0:
        raise SolverError(
            f"conjugate gradients did not converge in {iterations} "
            f"iterations (residual {res:.3e}, target "
            f"{config.tolerance:.1e})",
            residual=res, iterations=iterations)
    return SolveResult(x, "cg", res, iterations)


class _Condensation:
    """Static condensation of the leading block-diagonal interior block.

    With A = [[A_ii, A_ib], [A_bi, A_bb]] and A_ii = L L^T block by block,
    Y = L^-1 A_ib and the Schur complement is S = A_bb - Y^T Y.
    """

    def __init__(self, matrix, n_cells, block):
        m = n_cells * block
        end = matrix.indptr[m]
        rows = np.repeat(np.arange(m), np.diff(matrix.indptr[:m + 1]))
        cols = matrix.indices[:end]
        inner = cols < m
        rows, cols = rows[inner], cols[inner]
        if np.any(rows // block != cols // block):
            raise SolverError("interior unknowns couple across cells; the "
                              "interior block is not block diagonal")
        blocks = np.bincount(rows * block + cols % block,
                             weights=matrix.data[:end][inner],
                             minlength=m * block)
        try:
            chol = np.linalg.cholesky(blocks.reshape(n_cells, block, block))
        except np.linalg.LinAlgError as err:
            raise SolverError("an interior block is not positive "
                              "definite") from err
        if not np.all(np.isfinite(chol)):
            raise SolverError("an interior block is not finite")
        self.m, self.n_cells = m, n_cells
        self.inv = np.linalg.inv(chol)  # L^-1, cell by cell
        inv = sp.bsr_matrix((self.inv, np.arange(n_cells),
                             np.arange(n_cells + 1)), shape=(m, m))
        self.y = (inv @ matrix[:m, m:]).tocsr()
        self.schur = matrix[m:, m:] - self.y.T.tocsr() @ self.y
        self.factor = None  # the direct factor of schur, made once

    def _lower(self, v, transpose=False):
        v = v.reshape(self.n_cells, -1)
        spec = "cji,cj->ci" if transpose else "cij,cj->ci"
        return np.einsum(spec, self.inv, v).ravel()

    def solve(self, rhs, config, scale):
        """Solve A x = rhs through S; CG's tolerance is set so that the
        full residual relative to ``scale`` meets config.tolerance."""
        z = self._lower(rhs[:self.m])
        g = rhs[self.m:] - self.y.T @ z
        norm = np.linalg.norm(g)
        if config.method == "cg" and norm > 0.0:
            config = replace(
                config, tolerance=min(1.0, config.tolerance * scale / norm))
        try:
            if config.method == "cg":
                result = solve_linear(self.schur, g, config)
            else:
                if self.factor is None:
                    self.factor = _spd_factor(self.schur)
                result = _direct_solve(self.factor, self.schur, g)
        except SolverError as err:
            res = err.residual
            if res is not None:  # relative to the full right-hand side
                res *= norm / scale
            raise SolverError(f"condensed trace/flux system: {err}",
                              residual=res, iterations=err.iterations) from err
        x_i = self._lower(z - self.y @ result.x, transpose=True)
        return np.concatenate([x_i, result.x]), result.iterations


def solve(system, config=None):
    """Solve a reduced system by static condensation of its cell
    interiors (anything with .matrix, .rhs and a DofLayout .layout whose
    interior DOFs lead the free DOFs)."""
    if config is None:
        config = SolverConfig()
    matrix = sp.csr_matrix(system.matrix)
    b = np.asarray(system.rhs, dtype=float)
    layout = system.layout
    cond = _Condensation(matrix, layout.n_cells, layout.cell_block)
    scale = np.linalg.norm(b) or 1.0
    x, iterations = cond.solve(b, config, scale)
    res = _relative_residual(matrix, x, b)
    limit = (DIRECT_RESIDUAL_LIMIT if config.method == "cholesky"
             else config.tolerance)
    if res > min(limit, config.tolerance):
        # one residual-correction step with the same factors
        dx, more = cond.solve(b - matrix @ x, config, scale)
        x = x + dx
        res = _relative_residual(matrix, x, b)
        iterations = None if more is None else iterations + more
    if res > limit:
        raise SolverError(
            f"{config.method} solve residual {res:.3e} exceeds {limit:.1e} "
            f"after one correction step", residual=res,
            iterations=iterations)
    return SolveResult(x, config.method, res, iterations)
