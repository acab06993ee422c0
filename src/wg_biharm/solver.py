"""Linear solvers for the reduced symmetric positive definite system.

Two routes: a sparse direct factorization (config name "cholesky", the
default, sensible up to a few hundred thousand DOFs) and conjugate
gradients with an optional diagonal preconditioner.  Despite its name the
direct route is an LU factorization, SuperLU ``splu`` with COLAMD column
ordering and partial pivoting, not a Cholesky factorization.  Both verify the
solution they return; failure raises SolverError carrying the residual
and, for CG, the iteration count, instead of returning garbage silently.
"""

from __future__ import annotations

import math
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
    method: str = "cholesky"          # "cholesky" (sparse LU) | "cg"
    tolerance: float = 1e-10
    max_iterations: Optional[int] = None  # None -> 50 * sqrt(n)
    preconditioner: str = "diagonal"      # "diagonal" | "none"


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


def solve_linear(matrix, b, config=None):
    """Solve the SPD system ``matrix @ x = b`` per the config."""
    if config is None:
        config = SolverConfig()
    matrix = sp.csr_matrix(matrix)
    b = np.asarray(b, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or b.shape != (n,):
        raise ValueError("matrix/right-hand side shapes do not match")
    if config.max_iterations is not None and config.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not (math.isfinite(config.tolerance) and config.tolerance > 0.0):
        raise ValueError("tolerance must be finite and > 0")

    if config.method == "cholesky":
        try:
            factor = spla.splu(matrix.tocsc())
            x = factor.solve(b)
        except RuntimeError as err:
            raise SolverError(f"direct factorization failed: {err}") from err
        if not np.all(np.isfinite(x)):
            raise SolverError("direct solve produced non-finite values")
        res = _relative_residual(matrix, x, b)
        if res > DIRECT_RESIDUAL_LIMIT:
            raise SolverError(
                f"direct solve residual {res:.3e} exceeds "
                f"{DIRECT_RESIDUAL_LIMIT:.1e}; matrix may not be SPD",
                residual=res)
        return SolveResult(x, "cholesky", res)

    if config.method == "cg":
        maxiter = config.max_iterations
        if maxiter is None:
            maxiter = max(1, math.ceil(50.0 * math.sqrt(n)))
        M = None
        if config.preconditioner == "diagonal":
            d = matrix.diagonal()
            if np.any(d <= 0.0):
                raise SolverError(
                    "diagonal preconditioner needs positive diagonal "
                    "entries; matrix is not SPD")
            M = spla.LinearOperator((n, n),
                                    matvec=lambda v, d=d: v / d)
        elif config.preconditioner != "none":
            raise ValueError(
                f"unknown preconditioner {config.preconditioner!r}")

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

    raise ValueError(f"unknown solver method {config.method!r}")


def solve(system, config=None):
    """Solve a reduced system (anything with .matrix and .rhs)."""
    return solve_linear(system.matrix, system.rhs, config)
