"""Solver route tests: direct and CG agreement, residual verification,
and failure reporting."""

import numpy as np
import pytest
import scipy.sparse as sp

import wg_biharm as wg


def _random_spd(n, seed, cond_boost=0.0):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    A = R.T @ R + (1.0 + cond_boost) * np.eye(n)
    return sp.csr_matrix(A), rng.standard_normal(n)


def test_direct_solves_known_system():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    result = wg.solve_linear(A, np.array([3.0, 3.0]))
    assert result.method == "cholesky"
    assert result.x == pytest.approx([1.0, 1.0], abs=1e-14)
    assert result.residual <= wg.DIRECT_RESIDUAL_LIMIT
    assert result.iterations is None


def test_direct_matches_dense_solver():
    A, b = _random_spd(60, seed=2)
    result = wg.solve_linear(A, b)
    expected = np.linalg.solve(A.toarray(), b)
    assert np.max(np.abs(result.x - expected)) < 1e-8
    assert result.residual < 1e-10


def test_direct_rejects_singular_matrix():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(wg.SolverError):
        wg.solve_linear(A, np.array([1.0, 1.0]))


def test_cg_matches_direct_and_reports_iterations():
    A, b = _random_spd(80, seed=3)
    direct = wg.solve_linear(A, b)
    cg = wg.solve_linear(A, b, wg.SolverConfig(method="cg", tolerance=1e-12))
    assert cg.method == "cg"
    assert cg.iterations is not None and cg.iterations > 0
    assert np.max(np.abs(cg.x - direct.x)) < 1e-9 * max(
        1.0, np.max(np.abs(direct.x)))


def test_cg_without_preconditioner():
    A, b = _random_spd(40, seed=4)
    cfg = wg.SolverConfig(method="cg", tolerance=1e-12, preconditioner="none")
    result = wg.solve_linear(A, b, cfg)
    assert result.residual < 1e-10


def test_cg_nonconvergence_raises_with_diagnostics():
    A, b = _random_spd(120, seed=5)
    cfg = wg.SolverConfig(method="cg", tolerance=1e-14, max_iterations=2)
    with pytest.raises(wg.SolverError) as excinfo:
        wg.solve_linear(A, b, cfg)
    err = excinfo.value
    assert err.iterations == 2
    assert err.residual is not None and err.residual > 1e-14


def test_cg_diagonal_preconditioner_requires_positive_diagonal():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(wg.SolverError, match="diagonal"):
        wg.solve_linear(A, np.ones(2), wg.SolverConfig(method="cg"))


def test_invalid_configuration_rejected():
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError, match="method"):
        wg.solve_linear(A, np.ones(3), wg.SolverConfig(method="lu"))
    with pytest.raises(ValueError, match="preconditioner"):
        wg.solve_linear(A, np.ones(3),
                        wg.SolverConfig(method="cg", preconditioner="ilu"))
    with pytest.raises(ValueError, match="shapes"):
        wg.solve_linear(A, np.ones(4))


@pytest.mark.parametrize("method", ["cg", "cholesky"])
def test_invalid_iteration_settings_rejected_before_solving(method):
    # scipy's cg reports success with maxiter=0 and returns its zero start
    A, b = _random_spd(20, seed=7)
    for bad in (0, -3):
        cfg = wg.SolverConfig(method=method, max_iterations=bad)
        with pytest.raises(ValueError, match="max_iterations"):
            wg.solve_linear(A, b, cfg)
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        cfg = wg.SolverConfig(method=method, tolerance=bad)
        with pytest.raises(ValueError, match="tolerance"):
            wg.solve_linear(A, b, cfg)


def test_solve_wrapper_uses_reduced_system():
    mesh = wg.build_uniform_triangle_mesh(2)
    problem = wg.get_problem("patch-2")
    system = wg.assemble_system(mesh, 2, problem.source)
    reduced = wg.apply_boundary_conditions(system, problem.trace,
                                           problem.normal_flux)
    via_wrapper = wg.solve(reduced)
    direct = wg.solve_linear(reduced.matrix, reduced.rhs)
    assert np.array_equal(via_wrapper.x, direct.x)


def test_zero_rhs_returns_zero():
    A, _ = _random_spd(10, seed=6)
    result = wg.solve_linear(A, np.zeros(10))
    assert np.max(np.abs(result.x)) == 0.0
