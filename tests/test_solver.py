"""Solver route tests: direct and CG agreement, residual verification,
and failure reporting."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import wg_biharm as wg
from conftest import (jittered_triangle_mesh, polygonal_mesh_cells,
                      reference_reduced)
from wg_biharm import assembly, solver
from wg_biharm.weak_laplacian import _cell_values


def _norm(v):
    # a numpy sum, as the solver measures: a BLAS norm's last bit follows
    # the thread count
    return math.sqrt(np.sum(v * v))


def _reduced(mesh, degree):
    problem = wg.get_problem("example2")
    system = wg.assemble_system(mesh, degree, problem.source)
    return wg.apply_boundary_conditions(system, problem.trace,
                                        problem.normal_flux)


def test_direct_solves_known_system():
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    x = np.random.default_rng(1).standard_normal(reduced.rhs.size)
    reduced.rhs = reduced.matrix @ x
    result = wg.solve(reduced, wg.SolverConfig(method="cholesky"))
    assert result.method == "cholesky"
    assert result.iterations is None
    assert np.max(np.abs(result.x - x)) <= 1e-8 * np.max(np.abs(x))
    assert result.residual <= wg.DIRECT_RESIDUAL_LIMIT


def test_direct_matches_dense_solver():
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    result = wg.solve(reduced, wg.SolverConfig(method="cholesky"))
    expected = np.linalg.solve(reduced.matrix.toarray(), reduced.rhs)
    assert result.iterations is None
    assert np.max(np.abs(result.x - expected)) <= 1e-8 * np.max(
        np.abs(expected))
    assert result.residual < 1e-10


def test_direct_rejects_singular_matrix():
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    matrix = reduced.matrix.tolil()
    matrix[0, :] = 0.0
    matrix[:, 0] = 0.0
    reduced.matrix = matrix.tocsr()
    with pytest.raises(wg.SolverError):
        wg.solve(reduced)


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError, match="method"):
        wg.SolverConfig(method="lu")
    reduced = _reduced(wg.build_uniform_quad_mesh(2), 2)
    reduced.rhs = reduced.rhs[:-1]
    with pytest.raises(ValueError, match="shapes"):
        wg.solve(reduced)


@pytest.mark.parametrize("method", ["cg", "cholesky"])
def test_invalid_iteration_settings_rejected_before_solving(method):
    # rejected when the config is built: max_iterations = 0 would reach the
    # CG loop only after assembly and the preconditioner set-up, and fail
    # there as non-convergence
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError, match="max_iterations"):
            wg.SolverConfig(method=method, max_iterations=bad)
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            wg.SolverConfig(method=method, tolerance=bad)


@pytest.mark.parametrize("bad", ["1e-8", None])
def test_a_tolerance_that_is_not_a_number_is_named(bad):
    with pytest.raises(ValueError, match="tolerance"):
        wg.SolverConfig(tolerance=bad)


def _reference(mesh, degree):
    """(reduced system, reference matrix, its right-hand side)."""
    problem = wg.get_problem("example2")
    system = wg.assemble_system(mesh, degree, problem.source)
    reduced = wg.apply_boundary_conditions(system, problem.trace,
                                           problem.normal_flux)
    return (reduced,) + reference_reduced(system, reduced, problem.source)


def _relative_residual(reduced, x):
    scale = _norm(reduced.rhs) or 1.0
    return _norm(reduced.matrix @ x - reduced.rhs) / scale


@pytest.mark.parametrize("method", ["cholesky", "cg"])
@pytest.mark.parametrize("mesh, degree", [
    (wg.build_uniform_triangle_mesh(8), 2),
    (wg.build_uniform_quad_mesh(6), 4),
    (wg.mesh_from_cells(*polygonal_mesh_cells()), 3),
], ids=["tri8-k2", "quad6-k4", "polygons-k3"])
def test_condensed_solve_agrees_with_uncondensed(mesh, degree, method):
    reduced, matrix, rhs = _reference(mesh, degree)
    cfg = wg.SolverConfig(method=method, tolerance=1e-12)
    condensed = wg.solve(reduced, cfg)
    full = solver._spd_factor(matrix).solve(rhs)
    assert condensed.method == method
    assert (condensed.iterations is None) == (method == "cholesky")
    x = reduced.expand(condensed.x)[reduced.free_dofs]
    gap = np.linalg.norm(x - full) / np.linalg.norm(full)
    assert gap <= 1e-8
    assert condensed.residual == _relative_residual(reduced, condensed.x)
    assert condensed.residual <= 1e-12


@pytest.mark.parametrize("degree", [5, 6])
def test_condensed_direct_solve_at_high_degree(degree):
    reduced = _reduced(wg.build_uniform_triangle_mesh(4), degree)
    result = wg.solve(reduced)
    assert result.residual <= 1e-9
    assert _relative_residual(reduced, result.x) <= 1e-9


@pytest.mark.parametrize("n", [8, 16, 32])
def test_two_level_cg_iterations_stay_bounded_under_refinement(n):
    # 9, 13 and 16 iterations; diagonal scaling needed 107, 294 and 561
    reduced = _reduced(wg.build_uniform_quad_mesh(n), 3)
    result = wg.solve(reduced, wg.SolverConfig(method="cg", tolerance=1e-12))
    assert result.iterations <= 25


@pytest.mark.parametrize("build, n, bound", [
    (wg.build_uniform_triangle_mesh, 8, 40),
    (wg.build_uniform_triangle_mesh, 16, 40),
    (wg.build_uniform_triangle_mesh, 32, 40),
    (wg.build_uniform_quad_mesh, 24, 12),
], ids=["tri8", "tri16", "tri32", "quad24"])
def test_two_level_cg_iterations_at_k4(build, n, bound):
    # 26, 22, 22 and 9 iterations with every flux mode the weak Laplacian
    # reads in the coarse space; 197, 258, 288 and 32 with modes 0-1 only
    reduced = _reduced(build(n), 4)
    result = wg.solve(reduced, wg.SolverConfig(method="cg"))
    assert result.iterations <= bound
    assert result.residual <= 1e-10


@pytest.mark.parametrize("degree, bound", [(5, 2e-6), (6, 3e-5)])
def test_cg_converges_at_high_degree_and_agrees_with_direct(degree, bound):
    # measured gaps 1.6e-9 (k = 5) and 2.7e-9 (k = 6) at tolerance 1e-12 in
    # the orthonormal cell basis; the bounds are 10x the gaps first measured
    # in scaled monomials (1.8e-7, 3.0e-6), whose conditioning amplified
    # the residual
    reduced = _reduced(wg.build_uniform_triangle_mesh(8), degree)
    direct = wg.solve(reduced)
    cg = wg.solve(reduced, wg.SolverConfig(method="cg", tolerance=1e-12))
    assert cg.residual <= 1e-12
    gap = np.linalg.norm(cg.x - direct.x) / np.linalg.norm(direct.x)
    assert gap <= bound


def test_cg_solves_a_mesh_without_interior_edges():
    reduced = _reduced(wg.build_uniform_quad_mesh(1), 3)
    direct = wg.solve(reduced)
    cg = wg.solve(reduced, wg.SolverConfig(method="cg"))
    assert cg.iterations == 0
    assert np.array_equal(cg.x, direct.x)


def _dense(apply, n):
    """The matrix of a linear map r -> apply(r) of R^n, column by column."""
    return np.column_stack([apply(column) for column in np.eye(n)])


def _assert_spd(matrix):
    scale = np.abs(matrix).max()
    assert np.abs(matrix - matrix.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0] > 0.0


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_two_level_preconditioner_is_spd(degree):
    reduced = _reduced(wg.build_uniform_triangle_mesh(4), degree)
    schur = reduced.matrix
    _assert_spd(_dense(solver._two_level(schur, reduced.layout),
                       schur.shape[0]))


def test_inverse_cholesky_is_an_exact_lower_triangular_inverse():
    # random SPD blocks and the k = 6 scaled-monomial mass matrices of the
    # x = t^4 graded mesh (aspect up to 4096); the substitution stores
    # exact zeros above the diagonal, where a general inverse left roundoff
    rng = np.random.default_rng(12)
    R = rng.standard_normal((40, 28, 28))
    mesh = _tensor_quads(np.linspace(0.0, 1.0, 17) ** 4,
                         np.linspace(0.0, 1.0, 17))
    _, rule, mono, _, _ = _cell_values(mesh, np.arange(mesh.n_cells), 6, 14)
    blocks = np.concatenate([R @ R.mT + 28.0 * np.eye(28),
                             (mono * rule.weights[..., None]).mT @ mono])
    inv = solver._inverse_cholesky(blocks, "a block")
    assert np.array_equal(inv, np.tril(inv))
    error = inv @ np.linalg.cholesky(blocks) - np.eye(28)
    assert np.max(np.abs(error)) <= 1e-13


@pytest.mark.parametrize("mode", [0, 1], ids=["coarse", "smoother-only"])
def test_indefinite_edge_block_raises_the_smoother_error(mode):
    # k = 2: trace mode 0 is in the coarse space, mode 1 is not; with mode
    # 0 the coarse factor fails too, and the smoother's error still wins
    reduced = _reduced(wg.build_uniform_triangle_mesh(2), 2)
    matrix = reduced.matrix.tolil()
    matrix[mode, mode] = -10.0 * abs(reduced.matrix).max()
    reduced.matrix = matrix.tocsr()
    with pytest.raises(wg.SolverError, match="block-diagonal smoother"):
        wg.solve(reduced, wg.SolverConfig(method="cg"))


def _brick_mesh(n, seed):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from bench import brick_mesh  # the benchmark's jittered brick mesh
    return brick_mesh(n, seed)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("build, width", [
    (lambda: wg.build_uniform_triangle_mesh(4), 3),
    (lambda: wg.build_uniform_quad_mesh(4), 4),
    (lambda: jittered_triangle_mesh(5, 3), 3),
    (lambda: wg.mesh_from_cells(*polygonal_mesh_cells()), 8),
    (lambda: _brick_mesh(6, 2), 6),
], ids=["tri4", "quad4", "jittered", "polygons", "brick6"])
def test_smoother_damping_rests_on_a_bound_that_holds(build, width, degree):
    # the premise of the two-level damping: lambda_max(D^-1 S) <= the most
    # edges of a cell, D the edge blocks of S; measured 2.75-2.96 on tri,
    # 3.26-3.77 on quad, 2.82-2.98 jittered, 2.60-2.95 on the polygons and
    # 3.45-5.17 on the brick mesh at k = 2-5
    reduced = _reduced(build(), degree)
    layout = reduced.layout
    assert layout.cell_edges == width
    s = reduced.matrix.toarray()
    n = s.shape[0]
    # unknown j is trace (j < n / 2) or flux mode j % k of free edge
    # (j mod n / 2) // k
    edge = (np.arange(n) % (n // 2)) // degree
    d = np.where(edge[:, None] == edge, s, 0.0)
    lam = scipy.linalg.eigh(s, d, eigvals_only=True,
                            subset_by_index=[n - 1, n - 1])[0]
    assert lam <= layout.cell_edges


def test_cg_solve_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"{thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    reduced = _reduced(wg.build_uniform_quad_mesh(6), 4)
    result = wg.solve(reduced, wg.SolverConfig(method="cg"))
    assert result.iterations > 0


def test_cg_solves_are_bitwise_repeatable():
    reduced = _reduced(wg.build_uniform_quad_mesh(6), 4)
    cfg = wg.SolverConfig(method="cg")
    first, second = (wg.solve(reduced, cfg) for _ in range(2))
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations
    assert first.residual == second.residual


def test_cg_applies_the_preconditioner_once_per_iteration(monkeypatch):
    build = solver._two_level
    applied = []

    def counting(*args):
        apply = build(*args)

        def counted(r):
            applied.append(None)
            return apply(r)
        return counted

    monkeypatch.setattr(solver, "_two_level", counting)
    reduced = _reduced(wg.build_uniform_quad_mesh(6), 4)
    result = wg.solve(reduced, wg.SolverConfig(method="cg"))
    assert result.iterations > 0
    assert len(applied) == result.iterations


_SOLVE_CHILD = """
import sys
import numpy as np
import wg_biharm as wg
problem = wg.get_problem("example2")
system = wg.assemble_system(wg.build_uniform_triangle_mesh(32), 3,
                            problem.source)
reduced = wg.apply_boundary_conditions(system, problem.trace,
                                       problem.normal_flux)
out = {}
for method in ("cholesky", "cg"):
    result = wg.solve(reduced, wg.SolverConfig(method=method))
    # x, the residual, the iteration count (None on the direct route: 0)
    out[method] = np.append(result.x,
                            [result.residual, result.iterations or 0])
np.savez(sys.argv[1], **out)
"""


def test_solve_does_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product across threads above about 10,000
    # entries; S has 18,048 unknowns at tri n = 32, k = 3.  The residual
    # decides the correction step, so it must agree bitwise too
    src = str(Path(wg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", _SOLVE_CHILD, str(out)],
                       env=env, check=True)
        with np.load(out) as run:
            runs.append(dict(run))
    one, two = runs
    for key in one:
        assert np.array_equal(one[key], two[key]), key


def _spoil_route(monkeypatch, spoil):
    """Pass every answer of the S route through ``spoil(x, call)``; returns
    the iteration counts of the route calls."""
    exact = solver._route
    calls = []

    def spoiling(*args):
        route = exact(*args)

        def spoiled(g):
            x, iterations = route(g)
            calls.append(iterations)
            return spoil(x, len(calls)), iterations
        return spoiled

    monkeypatch.setattr(solver, "_route", spoiling)
    return calls


@pytest.mark.parametrize("method", ["cholesky", "cg"])
def test_inexact_condensed_solve_is_corrected_once(monkeypatch, method):
    # spoil the first route answer; one correction step must repair it
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    calls = _spoil_route(
        monkeypatch, lambda x, call: x * (1.0 + 1e-6) if call == 1 else x)
    result = wg.solve(reduced, wg.SolverConfig(method=method))
    assert len(calls) == 2
    assert result.residual <= 1e-10
    assert result.residual == _relative_residual(reduced, result.x)
    if method == "cg":
        assert result.iterations == sum(calls)


@pytest.mark.parametrize("method", ["cholesky", "cg"])
def test_uncorrectable_solve_raises_after_one_correction(monkeypatch, method):
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    calls = _spoil_route(monkeypatch, lambda x, call: x * (1.0 + 1e-3))
    cfg = wg.SolverConfig(method=method)
    with pytest.raises(wg.SolverError, match="after one correction") as exc:
        wg.solve(reduced, cfg)
    assert len(calls) == 2
    assert exc.value.residual > cfg.tolerance
    if method == "cg":
        assert exc.value.iterations == sum(calls)


def test_non_finite_solution_raises_solver_error(monkeypatch):
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    _spoil_route(monkeypatch, lambda x, call: x * np.nan)
    with pytest.raises(wg.SolverError, match="non-finite"):
        wg.solve(reduced, wg.SolverConfig())


@pytest.mark.parametrize("method", ["cholesky", "cg"])
def test_non_finite_right_hand_side_raises_before_any_route(monkeypatch,
                                                            method):
    # a source that is NaN on half the square: CG would run its whole cap
    # and the direct route factor S before a NaN x could be rejected
    problem = wg.get_problem("example2")
    system = wg.assemble_system(
        wg.build_uniform_quad_mesh(8), 3,
        lambda x, y: np.where(x > 0.5, np.nan, problem.source(x, y)))
    reduced = wg.apply_boundary_conditions(system, problem.trace,
                                           problem.normal_flux)
    routes = []
    monkeypatch.setattr(solver, "_route", lambda *args: routes.append(args))
    with pytest.raises(wg.SolverError, match="right-hand side has non-finite"):
        wg.solve(reduced, wg.SolverConfig(method=method))
    assert routes == []


def test_inexact_direct_factor_fails_the_schur_residual_check(monkeypatch):
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    exact = solver._spd_factor
    monkeypatch.setattr(solver, "_spd_factor", lambda m: exact(2.0 * m))
    with pytest.raises(wg.SolverError, match="may not be SPD") as excinfo:
        wg.solve(reduced)
    assert excinfo.value.residual > wg.DIRECT_RESIDUAL_LIMIT


def test_correction_step_repairs_a_direct_residual_above_the_limit(
        monkeypatch):
    # a factor of (1 + 1e-7) S leaves a residual of 1e-7, above
    # DIRECT_RESIDUAL_LIMIT; one correction step with it leaves 1e-14
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    exact = solver._spd_factor
    factored = []

    def perturbed(matrix):
        factored.append(matrix.shape)
        return exact((1.0 + 1e-7) * matrix)

    monkeypatch.setattr(solver, "_spd_factor", perturbed)
    first = _relative_residual(
        reduced, exact((1.0 + 1e-7) * reduced.matrix).solve(reduced.rhs))
    assert first > wg.DIRECT_RESIDUAL_LIMIT
    result = wg.solve(reduced, wg.SolverConfig(method="cholesky"))
    assert len(factored) == 1
    assert result.residual <= 1e-12
    assert result.residual == _relative_residual(reduced, result.x)


def test_correction_step_reuses_the_direct_factor(monkeypatch):
    # a tolerance no solve meets forces the correction step
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    exact = solver.spla.splu
    factored = []

    def counted(*args, **kwargs):
        factored.append(args[0].shape)
        return exact(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", counted)
    result = wg.solve(reduced, wg.SolverConfig(method="cholesky",
                                               tolerance=1e-30))
    assert len(factored) == 1
    assert result.residual <= wg.DIRECT_RESIDUAL_LIMIT


def test_indefinite_schur_complement_raises_solver_error():
    # interior blocks untouched (positive definite), S made indefinite
    reduced = _reduced(wg.build_uniform_triangle_mesh(2), 2)
    matrix = reduced.matrix.tolil()
    matrix[0, 0] = -10.0 * abs(reduced.matrix).max()
    reduced.matrix = matrix.tocsr()
    with pytest.raises(wg.SolverError, match="SPD"):
        wg.solve(reduced)


def test_zero_rhs_returns_zero():
    reduced = _reduced(wg.build_uniform_quad_mesh(3), 3)
    reduced.rhs = np.zeros_like(reduced.rhs)
    for method in ("cholesky", "cg"):
        result = wg.solve(reduced, wg.SolverConfig(method=method))
        assert np.max(np.abs(result.x)) == 0.0


def test_condensed_cg_nonconvergence_raises_with_diagnostics():
    reduced = _reduced(wg.build_uniform_quad_mesh(4), 3)
    cfg = wg.SolverConfig(method="cg", tolerance=1e-14, max_iterations=2)
    with pytest.raises(wg.SolverError, match="condensed") as excinfo:
        wg.solve(reduced, cfg)
    err = excinfo.value
    assert err.iterations == 2
    assert err.residual is not None and err.residual > 1e-14


def _tensor_quads(xs, ys):
    """Quad mesh of the grid xs x ys, built through ``mesh_from_cells``."""
    vertices = np.column_stack([a.ravel() for a in np.meshgrid(xs, ys)])
    lower_left = (np.arange(ys.size - 1)[:, None] * xs.size
                  + np.arange(xs.size - 1)).ravel()
    return wg.mesh_from_cells(
        vertices, lower_left[:, None] + [0, 1, xs.size + 1, xs.size])


@pytest.mark.parametrize("make, degree, rel", [
    (lambda: wg.build_uniform_triangle_mesh(16), 6, 1e-4),
    (lambda: _tensor_quads(np.linspace(0.0, 1.0, 129),
                           np.linspace(0.0, 1.0, 3)), 5, 1e-6),
    (lambda: _tensor_quads(np.linspace(0.0, 1.0, 17) ** 4,
                           np.linspace(0.0, 1.0, 17)), 4, 1e-6),
], ids=["tri16-k6", "strip128x2-k5", "graded-t4-k4"])
def test_condensed_and_uncondensed_routes_report_the_same_errors(make, degree,
                                                                 rel):
    # In scaled monomials (cell mass matrix condition 1.8e12 on these
    # triangles, above 1e19 on the strip) the routes' H2 and flux L2
    # differed by 4.9e-4 and 8.5e-3 at tri n = 16, k = 6;
    # the aspect-64 strip (k = 5) and the x = t^4 graded mesh (k = 4) raised
    # "not SPD" or a residual above DIRECT_RESIDUAL_LIMIT on one route.
    mesh = make()
    problem = wg.get_problem("example2")
    reduced, matrix, rhs = _reference(mesh, degree)
    condensed = reduced.expand(wg.solve(reduced).x)
    uncondensed = condensed.copy()
    uncondensed[reduced.free_dofs] = solver._spd_factor(matrix).solve(rhs)
    reports = []
    for vec in (condensed, uncondensed):
        field = reduced.layout.vector_to_field(vec)
        reports.append(wg.compute_errors(mesh, degree, field,
                                         problem.solution))
    for column in ("h2_energy", "l2_edge_flux"):
        assert getattr(reports[0], column) == pytest.approx(
            getattr(reports[1], column), rel=rel, abs=0.0)


def test_cg_does_not_depend_on_the_scale_of_the_interior_unknowns(
        monkeypatch):
    # With P = diag(s I, I) over a cell's (interior, edge) DOFs, P A_T P
    # and the load P b_T have the same S_T and condensed right-hand side g,
    # although ||P b|| is ~s ||b||; CG stops at tol * ||g||, so iterations
    # and x_b are unchanged
    mesh = wg.build_uniform_quad_mesh(8)
    cfg = wg.SolverConfig(method="cg")
    base = wg.solve(_reduced(mesh, 3), cfg)
    exact = assembly._batch_operators

    def scaled(mesh, cells, k):
        op = exact(mesh, cells, k)
        p = np.ones(op.stiffness.shape[-1])
        p[:wg.polynomial_space_dim(k)] = 1e4
        return dataclasses.replace(
            op, stiffness=p[:, None] * op.stiffness * p,
            stabilizer=p[:, None] * op.stabilizer * p, values=1e4 * op.values)

    monkeypatch.setattr(assembly, "_batch_operators", scaled)
    result = wg.solve(_reduced(mesh, 3), cfg)
    assert result.iterations == base.iterations
    assert np.linalg.norm(result.x - base.x) <= (
        1e-12 * np.linalg.norm(base.x))
