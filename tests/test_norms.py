"""Energy norm and error report tests.

The energy norm is computed by direct quadrature of the three residuals,
independently of the assembled matrices, so energy(v)^2 = v^T A v is a
genuine dual-route consistency check.  The error report takes its H2 and
L2 columns from the local matrices instead; energy_norm and direct cell
quadrature check them.
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

import wg_biharm as wg
from conftest import (monomial_field, polygonal_mesh_cells, random_quad_cell,
                      random_triangle_cell, random_wg_field, reference_matrix,
                      reference_reduced)


def test_zero_field_has_zero_norms():
    mesh = wg.build_uniform_triangle_mesh(2)
    field = wg.WgField.zeros(mesh, 2)
    assert wg.energy_norm(mesh, 2, field) == 0.0
    report = wg.compute_errors(mesh, 2, field, monomial_field(0, 0))
    # u = 1 projected exactly: errors are the projection itself
    assert report.l2_interior == pytest.approx(1.0, rel=1e-13)


def test_a_field_of_another_mesh_or_degree_is_rejected():
    # the n = 4 mesh's loops read an n = 5 field without a numpy error
    rng = np.random.default_rng(29)
    mesh = wg.build_uniform_quad_mesh(4)
    exact = monomial_field(0, 0)
    other = random_wg_field(wg.build_uniform_quad_mesh(5), 3, rng)
    low = random_wg_field(mesh, 2, rng)
    field = random_wg_field(mesh, 3, rng)
    short = wg.WgField(3, field.interior, field.trace, field.flux[:, :-1])
    for bad, block in ((other, "interior"), (low, "interior"),
                       (short, "flux")):
        with pytest.raises(ValueError, match=f"field's {block} block"):
            wg.energy_norm(mesh, 3, bad)
        with pytest.raises(ValueError, match=f"field's {block} block"):
            wg.compute_errors(mesh, 3, bad, exact)


def test_energy_vanishes_on_projected_harmonic_polynomial():
    # u = x y is harmonic and of degree <= k, so Q_h u has zero weak
    # Laplacian and no inter-block mismatch
    for build, k in [(wg.build_uniform_triangle_mesh, 2),
                     (wg.build_uniform_quad_mesh, 3)]:
        mesh = build(2)
        field = wg.project_field(mesh, k, monomial_field(1, 1))
        assert wg.energy_norm(mesh, k, field) < 1e-11


def test_energy_squared_equals_quadratic_form():
    rng = np.random.default_rng(19)
    for build, k, n in [(wg.build_uniform_triangle_mesh, 2, 2),
                        (wg.build_uniform_quad_mesh, 2, 2),
                        (wg.build_uniform_triangle_mesh, 3, 2)]:
        mesh = build(n)
        system = wg.assemble_system(mesh, k, lambda x, y: np.zeros_like(x))
        A = reference_matrix(system)
        for _ in range(5):
            field = random_wg_field(mesh, k, rng)
            vec = system.layout.field_to_vector(field)
            quad_form = float(vec @ (A @ vec))
            energy = wg.energy_norm(mesh, k, field)
            assert energy ** 2 == pytest.approx(quad_form, rel=1e-11)


def test_energy_norm_homogeneity():
    rng = np.random.default_rng(23)
    mesh = wg.build_uniform_triangle_mesh(2)
    field = random_wg_field(mesh, 2, rng)
    base = wg.energy_norm(mesh, 2, field)
    scaled = field.copy()
    scaled.interior *= -3.5
    scaled.trace *= -3.5
    scaled.flux *= -3.5
    assert wg.energy_norm(mesh, 2, scaled) == pytest.approx(3.5 * base,
                                                            rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", ["example1", "example2"])
@pytest.mark.parametrize("mesh", [
    wg.build_uniform_triangle_mesh(2),
    wg.build_uniform_quad_mesh(3),
    wg.mesh_from_cells(*polygonal_mesh_cells())],
    ids=["tri", "quad", "polygonal"])
def test_errors_vanish_when_solution_is_the_projection(mesh, name, k):
    # the report compares against project_field's projection, built from
    # the same cell rules, basis values and mass matrices
    problem = wg.get_problem(name)
    proj = wg.project_field(mesh, k, problem.solution)
    report = wg.compute_errors(mesh, k, proj, problem.solution)
    assert report.as_dict() == dict.fromkeys(report.as_dict(), 0.0)


def test_interior_l2_perturbation_scale():
    # adding c to one cell's v_0 adds exactly c * sqrt(area); in the
    # orthonormal basis the constant c is c / T_00 times the first mode
    mesh = wg.build_uniform_quad_mesh(2)
    problem = wg.get_problem("patch-2")
    proj = wg.project_field(mesh, 2, problem.solution)
    c = 0.37
    bumped = proj.copy()
    T = wg.local_operators(mesh, 1, 2).basis_change
    bumped.interior[1, 0] += c / T[0, 0]
    report = wg.compute_errors(mesh, 2, bumped, problem.solution)
    area = wg.cell_geometry(mesh, 1).area
    assert report.l2_interior == pytest.approx(c * np.sqrt(area), rel=1e-12)
    # edge blocks untouched: trace/flux errors stay at projection roundoff
    assert report.l2_edge_trace < 1e-12
    assert report.l2_edge_flux < 1e-12


def test_edge_error_columns_weighting():
    # a single Legendre mode of size c on one edge: the h_e-weighted L2
    # column is c * h_e / sqrt(2m + 1); the L-inf column samples the mode
    # at the edge quadrature points
    mesh = wg.build_uniform_triangle_mesh(2)
    k = 2
    zero = wg.WgField.zeros(mesh, k)
    exact = monomial_field(0, 0)  # u = 1

    proj = wg.project_field(mesh, k, exact)
    e = int(np.flatnonzero(~mesh.boundary_edges)[0])
    h_e = mesh.edge_lengths[e]
    rule = wg.edge_quadrature(2 * k + 3)

    for mode in (0, 1):
        c = 0.8
        bumped = proj.copy()
        bumped.flux[e, mode] += c
        report = wg.compute_errors(mesh, k, bumped, exact)
        expected_l2 = c * h_e / np.sqrt(2 * mode + 1)
        assert report.l2_edge_flux == pytest.approx(expected_l2, rel=1e-12)
        expected_inf = c * np.max(np.abs(rule.points ** mode))
        assert report.linf_edge_flux == pytest.approx(expected_inf, rel=1e-12)


def test_error_report_dict_keys():
    mesh = wg.build_uniform_triangle_mesh(1)
    report = wg.compute_errors(mesh, 2, wg.WgField.zeros(mesh, 2),
                               monomial_field(1, 0))
    assert list(report.as_dict()) == [
        "h2_energy", "l2_interior", "l2_edge_trace", "l2_edge_flux",
        "linf_edge_trace", "linf_edge_flux"]
    assert all(v >= 0.0 for v in report.as_dict().values())


def test_error_report_requires_exact_gradient():
    mesh = wg.build_uniform_triangle_mesh(1)
    with pytest.raises(ValueError, match="gradient"):
        wg.compute_errors(mesh, 2, wg.WgField.zeros(mesh, 2),
                          wg.ScalarField(lambda x, y: x))


def test_energy_controls_l2_on_homogeneous_subspace():
    # lambda_min of the reduced matrix gives a Poincare-type floor
    mesh = wg.build_uniform_triangle_mesh(2)
    zero = lambda x, y: np.zeros_like(x)
    system = wg.assemble_system(mesh, 2, zero)
    reduced = wg.apply_boundary_conditions(
        system, zero, lambda x, y, nx, ny: np.zeros_like(x))
    matrix, _ = reference_reduced(system, reduced, zero)
    eig_min = np.linalg.eigvalsh(matrix.toarray())[0]
    assert eig_min > 0.0

    rng = np.random.default_rng(31)
    v_free = rng.uniform(-1.0, 1.0, reduced.free_dofs.size)
    vec = np.zeros(system.layout.total)  # zero boundary values
    vec[reduced.free_dofs] = v_free
    field = system.layout.vector_to_field(vec)
    energy = wg.energy_norm(mesh, 2, field)
    assert energy ** 2 >= eig_min * float(v_free @ v_free) * (1.0 - 1e-9)


def _l2_by_cell_quadrature(mesh, k, interior):
    # v_0 from its scaled monomial coefficients T @ interior
    total = 0.0
    for c in range(mesh.n_cells):
        rule = wg.polygon_quadrature(mesh.cell_vertices(c), 2 * k + 2)
        basis = wg.CellBasis.for_cell(wg.cell_geometry(mesh, c), k)
        vals, _, _ = basis.evaluate(rule.points)
        T = wg.local_operators(mesh, c, k).basis_change
        total += rule.integrate((vals @ (T @ interior[c])) ** 2)
    return np.sqrt(total)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_error_report_matches_quadrature_routes(k):
    rng = np.random.default_rng(40 + k)
    problem = wg.get_problem("example2")
    meshes = [wg.build_uniform_triangle_mesh(3), wg.build_uniform_quad_mesh(3),
              random_triangle_cell(rng), random_quad_cell(rng)]
    for mesh in meshes:
        proj = wg.project_field(mesh, k, problem.solution)
        solved = wg.solve_on_mesh(problem, k, mesh)[0]
        for u_h in (solved, random_wg_field(mesh, k, rng)):
            report = wg.compute_errors(mesh, k, u_h, problem.solution)
            diff = wg.WgField(k, proj.interior - u_h.interior,
                              proj.trace - u_h.trace, proj.flux - u_h.flux)
            assert report.h2_energy == pytest.approx(
                wg.energy_norm(mesh, k, diff), rel=1e-10, abs=0.0)
            assert report.l2_interior == pytest.approx(
                _l2_by_cell_quadrature(mesh, k, diff.interior),
                rel=1e-10, abs=0.0)


def _per_cell_errors(mesh, k, u_h, exact):
    """The six columns with one local_operators call per cell."""
    proj = wg.project_field(mesh, k, exact)
    diff = wg.WgField(k, proj.interior - u_h.interior,
                      proj.trace - u_h.trace, proj.flux - u_h.flux)
    h2sq = l2sq = 0.0
    for c in range(mesh.n_cells):
        op = wg.local_operators(mesh, c, k)
        v = wg.gather_local_dofs(diff, mesh, c)
        h2sq += v @ (op.stiffness + op.stabilizer) @ v
        l2sq += op.rule.integrate((op.values @ diff.interior[c]) ** 2)
    weights = mesh.edge_lengths[:, None] ** 2 / (2.0 * np.arange(k) + 1.0)
    L = legvander(wg.edge_quadrature(2 * k + 3).points, k - 1)
    return [np.sqrt(max(h2sq, 0.0)), np.sqrt(l2sq),
            np.sqrt(np.sum(weights * diff.trace ** 2)),
            np.sqrt(np.sum(weights * diff.flux ** 2)),
            np.max(np.abs(diff.trace @ L.T)), np.max(np.abs(diff.flux @ L.T))]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("mesh", [
    wg.mesh_from_cells(*polygonal_mesh_cells()),
    wg.build_uniform_triangle_mesh(5), wg.build_uniform_quad_mesh(6)],
    ids=["polygonal", "tri", "quad"])
def test_batched_error_report_matches_per_cell_reference(mesh, k):
    problem = wg.get_problem("example2")
    solved = wg.solve_on_mesh(problem, k, mesh)[0]
    noise = random_wg_field(mesh, k, np.random.default_rng(k))
    for u_h in (solved, noise):
        report = wg.compute_errors(mesh, k, u_h, problem.solution)
        ref = _per_cell_errors(mesh, k, u_h, problem.solution)
        assert list(report.as_dict().values()) == pytest.approx(
            ref, rel=1e-12, abs=0.0)
