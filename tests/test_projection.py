"""L2 projection tests: polynomial reproduction, frozen coefficient
oracles, orthogonality of the residual, and the blockwise field projector.

Cell projections return coefficients in the cell's orthonormal basis;
the tests map them to scaled monomials through T (monomial coefficients =
T @ orthonormal ones).

Hand-computed oracles:
  * mean of x^2 over the unit right triangle: (1/12) / (1/2) = 1/6
  * projection of x^2 onto P_1 of the edge (0,0)-(1,0) is s - 1/6 in arc
    length s, i.e. Legendre coefficients (1/3, 1/2) in t = 2s - 1
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

import wg_biharm as wg
from wg_biharm.mesh import edge_points
from wg_biharm.weak_laplacian import _cell_values
from conftest import (jittered_triangle_mesh, monomial_field,
                      polygonal_mesh_cells, random_quad_cell,
                      random_triangle_cell, single_cell_mesh)

UNIT_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def _to_monomials(mesh, cell, degree):
    """T of one cell's orthonormal P_degree basis."""
    return _cell_values(mesh, cell, degree, 2 * degree + 2)[4]


def test_project_cell_reproduces_polynomials():
    mesh = single_cell_mesh([[0.2, -0.1], [1.3, 0.4], [0.5, 1.1]])
    geom = wg.cell_geometry(mesh, 0)
    basis = wg.CellBasis.for_cell(geom, 3)

    def f(x, y):
        return 1.0 + 2.0 * x - y + 0.5 * x * y ** 2 - x ** 3

    coeffs = wg.project_cell(mesh, 0, f, 3)
    T = _to_monomials(mesh, 0, 3)
    pts = np.array([[0.7, 0.4], [0.4, 0.2], [0.9, 0.6]])
    vals, _, _ = basis.evaluate(pts)
    assert vals @ T @ coeffs == pytest.approx(f(pts[:, 0], pts[:, 1]),
                                             abs=1e-12)

    # idempotence: projecting the projection returns the same coefficients
    def fp(x, y):
        v, _, _ = basis.evaluate(np.column_stack([x, y]))
        return v @ T @ coeffs

    again = wg.project_cell(mesh, 0, fp, 3)
    assert again == pytest.approx(coeffs, abs=1e-13)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_project_cell_reproduces_random_polynomials_at_high_degree(degree):
    # The scaled-monomial mass matrix grows ~50x more ill-conditioned per
    # degree; projected in the orthonormal basis and mapped back through T,
    # the monomial coefficients still come back to 1e-10.
    rng = np.random.default_rng(500 + degree)
    exps = wg.monomial_exponents(degree)
    worst = 0.0
    for trial in range(20):
        mesh = random_triangle_cell(rng) if trial % 2 else random_quad_cell(rng)
        basis = wg.CellBasis.for_cell(wg.cell_geometry(mesh, 0), degree)
        coeffs = rng.uniform(-1.0, 1.0, len(exps))

        def f(x, y):
            v, _, _ = basis.evaluate(np.column_stack([x, y]))
            return v @ coeffs

        T = _to_monomials(mesh, 0, degree)
        got = T @ wg.project_cell(mesh, 0, f, degree)
        worst = max(worst, np.max(np.abs(got - coeffs))
                    / np.max(np.abs(coeffs)))
    assert worst <= 1e-10


def test_project_cell_constant_mode_oracle():
    mesh = single_cell_mesh(UNIT_TRIANGLE)
    coeffs = wg.project_cell(mesh, 0, lambda x, y: x ** 2, 0)
    assert _to_monomials(mesh, 0, 0) @ coeffs == pytest.approx([1.0 / 6.0],
                                                              abs=1e-15)


def test_project_cell_residual_is_orthogonal():
    mesh = single_cell_mesh([[0.0, 0.0], [1.1, 0.1], [0.9, 1.0], [-0.1, 0.9]])
    geom = wg.cell_geometry(mesh, 0)
    basis = wg.CellBasis.for_cell(geom, 2)

    def f(x, y):
        return np.sin(2.0 * x) * np.cos(y)

    # the residual is orthogonal to P_2 under the projection's own rule
    coeffs = _to_monomials(mesh, 0, 2) @ wg.project_cell(mesh, 0, f, 2)
    rule = wg.polygon_quadrature(mesh.cell_vertices(0), 6)
    vals, _, _ = basis.evaluate(rule.points)
    residual = f(rule.points[:, 0], rule.points[:, 1]) - vals @ coeffs
    moments = vals.T @ (rule.weights * residual)
    assert np.max(np.abs(moments)) < 1e-11


def test_project_edge_oracle():
    mesh = single_cell_mesh(UNIT_TRIANGLE)
    # find the edge from (0,0) to (1,0)
    e = next(i for i in range(mesh.n_edges)
             if np.allclose(mesh.vertices[mesh.edges[i]],
                            [[0.0, 0.0], [1.0, 0.0]]))
    coeffs = wg.project_edge(mesh, e, lambda x, y: x ** 2, 1)
    assert coeffs == pytest.approx([1.0 / 3.0, 0.5], abs=1e-15)

    # the projection equals s - 1/6 along the edge
    t = np.linspace(-1.0, 1.0, 7)
    s = edge_points(mesh, e, t)[:, 0]
    assert legvander(t, 1) @ coeffs == pytest.approx(s - 1.0 / 6.0,
                                                     abs=1e-14)


def test_project_edge_reproduces_and_is_idempotent():
    mesh = single_cell_mesh([[0.2, -0.1], [1.3, 0.4], [0.5, 1.1]])
    mid, tangent = mesh.edge_midpoints[1], mesh.edge_tangents[1]

    def f(x, y):
        return 0.3 - x + 2.0 * y + x * y

    coeffs = wg.project_edge(mesh, 1, f, 2)
    t = np.linspace(-1.0, 1.0, 9)
    pts = edge_points(mesh, 1, t)
    assert legvander(t, 2) @ coeffs == pytest.approx(
        f(pts[:, 0], pts[:, 1]), abs=1e-13)

    def fp(x, y):
        # invert the edge parameterization to evaluate the Legendre series
        d = np.hypot(x - mid[0], y - mid[1])
        sgn = np.sign((x - mid[0]) * tangent[0] + (y - mid[1]) * tangent[1])
        return legvander(sgn * d / (mesh.edge_lengths[1] / 2.0), 2) @ coeffs

    assert wg.project_edge(mesh, 1, fp, 2) == pytest.approx(coeffs, abs=1e-13)


def test_project_field_linear_blocks():
    mesh = wg.build_uniform_triangle_mesh(1)
    field = monomial_field(1, 0)  # u = x
    proj = wg.project_field(mesh, 2, field)
    assert proj.interior.shape == (2, 6)
    assert proj.trace.shape == (5, 2)
    assert proj.flux.shape == (5, 2)

    # traces reproduce u = x at edge quadrature points
    rule = wg.edge_quadrature(5)
    for e in range(mesh.n_edges):
        xs = edge_points(mesh, e, rule.points)[:, 0]
        assert legvander(rule.points, 1) @ proj.trace[e] == pytest.approx(
            xs, abs=1e-14)
        # flux of u = x is the constant n_x in the edge's own normal
        assert proj.flux[e] == pytest.approx([mesh.edge_normals[e, 0], 0.0],
                                             abs=1e-14)

    # the boundary edge on x = 0 has normal (-1, 0), so the flux dof is -1
    e0 = next(i for i in range(mesh.n_edges)
              if np.allclose(mesh.vertices[mesh.edges[i]][:, 0], 0.0))
    assert proj.flux[e0][0] == pytest.approx(-1.0, abs=1e-15)


def test_project_field_requires_gradient():
    mesh = wg.build_uniform_triangle_mesh(1)
    with pytest.raises(ValueError, match="gradient"):
        wg.project_field(mesh, 2, wg.ScalarField(lambda x, y: x))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_project_field_rows_equal_one_cell_projections(k):
    # project_field projects every cell of a shape from its
    # representative's values (the uniform mesh has four shapes) and
    # batches of shapes at once (at k = 4 the jittered mesh takes several
    # batches); each row must be the one-cell projection, which still hands
    # the field 1-D point arrays
    value = wg.get_problem("example2").solution.value

    def one_dimensional(x, y):
        assert x.ndim == 1 and y.ndim == 1
        return value(x, y)

    field = wg.ScalarField(value, lambda x, y: (x, y))
    for mesh in (wg.mesh_from_cells(*polygonal_mesh_cells()),
                 wg.build_uniform_triangle_mesh(8),
                 jittered_triangle_mesh(8, 3)):
        proj = wg.project_field(mesh, k, field)
        for c in range(mesh.n_cells):
            one = wg.project_cell(mesh, c, one_dimensional, k)
            assert np.max(np.abs(proj.interior[c] - one)) <= \
                1e-14 * np.max(np.abs(one))


def test_clamped_plate_solution_projects_to_zero_boundary():
    mesh = wg.build_uniform_triangle_mesh(2)
    problem = wg.get_problem("example1")
    proj = wg.project_field(mesh, 2, problem.solution)
    for e in np.flatnonzero(mesh.boundary_edges):
        assert np.max(np.abs(proj.trace[e])) < 1e-14
        assert np.max(np.abs(proj.flux[e])) < 1e-14


def test_wg_field_zeros_and_copy():
    mesh = wg.build_uniform_quad_mesh(2)
    f = wg.WgField.zeros(mesh, 3)
    assert f.interior.shape == (4, 10)
    assert f.trace.shape == (12, 3) and f.flux.shape == (12, 3)
    assert not f.interior.any() and not f.trace.any() and not f.flux.any()
    g = f.copy()
    g.interior[0, 0] = 1.0
    assert f.interior[0, 0] == 0.0
