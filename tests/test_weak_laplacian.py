"""Local weak Laplacian and stabilizer tests.

Hand-worked oracle: on the unit right triangle with k = 2, a field that is
zero except for a unit constant flux density on the hypotenuse has

    Delta_w v = (h_e * 1) / |T| = sqrt(2) / (1/2) = 2 sqrt(2).

Interior and weak Laplacian coefficients are in the cell's orthonormal
basis; the oracles are written in scaled monomials and mapped through the
operators' basis change T (monomial coefficients = T @ orthonormal ones).

The k = 2 mean-value formula, the integration-by-parts identity relating
Delta_w to the strong Laplacian of v_0, the commuting-projection property,
and the 2k + 1 dimensional local kernel (harmonic polynomials up to degree
k) are checked on random triangles and quads.
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre, leggauss, legvander

import wg_biharm as wg
from wg_biharm.mesh import edge_points
from wg_biharm.weak_laplacian import _cell_values
from conftest import (monomial_field, random_cell, random_quad_cell,
                      random_triangle_cell, random_wg_field, single_cell_mesh)


def test_rejects_low_degree():
    mesh = wg.build_uniform_triangle_mesh(1)
    with pytest.raises(ValueError):
        wg.local_operators(mesh, 0, 1)


def test_constant_flux_on_hypotenuse_oracle():
    mesh = single_cell_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    hyp = next(i for i in range(mesh.n_edges)
               if mesh.edge_lengths[i] > 1.2)
    field = wg.WgField.zeros(mesh, 2)
    field.flux[hyp, 0] = 1.0
    ops = wg.local_operators(mesh, 0, 2)
    coeffs = ops.weak_laplacian @ wg.gather_local_dofs(field, mesh, 0)
    assert ops.basis_change[:1, :1] @ coeffs == pytest.approx(
        [2.0 * np.sqrt(2.0)], abs=1e-13)


def test_k2_weak_laplacian_is_mean_flux():
    # for k = 2 the weak Laplacian is constant: sum_e sign int_e v_n / |T|
    rng = np.random.default_rng(11)
    rule = wg.edge_quadrature(6)
    for _ in range(10):
        mesh = random_cell(rng)
        field = random_wg_field(mesh, 2, rng)
        ops = wg.local_operators(mesh, 0, 2)
        coeffs = ops.basis_change[:1, :1] @ (
            ops.weak_laplacian @ wg.gather_local_dofs(field, mesh, 0))
        total = 0.0
        for e, s in mesh.cell_rows(0)[1]:
            vn = legvander(rule.points, 1) @ field.flux[e]
            total += s * (mesh.edge_lengths[e] / 2.0) * rule.integrate(vn)
        area = wg.cell_geometry(mesh, 0).area
        assert coeffs == pytest.approx([total / area], rel=1e-12, abs=1e-13)


def test_weak_laplacian_commutes_with_projection():
    # Delta_w(Q_h u) = Q_h(Delta u) for polynomial u up to degree k
    rng = np.random.default_rng(21)
    for k in (2, 3):
        for _ in range(6):
            mesh = random_cell(rng)
            ops = wg.local_operators(mesh, 0, k)
            for a in range(k + 1):
                for b in range(k + 1 - a):
                    field = wg.project_field(mesh, k, monomial_field(a, b))
                    dw = ops.weak_laplacian @ wg.gather_local_dofs(
                        field, mesh, 0)
                    qlap = wg.project_cell(mesh, 0, monomial_field(a, b).laplacian,
                                           k - 2)
                    assert np.max(np.abs(dw - qlap)) < 1e-11


def test_integration_by_parts_identity():
    # (Dw v, phi)_T - (Lap v0, phi)_T
    #   = <v0 - vb, grad phi . n>_dT - <(grad v0 - vn n_e) . n, phi>_dT
    # with every term evaluated by raw quadrature
    rng = np.random.default_rng(33)
    edge_rule = wg.edge_quadrature(12)
    for trial in range(50):
        k = 2 if trial % 2 == 0 else 3
        mesh = random_cell(rng)
        geom = wg.cell_geometry(mesh, 0)
        basis_k = wg.CellBasis.for_cell(geom, k)
        basis_2 = wg.CellBasis.for_cell(geom, k - 2)
        field = random_wg_field(mesh, k, rng)
        vloc = wg.gather_local_dofs(field, mesh, 0)
        phi = rng.uniform(-1.0, 1.0, basis_2.dimension)

        ops = wg.local_operators(mesh, 0, k)
        T = ops.basis_change
        n2 = basis_2.dimension
        dw = T[:n2, :n2] @ ops.weak_laplacian @ vloc
        v0_coeffs = T @ field.interior[0]

        cell_rule = wg.polygon_quadrature(mesh.cell_vertices(0), 2 * k + 4)
        vals2, _, _ = basis_2.evaluate(cell_rule.points)
        valsk, _, lapsk = basis_k.evaluate(cell_rule.points)
        phi_vals = vals2 @ phi
        lhs = cell_rule.integrate((vals2 @ dw) * phi_vals) \
            - cell_rule.integrate((lapsk @ v0_coeffs) * phi_vals)

        rhs = 0.0
        for e, s in mesh.cell_rows(0)[1]:
            n_out = s * mesh.edge_normals[e]
            pts = edge_points(mesh, e, edge_rule.points)
            w = (mesh.edge_lengths[e] / 2.0) * edge_rule.weights
            ek = basis_k.evaluate(pts)
            e2 = basis_2.evaluate(pts)
            L = legvander(edge_rule.points, k - 1)

            v0 = ek[0] @ v0_coeffs
            vb = L @ field.trace[e]
            grad_v0_n = ek[1][:, :, 0] @ v0_coeffs * n_out[0] \
                + ek[1][:, :, 1] @ v0_coeffs * n_out[1]
            vn_dot_n = s * (L @ field.flux[e])  # (v_n n_e) . n_out
            grad_phi_n = e2[1][:, :, 0] @ phi * n_out[0] \
                + e2[1][:, :, 1] @ phi * n_out[1]
            phi_e = e2[0] @ phi

            rhs += np.sum(w * (v0 - vb) * grad_phi_n)
            rhs -= np.sum(w * (grad_v0_n - vn_dot_n) * phi_e)

        assert abs(lhs - rhs) < 1e-11


def test_projected_affine_fields_are_in_the_kernel():
    rng = np.random.default_rng(5)
    for k in (2, 3):
        for _ in range(4):
            mesh = random_cell(rng)
            ops = wg.local_operators(mesh, 0, k)
            form = ops.stiffness + ops.stabilizer
            scale = np.max(np.abs(form))
            for a, b in [(0, 0), (1, 0), (0, 1)]:
                field = wg.project_field(mesh, k, monomial_field(a, b))
                vloc = wg.gather_local_dofs(field, mesh, 0)
                assert np.max(np.abs(ops.weak_laplacian @ vloc)) < 1e-12
                assert np.max(np.abs(form @ vloc)) < 1e-11 * max(scale, 1.0)


def test_stiffness_is_gram_matrix_of_weak_laplacian():
    rng = np.random.default_rng(17)
    for k in (2, 3):
        mesh = random_cell(rng)
        ops = wg.local_operators(mesh, 0, k)
        field = random_wg_field(mesh, k, rng)
        vloc = wg.gather_local_dofs(field, mesh, 0)
        dw = ops.weak_laplacian @ vloc
        n2 = wg.polynomial_space_dim(k - 2)
        rule = wg.polygon_quadrature(mesh.cell_vertices(0), 2 * k)
        basis2 = wg.CellBasis.for_cell(wg.cell_geometry(mesh, 0), k - 2)
        vals2, _, _ = basis2.evaluate(rule.points)
        direct = rule.integrate((vals2 @ ops.basis_change[:n2, :n2] @ dw) ** 2)
        assert vloc @ ops.stiffness @ vloc == pytest.approx(
            direct, rel=1e-12, abs=1e-15)
        # the P_{k-2} prefix is orthonormal: the Gram matrix is the identity
        assert dw @ dw == pytest.approx(direct, rel=1e-12, abs=1e-15)
        # the cell rule that feeds the load and the error report is the
        # plain one, bit for bit, and its values are the P_k monomials' by T
        cell_rule = wg.polygon_quadrature(mesh.cell_vertices(0), 2 * k + 2)
        basis = wg.CellBasis.for_cell(wg.cell_geometry(mesh, 0), k)
        vals, _, _ = basis.evaluate(cell_rule.points)
        assert np.array_equal(ops.rule.points, cell_rule.points)
        assert np.array_equal(ops.rule.weights, cell_rule.weights)
        assert np.max(np.abs(ops.values - vals @ ops.basis_change)) <= (
            1e-13 * np.max(np.abs(ops.values)))


def test_stabilizer_trace_penalty_oracle():
    # v_0 = 1, all traces zero: only the h^-3 term fires and equals
    # perimeter / h^3 on the unit right triangle
    mesh = single_cell_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ops = wg.local_operators(mesh, 0, 2)
    field = wg.WgField.zeros(mesh, 2)
    field.interior[0, 0] = 1.0 / ops.basis_change[0, 0]
    vloc = wg.gather_local_dofs(field, mesh, 0)
    h = np.sqrt(2.0)
    expected = (2.0 + np.sqrt(2.0)) / h ** 3
    assert vloc @ ops.stabilizer @ vloc == pytest.approx(expected, rel=1e-14)
    assert vloc @ ops.stiffness @ vloc == pytest.approx(0.0, abs=1e-15)


def test_stabilizer_flux_penalty_oracle():
    # v_0 = 0, unit constant flux density on one unit edge: h^-1 * h_e
    mesh = single_cell_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    e = next(i for i in range(mesh.n_edges)
             if np.allclose(mesh.vertices[mesh.edges[i]][:, 1], 0.0))
    field = wg.WgField.zeros(mesh, 2)
    field.flux[e, 0] = 1.0
    ops = wg.local_operators(mesh, 0, 2)
    vloc = wg.gather_local_dofs(field, mesh, 0)
    expected = 1.0 / np.sqrt(2.0)
    assert vloc @ ops.stabilizer @ vloc == pytest.approx(expected, rel=1e-14)


def _jittered_hexagon():
    rng = np.random.default_rng(5)
    angles = np.arange(6) * np.pi / 3.0 + rng.uniform(-0.15, 0.15, 6)
    radii = rng.uniform(0.8, 1.2, 6)
    return single_cell_mesh(np.column_stack([radii * np.cos(angles),
                                             radii * np.sin(angles)]) + 0.3)


def _arrow():
    # non-convex: reflex vertices at (1, 0.3) and (1, 0.9), so the vertex
    # fan has clockwise triangles
    return single_cell_mesh([[0.0, 0.3], [1.0, 0.3], [1.0, 0.0], [1.8, 0.6],
                             [1.0, 1.2], [1.0, 0.9], [0.0, 0.9]])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("make", [_jittered_hexagon, _arrow])
def test_stabilizer_equals_gram_matrix_of_mismatch_rows(make, k):
    # per edge, from the definition: the flux row grad v_0 . n_e - v_n at
    # Gauss points and the trace row Q_b v_0 - v_b in Legendre coefficients,
    # under h_T^-1 arc weights and h_T^-3 edge mass weights; v_0 in scaled
    # monomials, mapped to the orthonormal basis by T
    mesh = make()
    T = wg.local_operators(mesh, 0, k).basis_change
    exps = wg.monomial_exponents(k)
    n0, m = len(exps), mesh.cell_sizes[0]
    center, h = mesh.cell_centroids[0], mesh.cell_diameters[0]
    t, wt = leggauss(k + 2)
    P = np.array([Legendre.basis(j)(t) for j in range(k)])  # (k, q)
    expected = np.zeros((n0 + 2 * m * k,) * 2)
    for i, (e, _) in enumerate(mesh.cell_rows(0)[1]):
        length, normal = mesh.edge_lengths[e], mesh.edge_normals[e]
        x, y = (mesh.edge_midpoints[e]
                + np.outer(t * length / 2.0, mesh.edge_tangents[e])).T
        X, Y = (x - center[0]) / h, (y - center[1]) / h
        vals = np.array([X ** a * Y ** b for a, b in exps])
        grad_n = np.array([
            normal[0] * a / h * X ** max(a - 1, 0) * Y ** b
            + normal[1] * b / h * X ** a * Y ** max(b - 1, 0)
            for a, b in exps])
        trace = slice(n0 + i * k, n0 + (i + 1) * k)
        flux = slice(n0 + (m + i) * k, n0 + (m + i + 1) * k)
        flux_rows = np.zeros((t.size, expected.shape[0]))
        flux_rows[:, :n0] = grad_n.T @ T
        flux_rows[:, flux] = -P.T
        trace_rows = np.zeros((k, expected.shape[0]))
        trace_rows[:, :n0] = (((np.arange(k)[:, None] + 0.5) * P * wt)
                              @ vals.T @ T)
        trace_rows[:, trace] = -np.eye(k)
        arc = wt * length / 2.0 / h
        edge_mass = length / (2.0 * np.arange(k) + 1.0) / h ** 3
        expected += flux_rows.T @ (arc[:, None] * flux_rows)
        expected += trace_rows.T @ (edge_mass[:, None] * trace_rows)
    S = wg.local_operators(mesh, 0, k).stabilizer
    assert np.max(np.abs(S - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("make", [_jittered_hexagon, _arrow])
def test_stabilizer_edge_blocks_are_the_closed_form_edge_mass(make, k):
    # in Legendre coefficients the flux-flux and trace-trace blocks are the
    # edge mass h_e / (2j + 1) under h_T^-1 and h_T^-3, with no roundoff,
    # and no trace mode meets a flux mode
    mesh = make()
    n0, m = wg.polynomial_space_dim(k), mesh.cell_sizes[0]
    h = mesh.cell_diameters[0]
    lengths = mesh.edge_lengths[mesh.cell_rows(0)[1][:, 0]]
    mu = (lengths[:, None] / (2.0 * np.arange(k) + 1.0)).ravel()
    S = wg.local_operators(mesh, 0, k).stabilizer
    trace, flux = slice(n0, n0 + m * k), slice(n0 + m * k, None)
    assert np.array_equal(S[flux, flux], np.diag(mu / h))
    assert np.array_equal(S[trace, trace], np.diag(mu / h ** 3))
    assert not np.any(S[trace, flux]) and not np.any(S[flux, trace])


def test_local_forms_symmetric_positive_semidefinite():
    rng = np.random.default_rng(29)
    for k in (2, 3):
        for _ in range(4):
            mesh = random_cell(rng)
            ops = wg.local_operators(mesh, 0, k)
            for mat in (ops.stiffness, ops.stabilizer):
                scale = max(np.max(np.abs(mat)), 1.0)
                assert np.max(np.abs(mat - mat.T)) < 1e-13 * scale
                assert np.min(np.linalg.eigvalsh(mat)) > -1e-12 * scale


def test_projected_polynomials_have_zero_penalty():
    # Q_h of a degree <= k polynomial leaves no inter-block mismatch
    rng = np.random.default_rng(41)
    for k in (2, 3):
        mesh = random_cell(rng)
        ops = wg.local_operators(mesh, 0, k)
        scale = max(np.max(np.abs(ops.stabilizer)), 1.0)
        for a in range(k + 1):
            for b in range(k + 1 - a):
                field = wg.project_field(mesh, k, monomial_field(a, b))
                vloc = wg.gather_local_dofs(field, mesh, 0)
                assert np.max(np.abs(ops.stabilizer @ vloc)) < 1e-11 * scale


def test_local_kernel_dimension_is_2k_plus_1():
    # kernel of stiffness + stabilizer = harmonic polynomials of degree <= k
    rng = np.random.default_rng(53)
    for k in (2, 3):
        for maker in (random_triangle_cell, random_quad_cell):
            mesh = maker(rng)
            ops = wg.local_operators(mesh, 0, k)
            form = ops.stiffness + ops.stabilizer
            eig = np.linalg.eigvalsh(form)
            n_zero = int(np.sum(eig < 1e-10 * eig[-1]))
            assert n_zero == 2 * k + 1
            # harmonic degree-2 representatives lie in the kernel
            for u in (monomial_field(1, 1),):
                field = wg.project_field(mesh, k, u)
                vloc = wg.gather_local_dofs(field, mesh, 0)
                assert np.max(np.abs(form @ vloc)) < 1e-10 * eig[-1]


def _strip_cell():
    # one cell of the 128 x 2 strip of the unit square, aspect 64
    return single_cell_mesh([[0.0, 0.0], [1.0 / 128.0, 0.0],
                             [1.0 / 128.0, 0.5], [0.0, 0.5]])


def _graded_cell():
    # the first cell of the x = t^4 graded 16 x 16 mesh, aspect 4096
    return single_cell_mesh([[0.0, 0.0], [16.0 ** -4, 0.0],
                             [16.0 ** -4, 1.0 / 16.0], [0.0, 1.0 / 16.0]])


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("make", [_jittered_hexagon, _arrow, _strip_cell,
                                  _graded_cell])
def test_cell_values_are_orthonormal(make, k):
    # the values' Gram matrix under the element's cell rule is I, and they
    # are the monomial values times an upper-triangular T (one Cholesky QR
    # pass leaves the graded cell's Gram matrix 0.5 off I at k = 6)
    mesh = make()
    _, rule, mono, vals, T = _cell_values(mesh, 0, k, 2 * k + 2)
    gram = (vals * rule.weights[:, None]).T @ vals
    assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-12
    assert np.array_equal(T, np.triu(T))
    assert np.max(np.abs(vals - mono @ T)) <= 1e-12 * np.max(np.abs(vals))


def test_a_thin_cell_off_the_axes_is_named_too_thin():
    # the 2 x 2 quad grid squeezed to aspect 128 and rotated by 30 degrees:
    # its scaled monomial coordinates are nearly collinear, so at k = 4 the
    # first Cholesky QR pass sees a Gram matrix singular in float64 (the
    # same cells unrotated are fine up to aspect 2^39)
    grid = wg.build_uniform_quad_mesh(2)
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    vertices = (grid.vertices * [1.0, 1.0 / 128.0]) @ [[c, s], [-s, c]]
    mesh = wg.mesh_from_cells(vertices, grid.cells)
    with pytest.raises(ValueError, match=r"cell \d \(area/diameter\^2 = "
                       r"0\.0078\d*\) is too thin for a degree-4 cell basis"):
        wg.assemble_system(mesh, 4, lambda x, y: np.ones_like(x))
