"""Acceptance suite: ten numbered criteria, one test and one printed
PASS/FAIL line each (run with ``pytest tests/test_acceptance.py -s`` to see
the lines).

The convergence criteria assert observed orders on the finest pair of a
refinement study.  For k = 3 the order bands are asymptotic rates; on this
element the 8->16 pair is still pre-asymptotic in the interior and edge L2
norms (orders near 3.55 and 3.35), so criteria 7 and 8 assert the bands on
the finest pair of n in {8, 16, 32} and print the coarser-pair orders
alongside for reference.  Shared studies live in session fixtures so each
mesh sweep runs once.
"""

import time

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

import wg_biharm as wg
from wg_biharm.basis_quadrature import _legendre_edge
from wg_biharm.mesh import edge_points
from wg_biharm.projection import _project_on_rule, evaluate_at
from wg_biharm.weak_laplacian import _cell_values
from conftest import (monomial_field, random_quad_cell, random_triangle_cell,
                      random_wg_field, reference_matrix, reference_reduced)


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({detail})")
    return ok


def _finest_pair_order(table, attr):
    return float(table.orders(attr)[-1])


def _pair_order(table, attr, i):
    errs = table.error_series(attr)
    hs = [r.h for r in table.rows]
    return float(np.log(errs[i - 1] / errs[i]) / np.log(hs[i - 1] / hs[i]))


def test_criterion_01_polynomial_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (2, 3):
        problem = wg.get_problem(f"patch-{k}")
        for family in ("tri", "quad"):
            mesh = wg.study.build_mesh(family, 2)
            u_h, _, _, _ = wg.solve_on_mesh(problem, k, mesh)
            report = wg.compute_errors(mesh, k, u_h, problem.solution)
            worst = max(worst, max(report.as_dict().values()))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-8 and seconds < 5.0
    assert _report(1, "polynomial exactness", ok,
                   f"max norm {worst:.3e} <= 1e-08, {seconds:.2f}s < 5s")


def _fine_project_cell(mesh, f, degree, exactness):
    """``project_cell`` on a one-cell mesh with a cell rule of the given
    exactness instead of 2 * degree + 2."""
    _, rule, _, vals, _ = _cell_values(mesh, 0, degree, exactness)
    return _project_on_rule(rule, vals, f)


def _project_blocks(mesh, k, u, exactness):
    """The blockwise L2 projection of ``project_field`` on a one-cell mesh,
    every block's rule of the given exactness."""
    rule, _, Q, _ = _legendre_edge(k - 1, exactness)
    pts = edge_points(mesh, np.arange(mesh.n_edges)[:, None], rule.points)
    normal = mesh.edge_normals[:, None, :]

    def flux(x, y):  # grad u . n_e, n_e the edge's global normal
        gx, gy = u.gradient(x, y)
        return gx * normal[..., 0] + gy * normal[..., 1]
    return wg.WgField(
        k, _fine_project_cell(mesh, u.value, k, exactness)[None],
        evaluate_at(u.value, pts) @ Q.T, evaluate_at(flux, pts) @ Q.T)


def test_criterion_02_commuting_projections():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ex2 = wg.get_problem("example2")
    worst = 0.0
    for i in range(20):
        mesh = random_triangle_cell(rng) if i % 2 else random_quad_cell(rng)
        for k in (2, 3):
            ops = wg.local_operators(mesh, 0, k)
            cases = [(monomial_field(a, b), None)
                     for a in range(k + 1) for b in range(k + 1 - a)]
            # the sine field needs quadrature resolving ~2 periods on the
            # largest random cells; exactness 20 puts the residual at 5e-13
            cases.append((ex2.solution, 20))
            for u, ce in cases:
                proj = (wg.project_field(mesh, k, u) if ce is None
                        else _project_blocks(mesh, k, u, ce))
                dw = ops.weak_laplacian @ wg.gather_local_dofs(proj, mesh, 0)
                qlap = (wg.project_cell(mesh, 0, u.laplacian, k - 2)
                        if ce is None else
                        _fine_project_cell(mesh, u.laplacian, k - 2, ce))
                worst = max(worst, float(np.max(np.abs(dw - qlap))))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-10 and seconds < 1.0
    assert _report(2, "weak Laplacian commutes with projection", ok,
                   f"max coefficient gap {worst:.3e} <= 1e-10, "
                   f"{seconds:.2f}s < 1s")


def test_criterion_03_reduced_matrix_spd():
    t0 = time.perf_counter()
    mesh = wg.build_uniform_triangle_mesh(2)
    zero = lambda x, y: np.zeros_like(x)
    system = wg.assemble_system(mesh, 2, zero)
    reduced = wg.apply_boundary_conditions(
        system, zero, lambda x, y, nx, ny: np.zeros_like(x))
    dense = reference_reduced(system, reduced, zero)[0].toarray()
    sym_gap = float(np.max(np.abs(dense - dense.T)))
    eig_min = float(np.linalg.eigvalsh(dense)[0])
    seconds = time.perf_counter() - t0
    ok = sym_gap < 1e-12 * np.max(np.abs(dense)) and eig_min > 0.0 \
        and seconds < 5.0
    assert _report(3, "reduced matrix symmetric positive definite", ok,
                   f"lambda_min {eig_min:.3e} > 0, {seconds:.2f}s < 5s")


def test_criterion_04_integration_by_parts_identity():
    rng = np.random.default_rng(202)
    edge_rule = wg.edge_quadrature(12)
    worst = 0.0
    for trial in range(50):
        k = 2 if trial % 2 == 0 else 3
        mesh = random_triangle_cell(rng) if trial % 4 < 2 \
            else random_quad_cell(rng)
        geom = wg.cell_geometry(mesh, 0)
        basis_k = wg.CellBasis.for_cell(geom, k)
        basis_2 = wg.CellBasis.for_cell(geom, k - 2)
        field = random_wg_field(mesh, k, rng)
        vloc = wg.gather_local_dofs(field, mesh, 0)
        phi = rng.uniform(-1.0, 1.0, basis_2.dimension)

        # the operators' coefficients mapped to scaled monomials through T
        ops = wg.local_operators(mesh, 0, k)
        T = ops.basis_change
        dw = T[:basis_2.dimension, :basis_2.dimension] @ (
            ops.weak_laplacian @ vloc)
        v0_coeffs = T @ field.interior[0]
        cell_rule = wg.polygon_quadrature(mesh.cell_vertices(0), 2 * k + 4)
        vals2, _, _ = basis_2.evaluate(cell_rule.points)
        _, _, lapsk = basis_k.evaluate(cell_rule.points)
        phi_vals = vals2 @ phi
        lhs = cell_rule.integrate((vals2 @ dw) * phi_vals) \
            - cell_rule.integrate((lapsk @ v0_coeffs) * phi_vals)

        rhs = 0.0
        for e, s in mesh.cell_rows(0)[1]:
            n_out = s * mesh.edge_normals[e]
            pts = edge_points(mesh, e, edge_rule.points)
            w = (mesh.edge_lengths[e] / 2.0) * edge_rule.weights
            vk, gk, _ = basis_k.evaluate(pts)
            v2, g2, _ = basis_2.evaluate(pts)
            L = legvander(edge_rule.points, k - 1)

            v0 = vk @ v0_coeffs
            vb = L @ field.trace[e]
            grad_v0_n = (gk[:, :, 0] @ v0_coeffs) * n_out[0] \
                + (gk[:, :, 1] @ v0_coeffs) * n_out[1]
            vn_dot_n = s * (L @ field.flux[e])
            grad_phi_n = (g2[:, :, 0] @ phi) * n_out[0] \
                + (g2[:, :, 1] @ phi) * n_out[1]
            rhs += np.sum(w * (v0 - vb) * grad_phi_n)
            rhs -= np.sum(w * (grad_v0_n - vn_dot_n) * (v2 @ phi))

        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-11
    assert _report(4, "integration-by-parts identity", ok,
                   f"max residual {worst:.3e} <= 1e-11, 50 random fields")


def test_criterion_05_k2_primary_orders(study_ex1_k2):
    table, seconds = study_ex1_k2.table, study_ex1_k2.seconds
    h2 = _finest_pair_order(table, "h2_energy")
    l2 = _finest_pair_order(table, "l2_interior")
    ok = 0.85 <= h2 <= 1.15 and 1.85 <= l2 <= 2.15 and seconds < 60.0
    assert _report(5, "k=2 energy and interior L2 orders", ok,
                   f"H2 {h2:.5f} in [0.85,1.15], L2 {l2:.5f} in "
                   f"[1.85,2.15], study {seconds:.1f}s < 60s")


def test_criterion_06_k2_edge_orders(study_ex1_k2):
    table = study_ex1_k2.table
    eb_l2 = _finest_pair_order(table, "l2_edge_trace")
    eb_inf = _finest_pair_order(table, "linf_edge_trace")
    en_l2 = _finest_pair_order(table, "l2_edge_flux")
    ok = 1.8 <= eb_l2 <= 2.2 and 1.8 <= eb_inf <= 2.2 and en_l2 >= 0.85
    assert _report(6, "k=2 edge trace and flux orders", ok,
                   f"e_b L2 {eb_l2:.5f} and Linf {eb_inf:.5f} in [1.8,2.2], "
                   f"e_n L2 {en_l2:.5f} >= 0.85")


def test_criterion_07_k3_orders(study_ex1_k3):
    table, seconds = study_ex1_k3.table, study_ex1_k3.seconds
    h2 = _finest_pair_order(table, "h2_energy")
    l2 = _finest_pair_order(table, "l2_interior")
    eb = _finest_pair_order(table, "l2_edge_trace")
    en = _finest_pair_order(table, "l2_edge_flux")
    # pre-asymptotic coarser-pair orders, printed for the record
    pre = [_pair_order(table, attr, 2)
           for attr in ("h2_energy", "l2_interior", "l2_edge_trace",
                        "l2_edge_flux")]
    ok = (1.8 <= h2 <= 2.2 and 3.7 <= l2 <= 4.2 and 3.7 <= eb <= 4.2
          and 2.7 <= en <= 3.2 and seconds < 300.0)
    assert _report(7, "k=3 orders, finest pair of n in {8,16,32}", ok,
                   f"H2 {h2:.5f} in [1.8,2.2], L2 {l2:.5f} and e_b "
                   f"{eb:.5f} in [3.7,4.2], e_n {en:.5f} in [2.7,3.2]; "
                   f"8->16 pair gives " +
                   "/".join(f"{p:.3f}" for p in pre) +
                   f"; study {seconds:.1f}s < 300s")


def test_criterion_08_example2_orders(study_ex2_k2, study_ex2_k3):
    t2, t3 = study_ex2_k2.table, study_ex2_k3.table
    h2_2 = _finest_pair_order(t2, "h2_energy")
    l2_2 = _finest_pair_order(t2, "l2_interior")
    h2_3 = _finest_pair_order(t3, "h2_energy")
    l2_3 = _finest_pair_order(t3, "l2_interior")
    eb_3 = _finest_pair_order(t3, "l2_edge_trace")
    en_3 = _finest_pair_order(t3, "l2_edge_flux")
    pre = [_pair_order(t3, attr, 1)
           for attr in ("l2_interior", "l2_edge_trace", "l2_edge_flux")]
    ok = (0.85 <= h2_2 <= 1.15 and 1.85 <= l2_2 <= 2.15
          and 1.8 <= h2_3 <= 2.2 and 3.7 <= l2_3 <= 4.2
          and 3.7 <= eb_3 <= 4.2 and 2.7 <= en_3 <= 3.2)
    assert _report(8, "nonhomogeneous-flux problem orders", ok,
                   f"k=2 H2 {h2_2:.5f}, L2 {l2_2:.5f}; k=3 H2 {h2_3:.5f}, "
                   f"L2 {l2_3:.5f}, e_b {eb_3:.5f}, e_n {en_3:.5f}; "
                   f"k=3 8->16 pair gives " +
                   "/".join(f"{p:.3f}" for p in pre))


def test_criterion_09_direct_vs_cg():
    problem = wg.get_problem("example1")
    mesh = wg.build_uniform_triangle_mesh(16)
    system = wg.assemble_system(mesh, 2, problem.source)
    reduced = wg.apply_boundary_conditions(system, problem.trace,
                                           problem.normal_flux)
    direct = wg.solve(reduced)
    cg = wg.solve(reduced, wg.SolverConfig(method="cg", tolerance=1e-12))
    rel = float(np.linalg.norm(cg.x - direct.x)
                / np.linalg.norm(direct.x))
    ok = rel <= 1e-7
    assert _report(9, "direct and CG solutions agree", ok,
                   f"relative gap {rel:.3e} <= 1e-07, "
                   f"CG iterations {cg.iterations}")


def test_criterion_10_energy_norm_matches_quadratic_form():
    mesh = wg.build_uniform_triangle_mesh(4)
    system = wg.assemble_system(mesh, 2, lambda x, y: np.zeros_like(x))
    layout = system.layout
    zero = lambda x, y: np.zeros_like(x)
    reduced = wg.apply_boundary_conditions(
        system, zero, lambda x, y, nx, ny: np.zeros_like(x))
    boundary = np.setdiff1d(np.arange(layout.total), reduced.free_dofs)
    A = reference_matrix(system)
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        field = random_wg_field(mesh, 2, rng)
        vec = layout.field_to_vector(field)
        vec[boundary] = 0.0  # restrict to the homogeneous subspace
        field = layout.vector_to_field(vec)
        quad_form = float(vec @ (A @ vec))
        energy_sq = wg.energy_norm(mesh, 2, field) ** 2
        rel = abs(energy_sq - quad_form) / max(quad_form,
                                               np.finfo(float).tiny)
        worst = max(worst, rel)
    ok = worst <= 1e-11
    assert _report(10, "energy norm squared equals quadratic form", ok,
                   f"max relative gap {worst:.3e} <= 1e-11, 20 random "
                   f"fields")
