"""Manufactured problem tests.

Frozen point values, worked by hand from the closed forms:
  * example1: u(1/2,1/2) = (1/16)^2 = 1/256, and with p(s) = s^2(1-s)^2,
    p''(1/2) = -1, so f(1/2,1/2) = 24/16 + 2 + 24/16 = 5
  * example2: u(1/2,1/2) = 1, f = 4 pi^4 u, normal flux at (0, 1/2) with
    outward normal (-1, 0) is -pi
  * patch-4: biharmonic of x^4 + y^4 + x^2 y^2 (+ lower order) = 56

Derivative consistency is verified against central finite differences and
a 13-point biharmonic stencil.  The built-in problems take their boundary
data from their solution, so they converge at the unit square's orders on
a shifted square too.
"""

import numpy as np
import pytest

import wg_biharm as wg


def test_example1_frozen_values():
    problem = wg.get_problem("example1")
    assert problem.name == "example1"
    assert problem.solution.value(0.5, 0.5) == pytest.approx(1.0 / 256.0,
                                                             abs=1e-17)
    assert problem.source(0.5, 0.5) == pytest.approx(5.0, abs=1e-13)
    # clamped: u and grad u . n vanish on the whole boundary
    t = np.linspace(0.0, 1.0, 11)
    zeros = np.zeros_like(t)
    for xs, ys in [(t, zeros), (t, zeros + 1.0), (zeros, t), (zeros + 1.0, t)]:
        assert np.max(np.abs(problem.solution.value(xs, ys))) == 0.0
        gx, gy = problem.solution.gradient(xs, ys)
        assert np.max(np.abs(gx)) == 0.0 and np.max(np.abs(gy)) == 0.0
        assert np.max(np.abs(problem.trace(xs, ys))) == 0.0
        assert np.max(np.abs(problem.normal_flux(xs, ys, 1.0, 0.0))) == 0.0


def test_example2_frozen_values():
    problem = wg.get_problem("example2")
    assert problem.solution.value(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert problem.source(0.5, 0.5) == pytest.approx(4.0 * np.pi ** 4,
                                                     rel=1e-15)
    assert problem.solution.laplacian(0.5, 0.5) == pytest.approx(
        -2.0 * np.pi ** 2, rel=1e-15)
    assert problem.normal_flux(0.0, 0.5, -1.0, 0.0) == pytest.approx(
        -np.pi, rel=1e-15)
    assert problem.normal_flux(1.0, 0.5, 1.0, 0.0) == pytest.approx(
        -np.pi, rel=1e-15)
    t = np.linspace(0.0, 1.0, 9)
    assert np.max(np.abs(problem.trace(t, np.zeros_like(t)))) == 0.0


def test_patch_sources():
    rng = np.random.default_rng(13)
    x, y = rng.uniform(0.0, 1.0, (2, 40))
    for k in range(4):
        problem = wg.get_problem(f"patch-{k}")
        assert np.max(np.abs(problem.source(x, y))) == 0.0
    p4 = wg.get_problem("patch-4")
    assert p4.source(x, y) == pytest.approx(np.full(40, 56.0), abs=1e-12)
    # u(1,1) counts the monomials of degree <= 4
    assert p4.solution.value(1.0, 1.0) == pytest.approx(15.0, abs=1e-13)


def test_patch_boundary_data_matches_solution():
    problem = wg.get_problem("patch-3")
    t = np.linspace(0.0, 1.0, 7)
    for xs, ys, n in [(t, np.zeros_like(t), (0.0, -1.0)),
                      (np.ones_like(t), t, (1.0, 0.0))]:
        assert problem.trace(xs, ys) == pytest.approx(
            problem.solution.value(xs, ys), abs=1e-14)
        gx, gy = problem.solution.gradient(xs, ys)
        assert problem.normal_flux(xs, ys, *n) == pytest.approx(
            gx * n[0] + gy * n[1], abs=1e-14)


@pytest.mark.parametrize("name", ["example1", "example2", "patch-3"])
def test_gradients_match_finite_differences(name):
    problem = wg.get_problem(name)
    field = problem.solution
    rng = np.random.default_rng(37)
    x, y = rng.uniform(0.1, 0.9, (2, 30))
    h = 1e-6
    gx, gy = field.gradient(x, y)
    fd_x = (field.value(x + h, y) - field.value(x - h, y)) / (2.0 * h)
    fd_y = (field.value(x, y + h) - field.value(x, y - h)) / (2.0 * h)
    assert np.max(np.abs(fd_x - gx)) < 1e-7
    assert np.max(np.abs(fd_y - gy)) < 1e-7


@pytest.mark.parametrize("name", ["example1", "example2", "patch-3"])
def test_laplacians_match_finite_differences(name):
    problem = wg.get_problem(name)
    field = problem.solution
    rng = np.random.default_rng(41)
    x, y = rng.uniform(0.1, 0.9, (2, 30))
    h = 1e-4
    fd = (field.value(x + h, y) + field.value(x - h, y)
          + field.value(x, y + h) + field.value(x, y - h)
          - 4.0 * field.value(x, y)) / h ** 2
    assert np.max(np.abs(fd - field.laplacian(x, y))) < 1e-5 * max(
        1.0, float(np.max(np.abs(field.laplacian(x, y)))))


@pytest.mark.parametrize("name", ["example1", "example2", "patch-3",
                                  "patch-4"])
def test_source_is_biharmonic_of_solution(name):
    # 13-point stencil for the biharmonic operator, O(h^2) accurate
    problem = wg.get_problem(name)
    u = problem.solution.value
    rng = np.random.default_rng(43)
    x, y = rng.uniform(0.1, 0.9, (2, 200))
    h = 5e-3
    fd = (20.0 * u(x, y)
          - 8.0 * (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h))
          + 2.0 * (u(x + h, y + h) + u(x + h, y - h)
                   + u(x - h, y + h) + u(x - h, y - h))
          + u(x + 2 * h, y) + u(x - 2 * h, y)
          + u(x, y + 2 * h) + u(x, y - 2 * h)) / h ** 4
    f = problem.source(x, y)
    scale = max(1.0, float(np.max(np.abs(f))))
    assert np.max(np.abs(fd - f)) < 1e-4 * scale


def test_get_problem_lookup_and_errors():
    assert wg.get_problem("example1").name == "example1"
    assert wg.get_problem("example2").name == "example2"
    assert wg.get_problem("patch-2").name == "patch-2"
    for bad in ("example3", "patch-x", "patch-"):
        with pytest.raises(ValueError, match="unknown problem"):
            wg.get_problem(bad)
    with pytest.raises(ValueError):
        wg.polynomial_patch(-1)
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="integer"):
            wg.polynomial_patch(bad)


@pytest.mark.parametrize("family", ["tri", "quad"])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_examples_converge_on_a_shifted_square(name, family):
    # on [0.25, 1.25]^2 neither u nor grad u . n vanishes on the boundary;
    # finest-pair bands a little under the asymptotic k - 1 and k + 1
    problem = wg.get_problem(name)
    for k, levels, h2_min, l2_min in ((2, (8, 16, 32), 0.8, 1.8),
                                      (3, (4, 8, 16), 1.8, 3.7)):
        h2, l2, hs = [], [], []
        for n in levels:
            square = wg.study.build_mesh(family, n)
            mesh = wg.mesh_from_cells(square.vertices + 0.25, square.cells)
            u_h, _, _, _ = wg.solve_on_mesh(problem, k, mesh)
            report = wg.compute_errors(mesh, k, u_h, problem.solution)
            h2.append(report.h2_energy)
            l2.append(report.l2_interior)
            hs.append(wg.max_cell_diameter(mesh))
        assert wg.study.observed_order(h2, hs)[-1] >= h2_min
        assert wg.study.observed_order(l2, hs)[-1] >= l2_min
