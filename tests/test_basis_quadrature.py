"""Quadrature rules against closed-form integrals, and basis evaluation
against finite differences and symbolic mass matrices.

Key oracles:
  * unit right triangle: int x^a y^b = a! b! / (a + b + 2)!
  * unit square: int x^a y^b = 1 / ((a + 1)(b + 1))
  * mapped-triangle integrals done symbolically with sympy
  * polygon moments by Green's theorem, one Gauss-Legendre rule per edge
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander
import sympy as sp

import wg_biharm as wg
from wg_biharm.basis_quadrature import _duffy_rule


def test_polynomial_space_dims_and_exponent_order():
    for k, dim in [(0, 1), (1, 3), (2, 6), (3, 10), (4, 15), (5, 21)]:
        assert wg.polynomial_space_dim(k) == dim
        exps = wg.monomial_exponents(k)
        assert len(exps) == dim
        degrees = [a + b for a, b in exps]
        assert degrees == sorted(degrees)
    assert wg.polynomial_space_dim(-1) == 0
    assert wg.polynomial_space_dim(-2) == 0
    # lower-degree exponent lists are prefixes of higher-degree ones
    assert np.array_equal(wg.monomial_exponents(2),
                          wg.monomial_exponents(4)[:6])


def test_edge_rule_is_gauss_legendre():
    rule = wg.edge_quadrature(3)
    assert rule.points.shape == (2,)
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-15)
    for exactness in range(10):
        rule = wg.edge_quadrature(exactness)
        for j in range(exactness + 1):
            exact = 0.0 if j % 2 else 2.0 / (j + 1)
            got = rule.integrate(rule.points ** j)
            assert got == pytest.approx(exact, abs=1e-14)


def test_unit_triangle_moments_match_factorial_formula():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for d in range(7):
        rule = wg.polygon_quadrature(verts, d)
        for a in range(d + 1):
            for b in range(d + 1 - a):
                exact = (math.factorial(a) * math.factorial(b)
                         / math.factorial(a + b + 2))
                got = rule.integrate(rule.points[:, 0] ** a
                                     * rule.points[:, 1] ** b)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-15)
    # frozen spot check: int_T x^2 y over the unit right triangle is 1/60
    rule = wg.polygon_quadrature(verts, 3)
    assert rule.integrate(rule.points[:, 0] ** 2 * rule.points[:, 1]) == \
        pytest.approx(1.0 / 60.0, abs=1e-16)


def test_clockwise_triangle_gives_signed_measure():
    verts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    rule = wg.polygon_quadrature(verts, 2)
    assert np.sum(rule.weights) == pytest.approx(-0.5, abs=1e-15)


def test_mapped_triangle_moments_match_sympy():
    verts = np.array([[0.2, -0.1], [1.3, 0.4], [0.5, 1.1]])
    u, v = sp.symbols("u v")
    x = verts[0, 0] + u * (verts[1, 0] - verts[0, 0]) + v * (verts[2, 0] - verts[0, 0])
    y = verts[0, 1] + u * (verts[1, 1] - verts[0, 1]) + v * (verts[2, 1] - verts[0, 1])
    jac = sp.Rational(1) * abs(
        (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
        - (verts[2, 0] - verts[0, 0]) * (verts[1, 1] - verts[0, 1]))
    rule = wg.polygon_quadrature(verts, 4)
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3), (4, 0)]:
        integrand = sp.expand(x ** a * y ** b) * jac
        exact = float(sp.integrate(sp.integrate(integrand, (v, 0, 1 - u)),
                                   (u, 0, 1)))
        got = rule.integrate(rule.points[:, 0] ** a * rule.points[:, 1] ** b)
        assert got == pytest.approx(exact, rel=1e-13)


def test_square_polygon_rule_moments():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    rule = wg.polygon_quadrature(verts, 6)
    assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
    for a in range(4):
        for b in range(4):
            exact = 1.0 / ((a + 1) * (b + 1))
            got = rule.integrate(rule.points[:, 0] ** a
                                 * rule.points[:, 1] ** b)
            assert got == pytest.approx(exact, rel=1e-13)


def test_nonconvex_polygon_rule():
    # L-shape: [0,1]x[0,1/2] plus [0,1/2]x[1/2,1]
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5],
                      [0.5, 1.0], [0.0, 1.0]])
    rule = wg.polygon_quadrature(verts, 3)
    assert np.sum(rule.weights) == pytest.approx(0.75, abs=1e-14)
    # int x dA = 1/4 over the bottom rectangle + 1/16 over the top one
    assert rule.integrate(rule.points[:, 0]) == pytest.approx(0.3125, abs=1e-14)


def test_cached_reference_rules_are_read_only_and_repeatable():
    for exactness in (0, 3, 7, 20):
        rule = wg.edge_quadrature(exactness)
        ref_pts, ref_w = _duffy_rule(exactness)
        for arr in (rule.points, rule.weights, ref_pts, ref_w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        again = wg.edge_quadrature(exactness)
        assert np.array_equal(again.points, rule.points)
        assert np.array_equal(again.weights, rule.weights)

    # mapped rules are fresh arrays: writing to one leaves the next intact
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5],
                      [0.5, 1.0], [0.0, 1.0]])
    first = wg.polygon_quadrature(verts, 5)
    tri = wg.polygon_quadrature(verts[:3], 5)
    expected_pts, expected_w = first.points.copy(), first.weights.copy()
    first.points[:] = 0.0
    first.weights[:] = 0.0
    tri.weights[:] = 0.0
    second = wg.polygon_quadrature(verts, 5)
    assert np.array_equal(second.points, expected_pts)
    assert np.array_equal(second.weights, expected_w)
    assert np.sum(second.weights) == pytest.approx(0.75, abs=1e-14)
    assert np.sum(wg.polygon_quadrature(verts[:3], 5).weights) == \
        pytest.approx(0.25, abs=1e-15)


def test_polygon_rule_equals_fan_of_triangle_rules():
    # reference: the Duffy rule mapped onto each fan triangle
    # (v_0, v_i, v_{i+1}), i = 1 ... m - 2, as p0 + a d1 + b d2 with
    # weights ref_w (d1 x d2), which is also the rule of the 3-vertex
    # polygon, bit for bit; a (2, 6, 2) stack of polygons gives the rule of
    # each polygon
    ref_pts, ref_w = _duffy_rule(6)

    def triangle(p0, p1, p2):
        d1, d2 = p1 - p0, p2 - p0
        pts = (p0 + ref_pts[:, 0:1] * d1) + ref_pts[:, 1:2] * d2
        return pts, ref_w * (d1[0] * d2[1] - d1[1] * d2[0])

    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5],
                      [0.5, 1.0], [0.0, 1.0]])
    stack = np.stack([verts, 0.3 * verts[::-1] * [-1.0, 1.0] + 2.0])
    stacked = wg.polygon_quadrature(stack, 6)
    assert stacked.points.shape == (2, 4 * 16, 2)
    for p, pts, w in zip(stack, stacked.points, stacked.weights):
        rule = wg.polygon_quadrature(p, 6)
        assert np.array_equal(rule.points, pts)
        assert np.array_equal(rule.weights, w)
        fan = [triangle(p[0], p[i], p[i + 1]) for i in range(1, 5)]
        assert np.array_equal(rule.points, np.vstack([f[0] for f in fan]))
        assert np.array_equal(rule.weights, np.concatenate([f[1] for f in fan]))
        one = wg.polygon_quadrature(p[:3], 6)
        assert np.array_equal(one.points, fan[0][0])
        assert np.array_equal(one.weights, fan[0][1])


def _green_moment(verts, a, b):
    # int_P x^a y^b = oint x^(a+1) y^b n_x ds / (a + 1), with n_x ds = dy
    # on a counter-clockwise boundary: one Gauss-Legendre rule per edge,
    # exact for the degree a + b + 1 integrand, and no triangles
    t, w = leggauss(a + b + 2)
    s = 0.5 * (t + 1.0)
    total = 0.0
    for p, q in zip(verts, np.roll(verts, -1, axis=0)):
        x, y = (p + np.outer(s, q - p)).T
        total += 0.5 * (q[1] - p[1]) * np.sum(w * x ** (a + 1) * y ** b)
    return total / (a + 1)


def test_fan_with_flat_or_reflex_first_vertex_is_exact():
    # first three vertices collinear: the first fan triangle has zero area,
    # as on the unjittered boundary cells of a brick mesh
    flat = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0],
                     [0.0, 1.0]]) + [1.0, 0.5]
    # a U whose vertex 0 is reflex: its last fan triangle is clockwise
    u_cell = np.array([[1.0, 1.0], [1.0, 2.0], [0.0, 2.0], [0.0, 0.0],
                       [3.0, 0.0], [3.0, 2.0], [2.0, 2.0], [2.0, 1.0]]) / 3.0
    u_cell += [0.5, 1.0]
    for verts, area in ((flat, 1.0), (u_cell, 5.0 / 9.0)):
        for exactness in (2, 5, 8):
            rule = wg.polygon_quadrature(verts, exactness)
            n_duffy = _duffy_rule(exactness)[1].size
            assert rule.weights.shape == ((len(verts) - 2) * n_duffy,)
            assert np.sum(rule.weights) == pytest.approx(area, rel=1e-14)
            x, y = rule.points.T
            for a, b in wg.monomial_exponents(exactness):
                assert rule.integrate(x ** a * y ** b) == pytest.approx(
                    _green_moment(verts, a, b), rel=1e-14)
    n_duffy = _duffy_rule(5)[1].size
    assert not np.any(wg.polygon_quadrature(flat, 5).weights[:n_duffy])
    assert np.any(wg.polygon_quadrature(u_cell, 5).weights < 0.0)


def test_cell_basis_matches_per_monomial_loop():
    rng = np.random.default_rng(11)
    # one basis, then a stack of two, each evaluated on its own points
    cases = [(np.array([0.3, -0.4]), 0.7, (9, 2)),
             (np.array([[0.3, -0.4], [-0.5, 0.2]]), np.array([0.7, 1.3]),
              (2, 9, 2))]
    directions = np.random.default_rng(12)
    for degree in range(6):
        for center, scale, shape in cases:
            pts = rng.uniform(-1.0, 1.0, shape)
            basis = wg.CellBasis(degree, center, scale)
            stack = basis.evaluate(pts)
            # the values alone and derivatives along a direction read the
            # same products
            d = directions.normal(size=shape)
            assert np.array_equal(basis.evaluate(pts, False), stack[0])
            assert np.array_equal(basis.gradients(stack[0], d),
                                  stack[1][..., 0] * d[..., None, 0]
                                  + stack[1][..., 1] * d[..., None, 1])
            for s in np.ndindex(np.shape(scale)):
                vals, grads, laps = (out[s] for out in stack)
                h = np.asarray(scale)[s]
                X = (pts[s][:, 0] - center[s][0]) / h
                Y = (pts[s][:, 1] - center[s][1]) / h
                for j, (a, b) in enumerate(wg.monomial_exponents(degree)):
                    assert np.allclose(vals[:, j], X ** a * Y ** b,
                                       rtol=1e-14, atol=0.0)
                    gx = a / h * X ** max(a - 1, 0) * Y ** b
                    gy = b / h * X ** a * Y ** max(b - 1, 0)
                    lap = (a * (a - 1) / h ** 2 * X ** max(a - 2, 0) * Y ** b
                           + b * (b - 1) / h ** 2 * X ** a
                           * Y ** max(b - 2, 0))
                    assert np.allclose(grads[:, j, 0], gx, rtol=1e-14,
                                       atol=0.0)
                    assert np.allclose(grads[:, j, 1], gy, rtol=1e-14,
                                       atol=0.0)
                    assert np.allclose(laps[:, j], lap, rtol=1e-14,
                                       atol=1e-300)


def test_raising_exactness_keeps_polynomial_integrals():
    verts = np.array([[0.1, 0.0], [1.2, 0.2], [0.9, 1.3], [-0.2, 0.8]])
    lo = wg.polygon_quadrature(verts, 4)
    hi = wg.polygon_quadrature(verts, 9)
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-1.0, 1.0, len(wg.monomial_exponents(4)))
    for rule in (lo, hi):
        vals = np.zeros(rule.points.shape[0])
        for c, (a, b) in zip(coeffs, wg.monomial_exponents(4)):
            vals += c * rule.points[:, 0] ** a * rule.points[:, 1] ** b
        if rule is lo:
            ref = rule.integrate(vals)
        else:
            assert rule.integrate(vals) == pytest.approx(ref, rel=1e-13)


def test_cell_basis_first_functions():
    basis = wg.CellBasis(degree=2, center=np.array([0.5, 0.25]), scale=2.0)
    pts = np.array([[1.5, 0.75], [0.5, 0.25]])
    vals, grads, laps = basis.evaluate(pts)
    assert vals.shape == (2, 6) and grads.shape == (2, 6, 2)
    # basis 0 is the constant 1
    assert np.allclose(vals[:, 0], 1.0)
    assert np.allclose(grads[:, 0], 0.0) and np.allclose(laps[:, 0], 0.0)
    # basis 1 is (x - cx)/h: value 0.5 at x=1.5, gradient (1/h, 0)
    assert vals[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert grads[0, 1] == pytest.approx([0.5, 0.0], abs=1e-15)
    # basis for ((x - cx)/h)^2 has laplacian 2/h^2
    exps = wg.monomial_exponents(2)
    i_x2 = int(np.flatnonzero((exps[:, 0] == 2) & (exps[:, 1] == 0))[0])
    assert laps[:, i_x2] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert vals[1, i_x2] == pytest.approx(0.0, abs=1e-15)


def test_cell_basis_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    basis = wg.CellBasis(degree=3, center=np.array([0.3, -0.2]), scale=0.8)
    pts = rng.uniform(-0.5, 0.5, (5, 2))
    _, grads, _ = basis.evaluate(pts)
    h = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        vp, _, _ = basis.evaluate(pts + shift)
        vm, _, _ = basis.evaluate(pts - shift)
        fd = (vp - vm) / (2.0 * h)
        assert np.max(np.abs(fd - grads[:, :, axis])) < 1e-7


def test_cell_basis_laplacians_match_finite_differences():
    rng = np.random.default_rng(4)
    basis = wg.CellBasis(degree=4, center=np.array([0.1, 0.6]), scale=1.3)
    pts = rng.uniform(-0.5, 0.5, (5, 2))
    vals, _, laps = basis.evaluate(pts)
    h = 1e-4
    fd = -4.0 * vals
    for shift in ([h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]):
        vs, _, _ = basis.evaluate(pts + np.array(shift))
        fd = fd + vs
    fd /= h ** 2
    assert np.max(np.abs(fd - laps)) < 1e-5


def test_cell_mass_matrix_matches_sympy():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = wg.mesh_from_cells(verts, [[0, 1, 2]])
    geom = wg.cell_geometry(mesh, 0)
    basis = wg.CellBasis.for_cell(geom, 2)
    rule = wg.polygon_quadrature(verts, 4)
    vals, _, _ = basis.evaluate(rule.points)
    mass = vals.T @ (rule.weights[:, None] * vals)

    x, y = sp.symbols("x y")
    cx, cy = geom.centroid
    h = geom.diameter
    syms = [((x - cx) / h) ** a * ((y - cy) / h) ** b
            for a, b in wg.monomial_exponents(2)]
    for i in range(6):
        for j in range(i + 1):
            exact = float(sp.integrate(sp.integrate(syms[i] * syms[j],
                                                    (y, 0, 1 - x)), (x, 0, 1)))
            assert mass[i, j] == pytest.approx(exact, rel=1e-13, abs=1e-16)


def test_edge_basis_is_orthogonal_with_known_mass():
    # the Legendre edge basis in the arc parameter, whose diagonal mass
    # h_e / (2j + 1) the stabilizer and the error report use
    length = 0.7
    rule = wg.edge_quadrature(8)
    vals = legvander(rule.points, 3)
    mass = (length / 2.0) * (vals.T @ (rule.weights[:, None] * vals))
    expected = np.diag([length / (2 * j + 1) for j in range(4)])
    assert np.max(np.abs(mass - expected)) < 1e-14
    # endpoint normalization of the Legendre family
    ends = legvander(np.array([-1.0, 1.0]), 3)
    assert np.allclose(ends[1], 1.0)
    assert np.allclose(ends[0], [1.0, -1.0, 1.0, -1.0])


def test_negative_exactness_rejected():
    with pytest.raises(ValueError):
        wg.edge_quadrature(-1)
    with pytest.raises(ValueError):
        wg.polygon_quadrature(np.array([[0.0, 0.0], [1.0, 0.0]]), 2)


@pytest.mark.parametrize("degree", [2.5, 3.0, "3"])
def test_non_integer_degree_rejected(degree):
    with pytest.raises(ValueError, match="degree must be an integer"):
        wg.quadrature_exactness(degree)


def test_cell_batches_checks_at_call_time():
    # a bad degree raises at the call, not at the first batch
    mesh = wg.build_uniform_triangle_mesh(1)
    with pytest.raises(ValueError, match="k >= 2"):
        wg.weak_laplacian.cell_batches(mesh, 1)
