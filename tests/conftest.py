"""Shared helpers: random single-cell meshes, monomial fields, and the
session-scoped convergence studies reused by the acceptance suite."""

import time

import numpy as np
import pytest

import wg_biharm as wg


def single_cell_mesh(vertices):
    vertices = np.asarray(vertices, dtype=float)
    return wg.mesh_from_cells(vertices, [list(range(len(vertices)))])


def grid_vertex(i, j):
    """Vertex id of grid point (i, j) in polygonal_mesh_cells."""
    return j * 5 + i


def polygonal_mesh_cells():
    """Two hexagons, a square and a non-convex L-shaped octagon on a 4 x 2
    grid of squares, interior vertices jittered: (vertices, cells)."""
    rng = np.random.default_rng(7)
    xg, yg = np.meshgrid(np.arange(5.0), np.arange(3.0), indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()]) / 4.0
    v = grid_vertex
    vertices[[v(1, 1), v(2, 1), v(3, 1)]] += rng.uniform(-0.03, 0.03, (3, 2))
    cells = [[v(0, 0), v(1, 0), v(2, 0), v(2, 1), v(1, 1), v(0, 1)],
             [v(2, 0), v(3, 0), v(4, 0), v(4, 1), v(4, 2), v(3, 2), v(3, 1),
              v(2, 1)],
             [v(0, 1), v(1, 1), v(2, 1), v(2, 2), v(1, 2), v(0, 2)],
             [v(2, 1), v(3, 1), v(3, 2), v(2, 2)]]
    return vertices, cells


def jittered_triangle_mesh(n, seed):
    """The uniform n x n triangle mesh with its interior vertices moved by
    up to 0.2 h, so that no two cells share a shape."""
    mesh = wg.build_uniform_triangle_mesh(n)
    vertices = mesh.vertices.copy()
    inside = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    vertices[inside] += rng.uniform(-0.2, 0.2, (inside.sum(), 2)) / n
    return wg.mesh_from_cells(vertices, mesh.cells)


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def random_triangle_cell(rng):
    """Random well-shaped triangle, random size and position."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (3, 2))
        a = 0.5 * _cross2(pts[1] - pts[0], pts[2] - pts[0])
        if a < 0:
            pts = pts[::-1]
            a = -a
        lmax = max(np.linalg.norm(pts[i] - pts[j])
                   for i in range(3) for j in range(i))
        if a > 0.15 * lmax ** 2:
            scale = rng.uniform(0.2, 1.5)
            shift = rng.uniform(-2.0, 2.0, 2)
            return single_cell_mesh(pts * scale + shift)


def random_quad_cell(rng):
    """Random convex quadrilateral built by jittering a square."""
    base = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    while True:
        pts = base + rng.uniform(-0.22, 0.22, (4, 2))
        convex = all(
            _cross2(pts[(i + 1) % 4] - pts[i],
                    pts[(i + 2) % 4] - pts[(i + 1) % 4]) > 0.05
            for i in range(4))
        if convex:
            scale = rng.uniform(0.2, 1.5)
            shift = rng.uniform(-2.0, 2.0, 2)
            return single_cell_mesh(pts * scale + shift)


def random_cell(rng):
    return random_triangle_cell(rng) if rng.random() < 0.5 \
        else random_quad_cell(rng)


def monomial_field(a, b):
    """ScalarField x^a y^b with exact gradient and Laplacian."""

    def val(x, y):
        return x ** a * y ** b

    def grad(x, y):
        gx = a * x ** (a - 1) * y ** b if a > 0 else np.zeros_like(x)
        gy = b * x ** a * y ** (b - 1) if b > 0 else np.zeros_like(y)
        return gx, gy

    def lap(x, y):
        out = np.zeros_like(np.asarray(x, dtype=float))
        if a > 1:
            out = out + a * (a - 1) * x ** (a - 2) * y ** b
        if b > 1:
            out = out + b * (b - 1) * x ** a * y ** (b - 2)
        return out

    return wg.ScalarField(val, grad, lap)


def reference_reduced(system, reduced):
    """The reduced system before condensation: the reference matrix A over
    ``reduced.free_dofs`` (interiors first) and its right-hand side."""
    free = reduced.free_dofs
    imposed = np.zeros(system.layout.total)
    imposed[system.layout.trace_offset:] = reduced.imposed
    rhs = (system.load - system.matrix @ imposed)[free]
    return system.matrix[free][:, free].tocsr(), rhs


def random_wg_field(mesh, degree, rng):
    f = wg.WgField.zeros(mesh, degree)
    f.interior[:] = rng.uniform(-1.0, 1.0, f.interior.shape)
    f.trace[:] = rng.uniform(-1.0, 1.0, f.trace.shape)
    f.flux[:] = rng.uniform(-1.0, 1.0, f.flux.shape)
    return f


class TimedStudy:
    def __init__(self, table, seconds):
        self.table = table
        self.seconds = seconds


def _timed_study(**kwargs):
    t0 = time.perf_counter()
    table = wg.run_study(wg.StudyConfig(**kwargs))
    return TimedStudy(table, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def study_ex1_k2():
    return _timed_study(problem="example1", degree=2, mesh_family="tri",
                        levels=(8, 16, 32))


@pytest.fixture(scope="session")
def study_ex1_k3():
    # includes the coarse level so pre-asymptotic orders stay on record
    return _timed_study(problem="example1", degree=3, mesh_family="tri",
                        levels=(4, 8, 16, 32))


@pytest.fixture(scope="session")
def study_ex2_k2():
    return _timed_study(problem="example2", degree=2, mesh_family="tri",
                        levels=(8, 16, 32))


@pytest.fixture(scope="session")
def study_ex2_k3():
    return _timed_study(problem="example2", degree=3, mesh_family="tri",
                        levels=(8, 16, 32))
