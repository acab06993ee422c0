"""Global DOF layout, assembly, static condensation, boundary elimination
and matrix dump tests.

Frozen DOF counts: the element has dim P_k interior DOFs per cell and
2k per edge (k trace + k flux), so the n = 1 triangle mesh at k = 2 has
2*6 + 5*4 = 32 DOFs and the single-quad mesh has 6 + 4*4 = 22.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import wg_biharm as wg
from wg_biharm import assembly
from wg_biharm.weak_laplacian import _batch_operators, cell_batches
from conftest import (jittered_triangle_mesh, monomial_field,
                      polygonal_mesh_cells, random_wg_field,
                      reference_load, reference_matrix, reference_reduced)

# 4-, 6- and 8-vertex cells in one mesh, a tri mesh of four shapes, and a
# jittered one of 50, whose one group the batch-size bound cuts into
# several batches at k = 4
MIXED_MESHES = {
    "polygonal": lambda: wg.mesh_from_cells(*polygonal_mesh_cells()),
    "tri": lambda: wg.build_uniform_triangle_mesh(5),
    "jittered": lambda: jittered_triangle_mesh(5, 3),
}


def test_total_dof_counts_frozen():
    assert wg.build_dof_layout(wg.build_uniform_triangle_mesh(1), 2).total == 32
    assert wg.build_dof_layout(wg.build_uniform_quad_mesh(1), 2).total == 22
    assert wg.build_dof_layout(wg.build_uniform_triangle_mesh(2), 3).total == 176
    with pytest.raises(ValueError):
        wg.build_dof_layout(wg.build_uniform_triangle_mesh(1), 1)


def test_layout_spans_partition_the_index_range():
    # the cells' local DOFs hit every interior DOF once and every trace
    # and flux DOF once per cell incident to its edge
    mesh = wg.build_uniform_triangle_mesh(2)
    layout = wg.build_dof_layout(mesh, 2)
    seen = np.zeros(layout.total, dtype=int)
    np.add.at(seen, layout.cell_dofs(mesh, np.arange(mesh.n_cells)), 1)
    per_edge = np.repeat(np.where(mesh.boundary_edges, 1, 2), 2)
    assert np.array_equal(seen, np.concatenate(
        [np.ones(mesh.n_cells * 6, dtype=int), per_edge, per_edge]))


def test_cell_dofs_matches_local_gather_order():
    mesh = wg.build_uniform_quad_mesh(2)
    layout = wg.build_dof_layout(mesh, 2)
    rng = np.random.default_rng(2)
    field = random_wg_field(mesh, 2, rng)
    vec = layout.field_to_vector(field)
    for c in range(mesh.n_cells):
        gdofs = layout.cell_dofs(mesh, c)
        assert np.array_equal(vec[gdofs], wg.gather_local_dofs(field, mesh, c))


def test_field_vector_round_trip():
    mesh = wg.build_uniform_triangle_mesh(3)
    layout = wg.build_dof_layout(mesh, 3)
    rng = np.random.default_rng(8)
    field = random_wg_field(mesh, 3, rng)
    vec = layout.field_to_vector(field)
    assert vec.shape == (layout.total,)
    back = layout.vector_to_field(vec)
    assert np.array_equal(back.interior, field.interior)
    assert np.array_equal(back.trace, field.trace)
    assert np.array_equal(back.flux, field.flux)


def test_field_vector_conversions_reject_wrong_shapes():
    # a vector with one extra block per edge would otherwise split into
    # flux blocks of the wrong width
    mesh = wg.build_uniform_triangle_mesh(2)
    layout = wg.build_dof_layout(mesh, 3)
    with pytest.raises(ValueError, match=rf"\({layout.total},\)"):
        layout.vector_to_field(np.zeros(layout.total + mesh.n_edges))
    field = random_wg_field(mesh, 3, np.random.default_rng(3))
    field.flux = field.flux[:, :2]
    with pytest.raises(ValueError, match=r"flux block .*\(16, 3\)"):
        layout.field_to_vector(field)


def test_assembled_matrix_symmetric_and_load_is_source_moment():
    mesh = wg.build_uniform_triangle_mesh(1)
    one = lambda x, y: np.ones_like(x)
    system = wg.assemble_system(mesh, 2, one)
    A, load = reference_matrix(system), reference_load(system, one)
    asym = np.max(np.abs((A - A.T).toarray()))
    assert asym < 1e-12 * np.max(np.abs(A.toarray()))
    layout = system.layout
    # (f, v_0) with f = 1 is the cell area against the constant monomial,
    # so T_00 times it on the first orthonormal mode
    for c in range(mesh.n_cells):
        t00 = wg.local_operators(mesh, c, 2).basis_change[0, 0]
        assert load[c * layout.cell_block] == pytest.approx(0.5 * t00,
                                                            abs=1e-14)
    assert np.max(np.abs(load[layout.trace_offset:])) == 0.0


def test_zero_source_gives_zero_load():
    # the condensed load g and every cell's z = L^-1 b_T
    mesh = wg.build_uniform_quad_mesh(2)
    system = wg.assemble_system(mesh, 2, lambda x, y: np.zeros_like(x))
    assert not system.schur_rhs.any()
    assert not any(z.any() for *_, z in system.recovery)


def test_projected_affine_fields_in_global_nullspace():
    mesh = wg.build_uniform_triangle_mesh(2)
    system = wg.assemble_system(mesh, 2, lambda x, y: np.zeros_like(x))
    A = reference_matrix(system)
    scale = np.max(np.abs(A.data))
    for a, b in [(0, 0), (1, 0), (0, 1)]:
        field = wg.project_field(mesh, 2, monomial_field(a, b))
        vec = system.layout.field_to_vector(field)
        assert np.max(np.abs(A @ vec)) < 1e-11 * scale


def test_assembly_is_deterministic():
    mesh = wg.build_uniform_triangle_mesh(3)

    def f(x, y):
        return x * y

    ref, other = (wg.assemble_system(mesh, 2, f) for _ in range(2))
    assert np.array_equal(ref.schur.data, other.schur.data)
    assert np.array_equal(ref.schur.indices, other.schur.indices)
    assert np.array_equal(ref.schur.indptr, other.schur.indptr)
    assert np.array_equal(ref.schur_rhs, other.schur_rhs)
    assert len(ref.recovery) == len(other.recovery)
    for got, want in zip(ref.recovery, other.recovery):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(MIXED_MESHES))
def test_batched_assembly_matches_per_cell_scatter(name, k):
    mesh = MIXED_MESHES[name]()
    problem = wg.get_problem("example2")
    system = wg.assemble_system(mesh, k, problem.source)
    layout = system.layout

    # the batches partition the cells, one vertex count per batch, and
    # each cell reads the operators of its shape's representative
    batches = cell_batches(mesh, k)
    for reps, cells, which in batches:
        assert np.unique(mesh.cell_sizes[cells]).size == 1
        op = _batch_operators(mesh, reps, k)
        assert np.array_equal(reps, np.unique(mesh.cell_shapes[cells]))
        assert op.stiffness.shape[0] == reps.size
        assert np.array_equal(reps[which], mesh.cell_shapes[cells])
    assert np.array_equal(np.sort(np.concatenate([b[1] for b in batches])),
                          np.arange(mesh.n_cells))
    if name == "jittered" and k == 4:
        assert len(batches) > 1  # the batch-size bound cuts this group

    # reference: one local_operators call and one scatter per cell, exact
    # zeros included, which assemble_system leaves out
    A = np.zeros((layout.total, layout.total))
    load = np.zeros(layout.total)
    for c in range(mesh.n_cells):
        op = wg.local_operators(mesh, c, k)
        g = layout.cell_dofs(mesh, c)
        A[np.ix_(g, g)] += op.stiffness + op.stabilizer
        f = problem.source(op.rule.points[:, 0], op.rule.points[:, 1])
        load[g[:layout.cell_block]] += op.values.T @ (op.rule.weights * f)
    gap = np.max(np.abs(reference_matrix(system).toarray() - A))
    assert gap <= 1e-13 * np.max(np.abs(A))
    gap = np.max(np.abs(reference_load(system, problem.source) - load))
    assert gap <= 1e-13 * np.max(np.abs(load))


def test_assembled_matrices_store_no_exact_zeros():
    # at k = 2 the gradient of a constant zeroes whole columns of B; at
    # k >= 3 the Legendre column mask leaves exact zeros in every cell
    problem = wg.get_problem("example2")
    cases = [(wg.build_uniform_triangle_mesh(8), 2)] + [
        (make(), k) for make in MIXED_MESHES.values() for k in (3, 4)]
    for mesh, k in cases:
        system = wg.assemble_system(mesh, k, problem.source)
        reduced = wg.apply_boundary_conditions(system, problem.trace,
                                               problem.normal_flux)
        assert np.all(reference_matrix(system).data != 0.0)
        assert np.all(system.schur.data != 0.0)
        assert np.all(reduced.matrix.data != 0.0)


def test_boundary_dofs_and_zero_data_elimination():
    mesh = wg.build_uniform_triangle_mesh(2)
    system = wg.assemble_system(mesh, 2, lambda x, y: np.ones_like(x))
    layout = system.layout
    zero = lambda x, y: np.zeros_like(x)
    reduced = wg.apply_boundary_conditions(
        system, zero, lambda x, y, nx, ny: np.zeros_like(x))
    assert np.all(np.diff(reduced.free_dofs) > 0)
    boundary = np.setdiff1d(np.arange(layout.total), reduced.free_dofs)
    n_bedges = int(np.sum(mesh.boundary_edges))
    assert boundary.size == n_bedges * 4
    numbering = layout.vector_to_field(np.arange(layout.total))
    on_boundary = mesh.boundary_edges
    assert np.array_equal(boundary, np.concatenate(
        [numbering.trace[on_boundary].ravel(),
         numbering.flux[on_boundary].ravel()]))

    assert not reduced.imposed.any()
    assert reduced.free_dofs.size == layout.total - boundary.size
    edges = reduced.free_dofs[layout.trace_offset:]
    assert np.array_equal(reduced.rhs,
                          system.schur_rhs[edges - layout.trace_offset])
    assert reduced.matrix.shape == (edges.size,) * 2

    full = reduced.expand(np.ones(edges.size))
    assert np.all(full[edges] == 1.0)
    assert np.all(full[boundary] == 0.0)


def test_boundary_flux_data_uses_outward_normal():
    # u = sin(pi x) sin(pi y): on the x = 0 side the outward normal
    # derivative is -pi sin(pi y)
    mesh = wg.build_uniform_triangle_mesh(2)
    problem = wg.get_problem("example2")
    system = wg.assemble_system(mesh, 2, problem.source)
    reduced = wg.apply_boundary_conditions(system, problem.trace,
                                           problem.normal_flux)
    layout = system.layout
    checked = 0
    for e in np.flatnonzero(mesh.boundary_edges):
        if abs(mesh.edge_midpoints[e, 0]) > 1e-12:
            continue
        assert mesh.edge_normals[e] == pytest.approx([-1.0, 0.0], abs=1e-14)
        # the element's edge projection at k = 2
        expected = wg.project_edge(
            mesh, e, lambda x, y: -np.pi * np.sin(np.pi * y), 1)
        # the edge's flux slot in S's numbering
        lo = layout.flux_offset - layout.trace_offset + e * layout.edge_block
        got = list(reduced.imposed[lo:lo + 2])
        assert got == pytest.approx(expected, abs=1e-13)
        checked += 1
    assert checked == 2


def test_boundary_trace_data_projection():
    mesh = wg.build_uniform_quad_mesh(2)
    problem = wg.get_problem("patch-2")
    system = wg.assemble_system(mesh, 2, problem.source)
    reduced = wg.apply_boundary_conditions(system, problem.trace,
                                           problem.normal_flux)
    for e in np.flatnonzero(mesh.boundary_edges):
        expected = wg.project_edge(mesh, e, problem.trace, 1)
        lo = e * system.layout.edge_block  # the edge's trace slot in S
        got = list(reduced.imposed[lo:lo + 2])
        assert got == pytest.approx(expected, abs=1e-13)


def test_boundary_data_equal_projection_of_exact_solution():
    # the imposed boundary DOFs and the error report's projection take one
    # edge rule to the solution's own trace and normal derivative, so the
    # boundary part of the reported error is exactly zero; on the polygonal
    # mesh the edge numbering is not the grid's
    problem = wg.get_problem("example2")
    for mesh in (wg.build_uniform_triangle_mesh(4),
                 wg.mesh_from_cells(*polygonal_mesh_cells())):
        u_h, _, _, _ = wg.solve_on_mesh(problem, 2, mesh)
        proj = wg.project_field(mesh, 2, problem.solution)
        edges = mesh.boundary_edges
        assert np.array_equal(u_h.trace[edges], proj.trace[edges])
        assert np.array_equal(u_h.flux[edges], proj.flux[edges])


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("mesh_name", sorted(MIXED_MESHES))
def test_legendre_orthogonal_couplings_are_not_stored(mesh_name, k):
    # grad phi . n has degree k - 3 and phi degree k - 2 on an edge, so the
    # weak Laplacian does not see trace modes j >= k - 2 nor the flux mode
    # k - 1: such a trace DOF couples to no edge DOF but itself, and such a
    # flux DOF to no trace DOF and no flux DOF of another edge
    mesh = MIXED_MESHES[mesh_name]()
    system = wg.assemble_system(mesh, k, lambda x, y: np.zeros_like(x))
    layout = system.layout
    numbering = layout.vector_to_field(np.arange(layout.total))
    A = reference_matrix(system)

    rows = numbering.trace[:, k - 2:].ravel()
    coo = A[rows].tocoo()
    edge_col = coo.col >= layout.trace_offset
    assert np.array_equal(coo.col[edge_col], rows[coo.row[edge_col]])

    rows = numbering.flux[:, k - 1]
    coo = A[rows].tocoo()
    edge_col = coo.col >= layout.trace_offset
    assert np.all(coo.col[edge_col] >= layout.flux_offset)
    assert np.array_equal((coo.col[edge_col] - layout.flux_offset) // k,
                          coo.row[edge_col])


def test_reduced_matrix_positive_definite_small():
    mesh = wg.build_uniform_triangle_mesh(2)
    system = wg.assemble_system(mesh, 2, lambda x, y: np.zeros_like(x))
    zero = lambda x, y: np.zeros_like(x)
    reduced = wg.apply_boundary_conditions(
        system, zero, lambda x, y, nx, ny: np.zeros_like(x))
    eig = np.linalg.eigvalsh(reduced.matrix.toarray())
    assert eig[0] > 0.0


def test_dump_matrix_lower_triangle_format(tmp_path):
    mesh = wg.build_uniform_triangle_mesh(1)
    system = wg.assemble_system(mesh, 2, lambda x, y: np.zeros_like(x))
    path = tmp_path / "matrix.txt"
    wg.dump_matrix(system.schur, path)

    dense = system.schur.toarray()
    entries = {}
    last = None
    for line in path.read_text().splitlines():
        si, sj, sv = line.split()
        i, j = int(si), int(sj)
        assert i >= j
        assert last is None or (i, j) > last
        last = (i, j)
        entries[(i, j)] = float(sv)
    for (i, j), v in entries.items():
        assert v == dense[i, j]
    # every stored lower-triangle entry is present
    import scipy.sparse as sp
    coo = sp.tril(system.schur.tocoo(), k=0, format="coo")
    assert len(entries) == coo.nnz


def _brick_mesh(n, seed):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from bench import brick_mesh  # the benchmark's jittered brick mesh
    return brick_mesh(n, seed)


@pytest.mark.parametrize("make, k", [
    (lambda: wg.build_uniform_triangle_mesh(4), 2),
    (lambda: wg.build_uniform_triangle_mesh(4), 3),
    (lambda: wg.build_uniform_triangle_mesh(4), 4),
    (lambda: wg.build_uniform_triangle_mesh(4), 5),
    (lambda: wg.build_uniform_quad_mesh(4), 4),
    (lambda: jittered_triangle_mesh(5, 3), 3),
    (lambda: wg.mesh_from_cells(*polygonal_mesh_cells()), 5),
    (lambda: _brick_mesh(6, 2), 3),
], ids=["tri4-k2", "tri4-k3", "tri4-k4", "tri4-k5", "quad4-k4",
        "jittered-k3", "polygons-k5", "brick6-k3"])
def test_condensed_system_is_the_schur_complement_of_the_reference(make, k):
    # S and g are condensed shape by shape; the reference eliminates the
    # interiors from the full free-DOF matrix, densely
    problem = wg.get_problem("example2")
    system = wg.assemble_system(make(), k, problem.source)
    reduced = wg.apply_boundary_conditions(system, problem.trace,
                                           problem.normal_flux)
    matrix, rhs = reference_reduced(system, reduced, problem.source)
    a, m = matrix.toarray(), system.layout.trace_offset
    solved = np.linalg.solve(a[:m, :m], np.column_stack([a[:m, m:],
                                                         rhs[:m]]))
    schur = a[m:, m:] - a[m:, :m] @ solved[:, :-1]
    g = rhs[m:] - a[m:, :m] @ solved[:, -1]
    for got, want in ((reduced.matrix.toarray(), schur), (reduced.rhs, g)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _spoil_first_interior_block(monkeypatch, spoil):
    """Assemble with the first shape's interior block passed through
    ``spoil``."""
    exact = assembly._batch_operators

    def spoiled(mesh, cells, k):
        op = exact(mesh, cells, k)
        n, stiffness = wg.polynomial_space_dim(k), op.stiffness.copy()
        stiffness[0, :n, :n] = spoil(stiffness[0, :n, :n]
                                     + op.stabilizer[0, :n, :n])
        stiffness[0, :n, :n] -= op.stabilizer[0, :n, :n]
        return dataclasses.replace(op, stiffness=stiffness)

    monkeypatch.setattr(assembly, "_batch_operators", spoiled)
    problem = wg.get_problem("example2")
    wg.assemble_system(wg.build_uniform_triangle_mesh(2), 2, problem.source)


def test_indefinite_interior_block_raises_solver_error(monkeypatch):
    with pytest.raises(wg.SolverError, match="interior block is not positive"):
        _spoil_first_interior_block(monkeypatch, lambda block: block - 2.0
                                    * np.linalg.eigvalsh(block)[-1]
                                    * np.eye(len(block)))


def test_non_finite_interior_block_raises_solver_error(monkeypatch):
    def spoil(block):
        block[0, 0] = np.inf
        return block

    with pytest.raises(wg.SolverError, match="interior block is not finite"):
        _spoil_first_interior_block(monkeypatch, spoil)
