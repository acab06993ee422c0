"""Convergence study driver and table emission tests."""

import math
import weakref

import numpy as np
import pytest

import wg_biharm as wg
from wg_biharm import study
from wg_biharm.study import CSV_HEADER, build_mesh


def test_observed_order_frozen_cases():
    orders = wg.observed_order([0.4, 0.1], [0.2, 0.1])
    assert np.isnan(orders[0])
    assert orders[1] == pytest.approx(2.0, abs=1e-14)

    orders = wg.observed_order([8.0, 1.0], [0.2, 0.1])
    assert orders[1] == pytest.approx(3.0, abs=1e-14)

    orders = wg.observed_order([1.0, 1.0], [0.2, 0.1])
    assert orders[1] == pytest.approx(0.0, abs=1e-14)

    orders = wg.observed_order([1.0, 0.0, 1e-3], [0.4, 0.2, 0.1])
    assert np.isnan(orders[1]) and np.isnan(orders[2])


def test_build_mesh_families():
    assert build_mesh("tri", 2).n_cells == 8
    assert build_mesh("quad", 2).n_cells == 4
    with pytest.raises(ValueError, match="mesh family"):
        build_mesh("hex", 2)


def test_solve_on_mesh_patch_is_exact():
    problem = wg.get_problem("patch-2")
    mesh = build_mesh("quad", 2)
    u_h, reduced, result, seconds = wg.solve_on_mesh(problem, 2, mesh)
    assert result.method == "cholesky"
    assert seconds >= 0.0
    report = wg.compute_errors(mesh, 2, u_h, problem.solution)
    for value in report.as_dict().values():
        assert value < 1e-9
    assert reduced.layout.total == 4 * 6 + 12 * 4  # n=2 quad mesh at k=2


def test_solve_on_mesh_frees_the_assembled_system_before_solving(
        monkeypatch):
    assembled, alive = [], []

    def assemble(*args):
        system = wg.assemble_system(*args)
        assembled.append(weakref.ref(system.matrix))
        return system

    def solve(*args):
        alive.append(assembled[0]() is not None)
        return wg.solve(*args)

    monkeypatch.setattr(study, "assemble_system", assemble)
    monkeypatch.setattr(study, "solve", solve)
    wg.solve_on_mesh(wg.get_problem("example2"), 2, build_mesh("quad", 2))
    assert alive == [False]


def test_solve_on_mesh_builds_no_full_matrix(monkeypatch):
    # the pipeline scatters S over the edge DOFs; the full (total x total)
    # matrix is built only when a reference is asked for
    shapes = []
    exact = wg.assembly.sp.coo_matrix

    def recorded(*args, **kwargs):
        matrix = exact(*args, **kwargs)
        shapes.append(matrix.shape)
        return matrix

    monkeypatch.setattr(wg.assembly.sp, "coo_matrix", recorded)
    mesh = build_mesh("quad", 3)
    _, reduced, _, _ = wg.solve_on_mesh(wg.get_problem("example2"), 3, mesh)
    layout = reduced.layout
    edges = layout.total - layout.trace_offset
    assert (edges, edges) in shapes
    assert (layout.total, layout.total) not in shapes


@pytest.mark.parametrize("levels", [(), 4])
def test_levels_that_name_no_mesh_level_are_rejected(monkeypatch, levels):
    def fail(*args):
        raise AssertionError("a mesh was built before the levels were checked")

    monkeypatch.setattr(study, "build_mesh", fail)
    with pytest.raises(ValueError, match="levels"):
        wg.run_study(wg.StudyConfig("example2", 2, levels=levels))


def test_non_integer_degree_or_level_rejected():
    problem = wg.get_problem("example2")
    with pytest.raises(ValueError, match="degree must be an integer"):
        wg.solve_on_mesh(problem, 2.5, build_mesh("tri", 2))
    with pytest.raises(ValueError, match="mesh level 4.5 is not an integer"):
        wg.run_study(wg.StudyConfig("example2", 2, levels=(2, 4.5)))
    with pytest.raises(ValueError, match="degree must be an integer"):
        wg.run_study(wg.StudyConfig("example2", 2.5, levels=(2,)))


@pytest.mark.parametrize("name, call", [
    ("tolerance", lambda: wg.SolverConfig(tolerance=True)),
    ("max_iterations", lambda: wg.SolverConfig(max_iterations=True)),
    ("patch degree", lambda: wg.polynomial_patch(True)),
    ("mesh level", lambda: wg.run_study(
        wg.StudyConfig("example2", 2, levels=(True, 4)))),
    ("n must", lambda: wg.build_uniform_triangle_mesh(True)),
    ("n must", lambda: wg.build_uniform_quad_mesh(True)),
], ids=["tolerance", "max_iterations", "patch", "levels", "tri", "quad"])
def test_a_bool_is_not_a_number(name, call):
    # bool is an int subclass, so True passed as 1 (a tolerance of 1.0,
    # one iteration, "patch-True", mesh level 1)
    with pytest.raises(ValueError, match=name):
        call()


def test_run_study_errors_decrease_monotonically():
    table = wg.run_study(wg.StudyConfig(problem="example1", degree=2,
                                        levels=(2, 4, 8)))
    assert table.problem == "example1"
    assert [row.n for row in table.rows] == [2, 4, 8]
    hs = [row.h for row in table.rows]
    assert hs[0] == pytest.approx(2.0 * hs[1], rel=1e-13)
    for _, attr, _ in wg.study.NORM_COLUMNS:
        series = table.error_series(attr)
        assert np.all(np.diff(series) < 0.0)


def test_run_study_accepts_problem_object_and_is_deterministic():
    problem = wg.get_problem("example1")
    t1 = wg.run_study(wg.StudyConfig(problem=problem, degree=2,
                                     levels=(2, 4)))
    t2 = wg.run_study(wg.StudyConfig(problem="example1", degree=2,
                                     levels=(2, 4)))
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.errors == r2.errors  # bitwise equal dataclasses
        assert r1.dofs == r2.dofs and r1.h == r2.h


def test_csv_round_trip_is_exact():
    table = wg.run_study(wg.StudyConfig(problem="example1", degree=2,
                                        levels=(2, 4)))
    text = wg.emit_table(table, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3

    records = wg.parse_csv_table(text)
    assert [r["n"] for r in records] == [2, 4]
    for row, rec in zip(table.rows, records):
        assert rec["h"] == row.h
        assert rec["dofs"] == row.dofs
        assert rec["solve_seconds"] == row.solve_seconds
        for stem, attr, _ in wg.study.NORM_COLUMNS:
            assert rec[f"err_{stem}"] == getattr(row.errors, attr)
    # first row has no order
    assert math.isnan(records[0]["ord_h2"])
    assert records[1]["ord_l2"] == table.orders("l2_interior")[1]


def test_parse_rejects_foreign_header():
    with pytest.raises(ValueError, match="header"):
        wg.parse_csv_table("a,b,c\n1,2,3\n")


def test_parse_rejects_a_row_whose_field_count_differs_from_the_header():
    row = ",".join(["4", "0.25", "100"] + ["1.0", "-"] * 6 + ["0.01"])
    assert wg.parse_csv_table(f"{CSV_HEADER}\n{row}\n")[0]["n"] == 4
    for bad in ("4,0.25,100,1.0", row + ",7"):
        with pytest.raises(ValueError, match="row 2 has"):
            wg.parse_csv_table(f"{CSV_HEADER}\n{row}\n{bad}\n")


def test_markdown_table_shape_and_labels():
    table = wg.run_study(wg.StudyConfig(problem="patch-2", degree=2,
                                        levels=(2,)))
    text = wg.emit_table(table, "markdown")
    lines = text.strip().splitlines()
    assert len(lines) == 3  # header, rule, one data row
    for label in ("discrete H2", "element L2", "edge L2 vb", "edge L2 vn",
                  "edge Linf vb", "edge Linf vn"):
        assert label in lines[0]
    # single-level table: every order cell renders as "-"
    assert lines[2].split("|")[1:-1][4].strip() == "-"
    with pytest.raises(ValueError, match="format"):
        wg.emit_table(table, "latex")


def test_cg_study_matches_direct_study():
    cfg = wg.SolverConfig(method="cg", tolerance=1e-12)
    direct = wg.run_study(wg.StudyConfig(problem="example1", degree=2,
                                         levels=(2,)))
    cg = wg.run_study(wg.StudyConfig(problem="example1", degree=2,
                                     levels=(2,), solver=cfg))
    for attr in ("h2_energy", "l2_interior", "l2_edge_flux"):
        a = getattr(direct.rows[0].errors, attr)
        b = getattr(cg.rows[0].errors, attr)
        assert b == pytest.approx(a, rel=1e-6)
