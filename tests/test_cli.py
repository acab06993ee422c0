"""Command line interface tests, run in-process through main(argv)."""

import numpy as np
import pytest
import scipy.sparse as sp

import wg_biharm as wg
from wg_biharm.cli import main


def test_study_csv_to_file(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["study", "--problem", "patch-2", "--k", "2",
                 "--mesh", "quad", "--levels", "1,2", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    records = wg.parse_csv_table(out.read_text())
    assert [r["n"] for r in records] == [1, 2]
    # the quadratic patch solution is reproduced to roundoff
    assert all(r["err_h2"] < 1e-9 for r in records)


def test_study_markdown_to_stdout(capsys):
    code = main(["study", "--problem", "patch-2", "--k", "2",
                 "--levels", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("| n | h | dofs |")
    assert "discrete H2" in out


def test_solve_reports_errors_and_dumps_matrix(tmp_path, capsys):
    dump = tmp_path / "reduced.txt"
    code = main(["solve", "--problem", "example1", "--k", "2", "--n", "2",
                 "--dump-matrix", str(dump)])
    assert code == 0
    out = capsys.readouterr().out
    assert "dofs 112" in out and "free 80" in out
    assert "solver cholesky" in out
    for label in ("discrete H2", "element L2", "edge L2 vb", "edge L2 vn",
                  "edge Linf vb", "edge Linf vn"):
        assert label in out
    lines = dump.read_text().strip().splitlines()
    first = lines[0].split()
    assert len(first) == 3 and first[0] == "0" and first[1] == "0"
    assert float(first[2]) > 0.0  # SPD diagonal head
    # exactly S over the free edge DOFs, the matrix the solver factors
    _, reduced, _, _ = wg.solve_on_mesh(wg.get_problem("example1"), 2,
                                        wg.build_uniform_triangle_mesh(2))
    assert reduced.matrix.shape == (32, 32) == (reduced.free.size,) * 2
    lower = sp.tril(reduced.matrix, format="coo")
    assert sorted(lines) == sorted(
        f"{i} {j} {v:.17g}" for i, j, v in zip(lower.row, lower.col,
                                               lower.data))


def test_solve_with_cg_reports_iterations(capsys):
    code = main(["solve", "--problem", "patch-2", "--k", "2", "--n", "2",
                 "--solver", "cg", "--tol", "1e-12"])
    assert code == 0
    assert "iterations" in capsys.readouterr().out


def test_unknown_problem_exits_2(capsys):
    code = main(["solve", "--problem", "nope", "--k", "2", "--n", "2"])
    assert code == 2
    assert "unknown problem" in capsys.readouterr().err


def test_bad_levels_exit_2(capsys):
    code = main(["study", "--problem", "example1", "--k", "2",
                 "--levels", ","])
    assert code == 2
    assert "levels" in capsys.readouterr().err
    code = main(["study", "--problem", "example1", "--k", "2",
                 "--levels", "4,4"])
    assert code == 2
    assert "levels repeat the mesh level 4" in capsys.readouterr().err
    code = main(["study", "--problem", "example1", "--k", "2",
                 "--levels", "2,x"])
    assert code == 2
    assert "--levels must be comma separated integers, got '2,x'" in (
        capsys.readouterr().err)


def test_low_degree_exits_2(capsys):
    code = main(["solve", "--problem", "example1", "--k", "1", "--n", "2"])
    assert code == 2
    assert "k >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--cell-exactness", "--edge-exactness"])
def test_quadrature_flags_are_unrecognized(capsys, flag):
    # the element's rules are fixed by k; no option overrides them
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--problem", "patch-2", "--k", "2", "--n", "2",
              flag, "9"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 9" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--max-iterations", "0"],
                                    ["--tol", "-1"], ["--tol", "nan"]])
def test_invalid_cg_settings_exit_2(capsys, option):
    code = main(["solve", "--problem", "example2", "--k", "3", "--n", "4",
                 "--solver", "cg"] + option)
    assert code == 2
    err = capsys.readouterr().err
    assert ("max_iterations" if option[0] == "--max-iterations"
            else "tolerance") in err


def test_bad_solver_setting_exits_before_assembly(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("assembly ran before the settings were checked")

    monkeypatch.setattr("wg_biharm.study.assemble_system", fail)
    code = main(["solve", "--problem", "example2", "--k", "3", "--n", "32",
                 "--solver", "cg", "--max-iterations", "0"])
    assert code == 2
    assert "max_iterations" in capsys.readouterr().err
