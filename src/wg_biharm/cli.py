"""Command line front end.

    wg-biharm study --problem example1 --k 2 --mesh tri \
        --levels 4,8,16,32 --solver cholesky --format csv --out table.csv
    wg-biharm solve --problem example2 --k 3 --n 16 --dump-matrix m.txt

``study`` runs a refinement sweep and prints (or writes) the error table;
``solve`` runs a single level and prints the six errors, with an optional
coordinate-format dump of the condensed matrix S that the solver factors.
"""

from __future__ import annotations

import argparse
import sys

from .assembly import dump_matrix
from .norms import compute_errors
from .problems import get_problem
from .solver import DIRECT_RESIDUAL_LIMIT, SolverConfig, SolverError
from .study import (NORM_COLUMNS, StudyConfig, build_mesh, emit_table,
                    run_study, solve_on_mesh)


def _solver_config(args):
    return SolverConfig(method=args.solver, tolerance=args.tol,
                        max_iterations=args.max_iterations)


def _add_common(p):
    p.add_argument("--problem", required=True,
                   help="example1, example2 or patch-<k>")
    p.add_argument("--k", type=int, required=True,
                   help="element degree, k >= 2")
    p.add_argument("--mesh", default=StudyConfig.mesh_family,
                   choices=["tri", "quad"])
    p.add_argument("--solver", default=SolverConfig.method,
                   choices=["cholesky", "cg"],
                   help="cholesky: sparse LDL^T (SuperLU splu, symmetric "
                        "minimum-degree ordering, no pivoting, positive "
                        "pivots checked); cg: conjugate gradients with a "
                        "two-level preconditioner (edge-block smoother, "
                        "coarse solve on edge trace modes 0-1, mode 0 at "
                        "k = 2, and flux modes 0 to k-2)")
    p.add_argument("--tol", type=float, default=SolverConfig.tolerance,
                   help="CG stops once the condensed system's residual "
                        "is at most tol times the norm of its own "
                        "right-hand side; either solver then takes one "
                        "correction step if that relative residual "
                        f"exceeds tol (or {DIRECT_RESIDUAL_LIMIT:g} on the "
                        "direct route, if smaller)")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="CG iteration cap on the condensed trace/flux "
                        "system (default 50 sqrt(n))")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="wg-biharm",
        description="Weak Galerkin solver for the clamped biharmonic "
                    "problem on polygonal meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("study", help="refinement study with error table")
    _add_common(st)
    st.add_argument("--levels", default=",".join(map(str, StudyConfig.levels)),
                    help="comma separated mesh levels n")
    st.add_argument("--format", default="markdown",
                    choices=["markdown", "csv"])
    st.add_argument("--out", default=None,
                    help="write the table here instead of stdout")

    so = sub.add_parser("solve", help="single solve with error report")
    _add_common(so)
    so.add_argument("--n", type=int, required=True, help="mesh level")
    so.add_argument("--dump-matrix", default=None,
                    help="write the condensed trace/flux matrix S over "
                         "the free edge DOFs, the matrix the solver "
                         "factors, as 'i j value' lines (0-based, lower "
                         "triangle)")
    return parser


def _cmd_study(args):
    try:
        levels = tuple(int(tok) for tok in args.levels.split(",") if tok)
    except ValueError:
        raise ValueError(f"--levels must be comma separated integers, got "
                         f"{args.levels!r}") from None
    if not levels:
        raise ValueError("--levels must list at least one mesh level")
    config = StudyConfig(problem=args.problem, degree=args.k,
                         mesh_family=args.mesh, levels=levels,
                         solver=_solver_config(args))
    text = emit_table(run_study(config), args.format)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args):
    config = _solver_config(args)
    problem = get_problem(args.problem)
    mesh = build_mesh(args.mesh, args.n)
    u_h, reduced, result, seconds = solve_on_mesh(problem, args.k, mesh,
                                                  config)
    if args.dump_matrix:
        dump_matrix(reduced.matrix, args.dump_matrix)
    report = compute_errors(mesh, args.k, u_h, problem.solution)
    print(f"problem {problem.name}  k {args.k}  mesh {args.mesh}  "
          f"n {args.n}  dofs {reduced.layout.total}  "
          f"free {reduced.free_dofs.size}")
    line = f"solver {result.method}  residual {result.residual:.17g}"
    if result.iterations is not None:
        line += f"  iterations {result.iterations}"
    print(line + f"  seconds {seconds:.17g}")
    values = report.as_dict()
    for (_, attr, label) in NORM_COLUMNS:
        print(f"{label:>13}: {values[attr]:.17g}")
    return 0


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        if args.command == "study":
            return _cmd_study(args)
        return _cmd_solve(args)
    except (ValueError, OSError, SolverError) as err:
        print(f"wg-biharm: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
