"""Before/after measurement of static condensation in the solve layer.

    python tools/bench_condensation.py --repeat 5 --out BENCH_condensation.json

"Before" solves the full reduced system with ``solve_linear`` (what
``solve`` did before it condensed); "after" is ``solve``, which hands
only the trace/flux Schur complement to the same routine.  Both run in
this process, alternating, on the same reduced systems, with BLAS pinned
to one thread.  Each case records the unknowns and nonzeros of the matrix
that the global solver sees, CG iterations or the SuperLU fill
(``L.nnz + U.nnz``) of that matrix, and the median solve seconds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import wg_biharm as wg  # noqa: E402
from bench import brick_mesh  # noqa: E402
from wg_biharm.solver import _condense  # noqa: E402

CASES = [  # name, mesh, degree, solver method
    ("quad-n24-k4-cg", lambda: wg.build_uniform_quad_mesh(24), 4, "cg"),
    ("quad-n24-k4-direct", lambda: wg.build_uniform_quad_mesh(24), 4,
     "cholesky"),
    ("brick-n24-seed3-k3-direct", lambda: brick_mesh(24, 3), 3, "cholesky"),
]


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def measure(mesh, degree, method, repeat):
    problem = wg.get_problem("example2")
    system = wg.assemble_system(mesh, degree, problem.source)
    reduced = wg.apply_boundary_conditions(system, problem.trace,
                                           problem.normal_flux)
    layout = reduced.layout
    _, _, schur = _condense(reduced.matrix, layout.n_cells,
                            layout.cell_block)
    config = wg.SolverConfig(method=method)
    seconds = {"before": [], "after": []}
    runs = {}
    for _ in range(repeat):
        t, runs["before"] = _timed(lambda: wg.solve_linear(
            reduced.matrix, reduced.rhs, config))
        seconds["before"].append(t)
        t, runs["after"] = _timed(lambda: wg.solve(reduced, config))
        seconds["after"].append(t)
    out = {}
    for side, matrix in (("before", reduced.matrix), ("after", schur)):
        row = {"unknowns": matrix.shape[0], "nnz": int(matrix.nnz),
               "residual": runs[side].residual,
               "median_solve_s": statistics.median(seconds[side]),
               "solve_s": seconds[side]}
        if method == "cg":
            row["cg_iterations"] = runs[side].iterations
        else:
            lu = spla.splu(matrix.tocsc())
            row["splu_fill"] = int(lu.L.nnz + lu.U.nnz)
        out[side] = row
    x0, x1 = runs["before"].x, runs["after"].x
    out["relative_gap"] = float(np.linalg.norm(x1 - x0) / np.linalg.norm(x0))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    record = {
        "command": f"python tools/bench_condensation.py --repeat "
                   f"{args.repeat}",
        "repeat": args.repeat,
        "env": {"nproc": os.cpu_count(),
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__},
        "problem": "example2",
        "cases": {},
    }
    for name, build, degree, method in CASES:
        record["cases"][name] = measure(build(), degree, method, args.repeat)
        print(name, json.dumps(record["cases"][name]), flush=True)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
