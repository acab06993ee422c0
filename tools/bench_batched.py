"""Before/after measurement of assembly, the solve and the error report.

    python tools/bench_batched.py --baseline-src PARENT/src --repeat 10 \
        --out BENCH_symmetric_lu.json
    python tools/bench_batched.py --baseline-src PARENT/src --repeat 5 \
        --solver cg --cases quad-n24-k4,quad-n64-k3,tri-n128-k2 \
        --out BENCH_two_level.json
    python tools/bench_batched.py --baseline-src PARENT/src --repeat 5 \
        --solver cg --cases quad-n24-k4,tri-n32-k4,tri-n16-k5,quad-n64-k3 \
        --out BENCH_coarse_flux.json
    python tools/bench_batched.py --baseline-src PARENT/src --repeat 10 \
        --solver cg --cases quad-n24-k4,quad-n64-k3,tri-n128-k2 \
        --out BENCH_cg_setup.json
    python tools/bench_batched.py --baseline-src PARENT/src --repeat 10 \
        --solver cg --cases quad-n24-k4,quad-n64-k3,tri-n128-k2 \
        --out BENCH_cg_loop.json
    python tools/bench_batched.py --baseline-src PARENT/src --repeat 10 \
        --solver cg --cases quad-n24-k4,tri-n128-k2 --out cg.json
    python tools/bench_batched.py --baseline-src PARENT/src --repeat 10 \
        --cases brick-n24-seed3-k3 --out direct.json
    python tools/bench_batched.py --baseline-src PARENT/src --repeat 10 \
        --cases tri-n128-k2,quad-n24-k4,brick-n24-seed3-k3 \
        --out BENCH_mesh_tables.json
    python tools/bench_batched.py --baseline-src PARENT/src --repeat 10 \
        --cases tri-n128-k2,quad-n64-k3,brick-n24-seed3-k3 --out direct.json
    python tools/bench_batched.py --baseline-src PARENT/src --repeat 10 \
        --solver cg --cases tri-n128-k2,quad-n64-k3 --out cg.json

The cg.json and direct.json records are kept together as
``{"runs": [cg, direct]}`` in BENCH_block_read.json (the first pair of
commands) and as ``{"runs": [direct, cg]}`` in
BENCH_condense_per_shape.json (the last pair), and
BENCH_edge_coefficients.json, BENCH_orthonormal_basis.json,
BENCH_kernel_rows.json and BENCH_shape_reuse.json each hold ``{"runs":
[direct, cg]}`` from ``--cases brick-n24-seed3-k3,quad-n24-k4,tri-n64-k2``
and ``--solver cg --cases quad-n24-k4``, both at ``--repeat 10``.
BENCH_cg_loop.json also holds, under ``perfbench``, alternating pairs of
``python3 perfbench/run.py`` runs of each side's checkout.

PARENT is a checkout of the commit to compare against, for example one
made with ``git worktree add PARENT <rev>``.  Each repeat runs one fresh
process per side ("before" imports ``wg_biharm`` from PARENT/src, "after"
from this checkout's ``src/``), alternating which side goes first, with
BLAS pinned to one thread.  A process times the build of the case's mesh
(``mesh_s``) and ``assemble_system``, eliminates the boundary data, times
``solve`` with the ``--solver`` method, times ``compute_errors`` on the
solution and reports its peak RSS and the CG iterations.  After reading
the peak it solves once more with ``splu`` wrapped, to count the SuperLU
fill (L.nnz + U.nnz) without holding factors through the timed calls:
``fill`` is that of the method's first factor (the condensed trace/flux
matrix for the direct route, the coarse matrix for CG; null if it factors
nothing), ``direct_fill`` that of the direct route.  The JSON records
every sample and, per case and side, the medians of the timings, the peak
RSS, the iterations and the fills, the stored entries of the full
assembled matrix A (``nnz``) and of the reduced matrix (``reduced_nnz``),
and the mesh's cells and distinct cell shapes (``Mesh.cell_shapes``; null
for a package that does not find them): the cell kernel runs once per
shape, so 1 - shapes / cells is the share of the case's cells that reuse
another cell's kernel work.
Where assembly condenses the cell interiors, ``assemble_s`` includes the
condensation, ``reduced_nnz`` counts the condensed trace/flux matrix S,
and A is the reference that ``SparseSymmetricSystem.matrix`` builds on
first access, after the peak is read.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

CASES = {  # name: (mesh, n, degree)
    "brick-n24-seed3-k3": ("brick", 24, 3),
    "tri-n64-k2": ("tri", 64, 2),
    "quad-n24-k4": ("quad", 24, 4),
    "quad-n64-k3": ("quad", 64, 3),
    "tri-n128-k2": ("tri", 128, 2),
    "tri-n32-k4": ("tri", 32, 4),
    "tri-n16-k5": ("tri", 16, 5),
}
MEDIANS = ("mesh_s", "assemble_s", "solve_s", "errors_s", "peak_rss_mib",
           "iterations", "fill", "direct_fill")


def child(src, case, method):
    """Run one case against the package in ``src``; print one JSON line."""
    sys.path.insert(0, str(src))
    import wg_biharm as wg  # the package under test, before bench imports it

    sys.path.insert(1, str(ROOT / "perfbench"))
    from bench import brick_mesh

    mesh_kind, n, k = CASES[case]
    t0 = time.perf_counter()
    mesh = {"brick": lambda: brick_mesh(n, 3),
            "tri": lambda: wg.build_uniform_triangle_mesh(n),
            "quad": lambda: wg.build_uniform_quad_mesh(n)}[mesh_kind]()
    mesh_s = time.perf_counter() - t0
    config = wg.SolverConfig(method=method)
    problem = wg.get_problem("example2")
    t0 = time.perf_counter()
    system = wg.assemble_system(mesh, k, problem.source)
    assemble_s = time.perf_counter() - t0
    reduced = wg.apply_boundary_conditions(system, problem.trace,
                                           problem.normal_flux)
    t0 = time.perf_counter()
    result = wg.solve(reduced, config)
    solve_s = time.perf_counter() - t0
    u_h = reduced.layout.vector_to_field(reduced.expand(result.x))
    t0 = time.perf_counter()
    report = wg.compute_errors(mesh, k, u_h, problem.solution)
    errors_s = time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    splu = wg.solver.spla.splu

    def first_fill(config):
        fills = []

        def counted(*args, **kwargs):
            factor = splu(*args, **kwargs)
            fills.append(int(factor.L.nnz + factor.U.nnz))
            return factor

        wg.solver.spla.splu = counted
        wg.solve(reduced, config)
        return fills[0] if fills else None

    fill = first_fill(config)
    shapes = getattr(mesh, "cell_shapes", None)
    print(json.dumps({
        "mesh_s": mesh_s, "assemble_s": assemble_s, "solve_s": solve_s,
        "errors_s": errors_s, "peak_rss_mib": peak_rss_mib,
        "iterations": result.iterations,
        "fill": fill, "direct_fill": (fill if method == "cholesky"
                                      else first_fill(wg.SolverConfig())),
        "nnz": int(system.matrix.nnz),
        "reduced_nnz": int(reduced.matrix.nnz),
        "cells": mesh.n_cells,
        "shapes": None if shapes is None else len(set(shapes.tolist())),
        "h2_energy": report.h2_energy}))


def run_side(src, case, method):
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(src), case, method],
        check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline-src", type=Path)
    ap.add_argument("--repeat", type=int, default=10)
    ap.add_argument("--solver", default="cholesky", choices=["cholesky", "cg"])
    ap.add_argument("--cases", default="brick-n24-seed3-k3,tri-n64-k2",
                    help="comma-separated names from: " + ", ".join(CASES))
    ap.add_argument("--out", default=None)
    ap.add_argument("--child", nargs=3, metavar=("SRC", "CASE", "SOLVER"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(*args.child)
        return
    if args.baseline_src is None:
        ap.error("--baseline-src is required")
    cases = args.cases.split(",")
    if not set(cases) <= set(CASES):
        ap.error(f"unknown case in {args.cases!r}")

    import numpy as np
    import scipy

    sides = {"before": args.baseline_src.resolve(), "after": ROOT / "src"}
    record = {
        "command": "python tools/bench_batched.py --baseline-src PARENT/src "
                   f"--repeat {args.repeat} --solver {args.solver} "
                   f"--cases {args.cases}",
        "repeat": args.repeat,
        "env": {"nproc": os.cpu_count(),
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__},
        "problem": f"example2, {args.solver} solver",
        "cases": {},
    }
    for case in cases:
        samples = {side: [] for side in sides}
        for i in range(args.repeat):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                samples[side].append(run_side(sides[side], case,
                                              args.solver))
        row = {}
        for side, runs in samples.items():
            row[side] = {
                f"median_{key}": statistics.median(r[key] for r in runs)
                if runs[0][key] is not None else None for key in MEDIANS}
            for key in ("nnz", "reduced_nnz", "cells", "shapes"):
                row[side][key] = runs[0][key]
            row[side]["samples"] = runs
        record["cases"][case] = row
        print(case, json.dumps({s: {k: v for k, v in r.items()
                                    if k != "samples"}
                                for s, r in row.items()}), flush=True)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
