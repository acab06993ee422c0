"""Benchmark worker: one fresh interpreter per call, started by run.py.

The worker measures the package strictly from outside.  It imports
``wg_biharm`` from the checkout's ``src/`` and times only calls into the
package's public functions.  Modes:

* ``setup``: import, look up the problem, build every level's mesh, and
  stop where the first ``assemble_system`` call would be.
* ``run``: the same set-up, then a closed loop of pipeline passes, one at
  a time, until the deadline.  Every level of every pass is checked, and
  the yardstick is timed between levels.
* ``trace``: ``run``, then one more pass with spans recorded around each
  public call, then probes of the inner layers on the finest mesh.
* ``record``: write ``reference.json`` from the current code.

Each mode except ``record`` prints one JSON object as its last stdout line.
Cross-process times use ``time.monotonic`` (CLOCK_MONOTONIC, shared by all
processes of the machine); in-process spans use ``time.perf_counter``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import wg_biharm as wg  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"

# Stored norms are matched to this relative tolerance.  Solving the CG
# workload's n = 24 level directly instead of by CG at its default
# tolerance moves linf_edge_flux by 4.6e-5 relative and the other norms by
# 1.6e-6 or less; roundoff from a new basis or ordering moves them less.
# A wrong answer (a dropped boundary datum, a wrong stabilizer weight)
# moves them by percents or more.
REFERENCE_RTOL = 1e-3
# Seeds of the brick workload without a stored reference: each norm within
# a factor MAGNITUDE_FACTOR of the stored seed-0 value at the same level,
# and the observed orders between consecutive levels (nominal h = 1/n) in
# these bands.  At k = 3 the theory gives H2 ~ 2 and L2 ~ 4.  Over the
# recorded seeds the norms stayed within 0.78-1.25 of seed 0, and the
# levels 8 -> 16 -> 24 gave H2 orders 1.80-1.99 and L2 orders 3.46-3.92
# (the self-test's 4 -> 8: 1.71-1.93 and 3.42-3.91).
MAGNITUDE_FACTOR = 2.0
ORDER_BANDS = {"h2_energy": (1.5, 2.3), "l2_interior": (3.0, 4.5)}
# Every solve must return a verified relative residual at most this; the
# direct solver's own limit, and ten times CG's default tolerance.
RESIDUAL_LIMIT = 1e-9
# Passes after the first on a workload without a timed error report must
# reproduce the fully checked first solution to this relative tolerance.
REPEAT_RTOL = 1e-10
# Fewest pipeline passes in a run, however short the deadline.
MIN_PASSES = 3
# Brick-mesh jitter, as a share of h.
JITTER = 0.2
# Brick seeds with a stored reference.
RECORDED_SEEDS = range(32)
# Levels recorded besides each workload's own, for the self-test.
TINY_LEVELS = (4, 8)
# Size of the yardstick: cells of its dense loop and the side of its
# sparse grid.  About 0.3 s on a 2-core VM.
YARDSTICK_CELLS = 6000
YARDSTICK_GRID = 60


def yardstick():
    """Time a fixed computation that uses no wg_biharm code; return seconds.

    On a shared VM the host's speed drifts by +-20 % over minutes and moves
    every wall time alike.  Timed before and after each level of a pass,
    this work drifts with the pipeline, so the level's wall time in units
    of it cancels most of the drift, while a change to the package moves
    only the pipeline's side of the ratio.  Its mix follows the
    pipeline's: small dense kernels inside a Python loop over cells, then a
    sparse factorization.
    """
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    points = rng.random((40, 2))
    total = 0.0
    for cell in range(YARDSTICK_CELLS):
        a = rng.random((15, 15))
        v = np.vander(points[:, 0] + cell, 6)
        gram = np.einsum("qi,qj,q->ij", v, v, points[:, 1])
        x = np.linalg.solve(a @ a.T + 15.0 * np.eye(15), a[0])
        total += float(x.sum() + gram.trace())
    n = YARDSTICK_GRID
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    lap = (sp.kron(t, sp.eye(n)) + sp.kron(sp.eye(n), t)).tocsc()
    total += float(spla.splu(lap).solve(np.ones(n * n)).sum())
    if not math.isfinite(total):
        raise ArithmeticError("the yardstick computed a non-finite value")
    return time.perf_counter() - t0


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id, plus
    counts attached by the caller.  Disabled, it records nothing."""

    def __init__(self, run_id, enabled):
        self.run_id = run_id
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **counts):
        if not self.enabled:
            yield {}
            return
        record = {"id": len(self.spans), "name": name, "run_id": self.run_id,
                  "parent": self._open[-1] if self._open else None, **counts}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter() - self.origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def total(self, name, key=None):
        """Summed duration (or summed count ``key``) of spans named so."""
        picked = [s for s in self.spans if s["name"] == name]
        if key is None:
            return sum(s["end"] - s["start"] for s in picked)
        return sum(s[key] for s in picked)


def brick_mesh(n, seed):
    """Brick-bond mesh of the unit square on the n x n grid (n even).

    Every row merges pairs of grid squares into hexagons (the row's
    neighbours add a vertex in the middle of the top and bottom sides);
    odd rows are shifted by one square and keep a square at each end.
    Interior vertices move by at most JITTER * h, drawn from ``seed``;
    boundary vertices stay put.  Only vertices and cells reach the package.
    """
    if n < 2 or n % 2:
        raise ValueError("the brick mesh needs an even n >= 2")
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])
    radius = JITTER / n * np.sqrt(rng.random(len(vertices)))
    angle = 2.0 * np.pi * rng.random(len(vertices))
    inside = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[inside, 0] += (radius * np.cos(angle))[inside]
    vertices[inside, 1] += (radius * np.sin(angle))[inside]

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        cuts = list(range(0, n + 1, 2)) if j % 2 == 0 else \
            [0] + list(range(1, n, 2)) + [n]
        for a, b in zip(cuts[:-1], cuts[1:]):
            cells.append([vid(i, j) for i in range(a, b + 1)]
                         + [vid(i, j + 1) for i in range(b, a - 1, -1)])
    return wg.mesh_from_cells(vertices, cells)


def build_mesh(workload, n, seed):
    if workload.mesh == "quad":
        return wg.build_uniform_quad_mesh(n)
    return brick_mesh(n, seed)


def seed_key(workload, seed):
    return str(seed) if workload.seeded else "any"


def check_report(workload, seed, n, report, reference):
    """Problems with one level's error report; empty when it passes."""
    errors = report.as_dict()
    bad = [f"{k}={v!r} is not finite and positive" for k, v in errors.items()
           if not (math.isfinite(v) and v > 0.0)]
    if bad:
        return bad
    table = reference.get(workload.name, {})
    stored = table.get(seed_key(workload, seed), {}).get(str(n))
    if stored is not None:
        return [f"{k}={errors[k]:.12e} differs from the reference "
                f"{stored[k]:.12e} by more than {REFERENCE_RTOL:g} relative"
                for k in errors
                if abs(errors[k] - stored[k])
                > REFERENCE_RTOL * abs(stored[k])]
    typical = table.get("0", {}).get(str(n)) if workload.seeded else None
    if typical is None:
        return [f"no stored reference for level {n}"]
    return [f"{k}={errors[k]:.6e} is not within a factor "
            f"{MAGNITUDE_FACTOR:g} of the seed-0 value {typical[k]:.6e}"
            for k in errors
            if not (typical[k] / MAGNITUDE_FACTOR <= errors[k]
                    <= typical[k] * MAGNITUDE_FACTOR)]


def check_orders(reports):
    """Order-band problems per level, for a seed without a reference.

    ``reports`` maps consecutive levels n to their ErrorReport.  An order
    out of band fails both of its levels: either may be the wrong one."""
    out = {n: [] for n in reports}
    levels = sorted(reports)
    for n_prev, n in zip(levels[:-1], levels[1:]):
        for k, (lo, hi) in ORDER_BANDS.items():
            order = math.log(getattr(reports[n_prev], k)
                             / getattr(reports[n], k)) / math.log(n / n_prev)
            if not lo <= order <= hi:
                msg = (f"observed {k} order {order:.3f} between levels "
                       f"{n_prev} and {n} is outside [{lo}, {hi}]")
                out[n_prev].append(msg)
                out[n].append(msg)
    return out


def check_solve(reduced, result):
    """Problems with a solve's verified residual; empty when it passes."""
    scale = np.linalg.norm(reduced.rhs) or 1.0
    recomputed = float(np.linalg.norm(reduced.matrix @ result.x
                                      - reduced.rhs) / scale)
    return [f"{name} residual {value!r} exceeds {RESIDUAL_LIMIT:g}"
            for name, value in (("reported", result.residual),
                                ("recomputed", recomputed))
            if not value <= RESIDUAL_LIMIT]


class Bench:
    """One workload's set-up and pipeline inside this process."""

    def __init__(self, workload, seed, levels, reference, tracer,
                 yardstick=False):
        self.workload = workload
        self.yardstick = yardstick
        self.seed = seed
        self.reference = reference
        self.tracer = tracer
        with tracer.span("problems.get_problem"):
            self.problem = wg.get_problem("example2")
        self.solver = wg.SolverConfig(method=workload.solver)
        self.meshes = []
        for n in levels:
            with tracer.span("mesh.build", n=n) as rec:
                mesh = build_mesh(workload, n, seed)
                rec.update(cells=mesh.n_cells, edges=mesh.n_edges)
            self.meshes.append((n, mesh))
        self.checked = {}      # n -> solution of the fully checked pass
        self.last_fields = {}  # n -> (u_h, report) of the latest pass

    def run_pass(self, full_check):
        """One pass over every level.  Returns (timed seconds, levels);
        each level is {"n", "seconds", "failures"}, plus "yardstick_s",
        the mean of the yardstick timed just before and just after the
        level, if the Bench times it."""
        k = self.workload.degree
        p = self.problem
        tr = self.tracer
        wall = 0.0
        levels = []
        reports = {}
        before = yardstick() if self.yardstick else None
        for n, mesh in self.meshes:
            level = {"n": n}
            failures = []
            report = None
            with tr.span("level", n=n):
                t0 = time.perf_counter()
                try:
                    with tr.span("assembly.assemble_system"):
                        system = wg.assemble_system(mesh, k, p.source)
                    with tr.span("assembly.apply_boundary_conditions") as rec:
                        reduced = wg.apply_boundary_conditions(
                            system, p.trace, p.normal_flux)
                        rec.update(dofs=system.layout.total,
                                   free_dofs=int(reduced.free_dofs.size),
                                   nnz=int(reduced.matrix.nnz))
                    with tr.span("solver.solve") as rec:
                        result = wg.solve(reduced, self.solver)
                        rec.update(iterations=result.iterations or 0,
                                   residual=result.residual)
                    u_h = system.layout.vector_to_field(
                        reduced.expand(result.x))
                    if self.workload.errors_timed:
                        with tr.span("norms.compute_errors"):
                            report = wg.compute_errors(mesh, k, u_h,
                                                       p.solution)
                except wg.SolverError as err:
                    failures.append(f"SolverError: {err}")
                seconds = time.perf_counter() - t0
                wall += seconds
                if not failures:
                    failures += check_solve(reduced, result)
                    if report is None and (full_check
                                           or n not in self.checked):
                        with tr.span("norms.compute_errors"):
                            report = wg.compute_errors(mesh, k, u_h,
                                                       p.solution)
                    if report is not None:
                        failures += check_report(
                            self.workload, self.seed, n, report,
                            self.reference)
                        reports[n] = report
                        if not failures:
                            self.checked[n] = result.x
                    else:
                        failures += self._check_repeat(n, result.x)
                    self.last_fields[n] = (u_h, report)
            if self.yardstick:
                after = yardstick()
                level["yardstick_s"] = (before + after) / 2.0
                before = after
            level.update(seconds=seconds, failures=failures)
            levels.append(level)
        recorded = self.reference.get(self.workload.name, {})
        if self.workload.seeded and str(self.seed) not in recorded:
            orders = check_orders(reports)
            for level in levels:
                level["failures"] += orders.get(level["n"], [])
        return wall, levels

    def _check_repeat(self, n, x):
        ref = self.checked[n]
        gap = float(np.linalg.norm(x - ref))
        if gap <= REPEAT_RTOL * np.linalg.norm(ref):
            return []
        return [f"solution moved by {gap:.3e} from the checked pass"]

    def probe_layers(self):
        """Time the inner layers' public functions on the finest mesh."""
        k = self.workload.degree
        n, mesh = self.meshes[-1]
        tr = self.tracer
        exactness = 2 * k + 2
        geoms = [wg.cell_geometry(mesh, c) for c in range(mesh.n_cells)]
        with tr.span("probes", n=n):
            with tr.span("basis_quadrature.polygon_quadrature") as rec:
                rules = [wg.polygon_quadrature(mesh.cell_vertices(c),
                                               exactness)
                         for c in range(mesh.n_cells)]
                rec["cell_points"] = sum(len(r.weights) for r in rules)
            bases = [wg.CellBasis.for_cell(g, k) for g in geoms]
            with tr.span("basis_quadrature.CellBasis.evaluate"):
                for basis, rule in zip(bases, rules):
                    basis.evaluate(rule.points)
            with tr.span("weak_laplacian.local_operators") as rec:
                ops = [wg.local_operators(mesh, c, k)
                       for c in range(mesh.n_cells)]
                rec["local_entries"] = sum(op.stiffness.size for op in ops)
            with tr.span("projection.project_field"):
                proj = wg.project_field(mesh, k, self.problem.solution)
            # The finest solution of the traced pass; zeros if it failed.
            u_h = self.last_fields.get(n, (wg.WgField.zeros(mesh, k),))[0]
            diff = wg.WgField(k, proj.interior - u_h.interior,
                              proj.trace - u_h.trace, proj.flux - u_h.flux)
            with tr.span("norms.energy_norm"):
                wg.energy_norm(mesh, k, diff)


def layer_metrics(tracer, untraced_wall, yardstick_s, traced_wall):
    """Per-layer metrics of one traced pass plus the probes, and the
    untraced loop's medians of the pipeline and the yardstick."""
    t = tracer.total
    spans = tracer.spans
    return {
        "pipeline.wall_s": untraced_wall,
        "pipeline.yardstick_s": yardstick_s,
        "problems.get_problem_s": t("problems.get_problem"),
        "mesh.build_s": t("mesh.build"),
        "mesh.cells": t("mesh.build", "cells"),
        "mesh.edges": t("mesh.build", "edges"),
        "basis_quadrature.cell_rule_s":
            t("basis_quadrature.polygon_quadrature"),
        "basis_quadrature.cell_points":
            t("basis_quadrature.polygon_quadrature", "cell_points"),
        "basis_quadrature.basis_eval_s":
            t("basis_quadrature.CellBasis.evaluate"),
        "weak_laplacian.local_operators_s":
            t("weak_laplacian.local_operators"),
        "weak_laplacian.local_entries":
            t("weak_laplacian.local_operators", "local_entries"),
        "assembly.assemble_s": t("assembly.assemble_system"),
        "assembly.bc_s": t("assembly.apply_boundary_conditions"),
        "assembly.dofs": t("assembly.apply_boundary_conditions", "dofs"),
        "assembly.free_dofs":
            t("assembly.apply_boundary_conditions", "free_dofs"),
        "assembly.nnz": t("assembly.apply_boundary_conditions", "nnz"),
        "solver.solve_s": t("solver.solve"),
        "solver.iterations": t("solver.solve", "iterations"),
        "solver.residual": max(s["residual"] for s in spans
                               if s["name"] == "solver.solve"),
        "projection.project_field_s": t("projection.project_field"),
        "norms.errors_s": t("norms.compute_errors"),
        "norms.energy_norm_s": t("norms.energy_norm"),
        "tracing.overhead_s": traced_wall - untraced_wall,
    }


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "package": wg.__file__,
    }


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def measure(args):
    workload = WORKLOADS[args.workload]
    levels = args.levels or workload.levels
    reference = load_reference()
    tracer = Tracer(f"{workload.name}-seed{args.seed}-pid{os.getpid()}",
                    enabled=False)
    bench = Bench(workload, args.seed, levels, reference, tracer,
                  yardstick=True)
    out = {"setup_s": time.monotonic() - args.spawned_at,
           "env": environment()}
    if args.mode == "setup":
        return out

    passes = []
    last = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() + last < args.deadline:
        t0 = time.monotonic()
        wall, lv = bench.run_pass(full_check=not passes)
        passes.append({"wall_s": wall, "levels": lv})
        last = time.monotonic() - t0
    out["passes"] = passes
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.mode == "trace":
        # A fresh traced set-up, so the mesh and problem spans exist too.
        tracer.enabled = True
        bench = Bench(workload, args.seed, levels, reference, tracer)
        with tracer.span("pipeline"):
            traced_wall, lv = bench.run_pass(full_check=True)
        bench.probe_layers()
        passes.append({"wall_s": traced_wall, "levels": lv, "traced": True})
        untraced = statistics.median(p["wall_s"] for p in passes[:-1])
        yardstick_s = statistics.median(
            level["yardstick_s"] for p in passes[:-1]
            for level in p["levels"])
        out["layers"] = layer_metrics(tracer, untraced, yardstick_s,
                                      traced_wall)
        out["spans"] = tracer.spans
    return out


def record():
    """Store every workload's six norms from the current code."""
    table = {}
    for w in WORKLOADS.values():
        levels = sorted(set(w.levels) | set(TINY_LEVELS))
        seeds = RECORDED_SEEDS if w.seeded else [0]
        table[w.name] = {}
        for seed in seeds:
            bench = Bench(w, seed, levels, {}, Tracer("record", False))
            bench.run_pass(full_check=True)
            table[w.name][seed_key(w, seed)] = {
                str(n): report.as_dict()
                for n, (_, report) in bench.last_fields.items()}
            print(w.name, seed, flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=("setup", "run", "trace", "record"),
                    required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spawned-at", type=float,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--deadline", type=float,
                    help="time.monotonic() after which no pass starts")
    ap.add_argument("--levels", type=lambda s: tuple(
        int(x) for x in s.split(",")))
    args = ap.parse_args(argv)
    if args.mode == "record":
        record()
        return 0
    if Path(wg.__file__).resolve().parent != SRC / "wg_biharm":
        print(f"wg_biharm was imported from {wg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
