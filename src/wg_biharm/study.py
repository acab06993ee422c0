"""Convergence studies: refine, solve, tabulate errors and observed orders.

The observed order between consecutive levels is
log(e_prev / e_cur) / log(h_prev / h_cur); the first row of a table has no
order.  Tables render as markdown (for reading) or CSV (for machines);
every numeric field is written with 17 significant digits so a parsed
table reproduces the computed values exactly.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from .assembly import apply_boundary_conditions, assemble_system
from .mesh import build_uniform_quad_mesh, build_uniform_triangle_mesh, \
    max_cell_diameter
from .norms import ErrorReport, compute_errors
from .problems import Problem, get_problem
from .solver import SolverConfig, solve

# (csv column stem, ErrorReport attribute, markdown label)
NORM_COLUMNS = [
    ("h2", "h2_energy", "discrete H2"),
    ("l2", "l2_interior", "element L2"),
    ("eb_l2", "l2_edge_trace", "edge L2 vb"),
    ("en_l2", "l2_edge_flux", "edge L2 vn"),
    ("eb_inf", "linf_edge_trace", "edge Linf vb"),
    ("en_inf", "linf_edge_flux", "edge Linf vn"),
]

CSV_HEADER = ("n,h,dofs," + ",".join(
    f"err_{stem},ord_{stem}" for stem, _, _ in NORM_COLUMNS)
    + ",solve_seconds")


@dataclass
class StudyConfig:
    problem: Union[str, Problem]
    degree: int
    mesh_family: str = "tri"            # "tri" | "quad"
    levels: tuple = (4, 8, 16, 32)
    solver: SolverConfig = field(default_factory=SolverConfig)


@dataclass
class StudyRow:
    n: int
    h: float
    dofs: int
    errors: ErrorReport
    solve_seconds: float


@dataclass
class ConvergenceTable:
    problem: str
    degree: int
    mesh_family: str
    rows: List[StudyRow]

    def error_series(self, attr):
        return np.array([getattr(r.errors, attr) for r in self.rows])

    def orders(self, attr):
        hs = np.array([r.h for r in self.rows])
        return observed_order(self.error_series(attr), hs)


def observed_order(errors, hs):
    """Per-level observed orders; nan where undefined (first level, or a
    non-positive error)."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    orders = np.full(errors.shape, np.nan)
    for i in range(1, len(errors)):
        if errors[i - 1] > 0.0 and errors[i] > 0.0:
            orders[i] = np.log(errors[i - 1] / errors[i]) / np.log(
                hs[i - 1] / hs[i])
    return orders


def build_mesh(mesh_family, n):
    if mesh_family == "tri":
        return build_uniform_triangle_mesh(n)
    if mesh_family == "quad":
        return build_uniform_quad_mesh(n)
    raise ValueError(f"unknown mesh family {mesh_family!r}")


def solve_on_mesh(problem, degree, mesh, solver_config=None):
    """Assemble, apply boundary data, solve; returns (field, reduced
    system, solve result, solve seconds)."""
    # the assembled system is freed before the solve; the layout stays
    reduced = apply_boundary_conditions(
        assemble_system(mesh, degree, problem.source), problem.trace,
        problem.normal_flux)
    t0 = time.perf_counter()
    result = solve(reduced, solver_config)
    seconds = time.perf_counter() - t0
    full = reduced.expand(result.x)
    return reduced.layout.vector_to_field(full), reduced, result, seconds


def run_study(config):
    if not isinstance(config.levels, (tuple, list)) or not config.levels:
        raise ValueError(f"levels must be a non-empty tuple of mesh levels, "
                         f"got {config.levels!r}")
    for i, n in enumerate(config.levels):
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ValueError(f"mesh level {n!r} is not an integer")
        if n in config.levels[:i]:  # an order between equal h is 0 / 0
            raise ValueError(f"levels repeat the mesh level {n}")
    problem = config.problem
    if isinstance(problem, str):
        problem = get_problem(problem)
    rows = []
    for n in config.levels:
        mesh = build_mesh(config.mesh_family, n)
        u_h, reduced, _, seconds = solve_on_mesh(
            problem, config.degree, mesh, config.solver)
        report = compute_errors(mesh, config.degree, u_h, problem.solution)
        rows.append(StudyRow(n, max_cell_diameter(mesh),
                             reduced.layout.total, report, seconds))
    return ConvergenceTable(problem.name, config.degree,
                            config.mesh_family, rows)


def _num(x):
    return f"{x:.17g}"


def _ord(o):
    return "-" if np.isnan(o) else f"{o:.17g}"


def emit_table(table, fmt="markdown"):
    """Render a convergence table; fmt is "markdown" or "csv"."""
    per_norm = [(table.error_series(attr), table.orders(attr))
                for _, attr, _ in NORM_COLUMNS]
    body = []
    for i, row in enumerate(table.rows):
        cells = [str(row.n), _num(row.h), str(row.dofs)]
        for errs, ords in per_norm:
            cells.append(_num(errs[i]))
            cells.append(_ord(ords[i]))
        cells.append(_num(row.solve_seconds))
        body.append(cells)
    if fmt == "csv":
        return "\n".join([CSV_HEADER] + [",".join(c) for c in body]) + "\n"
    if fmt == "markdown":
        head = ["n", "h", "dofs"]
        for _, _, label in NORM_COLUMNS:
            head += [label, "order"]
        head.append("solve s")
        lines = ["| " + " | ".join(head) + " |",
                 "|" + "---|" * len(head)]
        lines += ["| " + " | ".join(c) + " |" for c in body]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


def parse_csv_table(text):
    """Parse emit_table(..., "csv") output back into plain records; order
    cells rendered as "-" come back as nan.  Raises ValueError on an
    unknown header or a row whose field count differs from it."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized table header")
    names = lines[0].split(",")
    records = []
    for i, ln in enumerate(lines[1:], 1):
        vals = ln.split(",")
        if len(vals) != len(names):
            raise ValueError(f"table row {i} has {len(vals)} fields, the "
                             f"header {len(names)}")
        rec = {}
        for name, val in zip(names, vals):
            if name in ("n", "dofs"):
                rec[name] = int(val)
            elif val == "-":
                rec[name] = float("nan")
            else:
                rec[name] = float(val)
        records.append(rec)
    return records
