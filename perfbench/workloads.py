"""Workload definitions shared by run.py and its worker, bench.py.

Standard library only, so that run.py can validate its arguments without
importing numpy.  Levels are scaled down from the paper's 8/16/32 sweep so
that a closed loop of several pipeline passes fits one run; each workload
keeps the property it exists for (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    mesh: str              # "quad" | "brick"
    degree: int
    levels: Tuple[int, ...]
    solver: str            # wg_biharm SolverConfig.method
    errors_timed: bool     # compute_errors inside the timed pipeline
    seeded: bool           # input depends on --seed


WORKLOADS = {w.name: w for w in (
    Workload("solve-quad-k4-cg", "quad", 4, (24,), "cg", False, False),
    Workload("study-brick-k3", "brick", 3, (8, 16, 24), "cholesky", True, True),
)}

SEED_IGNORED = ("the uniform quad mesh has no random input; the seed drives "
                "only the brick-mesh jitter")
