"""Weak Galerkin solver for the clamped biharmonic problem.

The element of degree k >= 2 carries a degree-k interior polynomial per
cell and degree k-1 trace and normal-flux polynomials per edge; a discrete
weak Laplacian plus a parameter-free boundary stabilizer replace the usual
H2 conformity.  Works on arbitrary shape-regular polygonal meshes.
"""

from .assembly import (DofLayout, ReducedSystem, SparseSymmetricSystem,
                       apply_boundary_conditions, assemble_system,
                       build_dof_layout, dump_matrix)
from .basis_quadrature import (CellBasis, QuadratureRule, edge_quadrature,
                               monomial_exponents, polygon_quadrature,
                               polynomial_space_dim, quadrature_exactness)
from .mesh import (CellGeometry, Mesh, build_uniform_quad_mesh,
                   build_uniform_triangle_mesh, cell_geometry,
                   max_cell_diameter, mesh_from_cells, read_mesh, write_mesh)
from .norms import ErrorReport, compute_errors, energy_norm
from .problems import (Problem, example_1, example_2, get_problem,
                       polynomial_patch)
from .projection import (ScalarField, WgField, project_cell, project_edge,
                         project_field)
from .solver import (DIRECT_RESIDUAL_LIMIT, SolveResult, SolverConfig,
                     SolverError, solve, solve_linear)
from .study import (ConvergenceTable, StudyConfig, StudyRow, emit_table,
                    observed_order, parse_csv_table, run_study,
                    solve_on_mesh)
from .weak_laplacian import (LocalOperators, gather_local_dofs,
                             local_operators)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
