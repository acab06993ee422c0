"""The public entry points that the benchmark harness in perfbench/ calls.

perfbench/bench.py measures the package from outside, and its per-layer
trace (``run.py --trace 1``) times these functions directly.  Moving or
renaming one of them breaks that trace without failing anything in the
package itself, so this test pins the names and call forms it uses.
"""

import dataclasses

import numpy as np

import wg_biharm as wg


def test_benchmark_entry_points():
    k = 2
    mesh = wg.build_uniform_quad_mesh(2)
    problem = wg.get_problem("example2")

    rule = wg.polygon_quadrature(mesh.cell_vertices(0), 2 * k + 2)
    basis = wg.CellBasis.for_cell(wg.cell_geometry(mesh, 0), k)
    vals, _, _ = basis.evaluate(rule.points)
    assert vals.shape == (rule.weights.size, 6)

    ops = wg.local_operators(mesh, 0, k)
    assert ops.stiffness.shape == (22, 22)

    proj = wg.project_field(mesh, k, problem.solution)
    u_h = wg.WgField.zeros(mesh, k)
    report = wg.compute_errors(mesh, k, u_h, problem.solution)
    diff = wg.WgField(k, proj.interior - u_h.interior,
                      proj.trace - u_h.trace, proj.flux - u_h.flux)
    assert np.isclose(wg.energy_norm(mesh, k, diff), report.h2_energy,
                      rtol=1e-10, atol=0.0)


def test_problem_boundary_data_are_replaceable_fields():
    # bench.py passes p.trace and p.normal_flux to apply_boundary_conditions,
    # and test_bench.py swaps the flux with dataclasses.replace
    problem = wg.get_problem("example2")
    names = {f.name for f in dataclasses.fields(wg.Problem)}
    assert {"trace", "normal_flux"} <= names

    def zero_flux(x, y, nx, ny):
        return 0.0 * x

    swapped = dataclasses.replace(problem, normal_flux=zero_flux)
    assert swapped.normal_flux is zero_flux
    assert swapped.trace is problem.trace
    assert dataclasses.replace(problem, trace=zero_flux).trace is zero_flux
