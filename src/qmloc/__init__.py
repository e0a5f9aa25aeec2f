"""qmloc: localization of best-approximation errors for continuous piecewise
polynomials under piecewise-constant diffusion.

The package provides conforming triangulations and Lagrange spaces,
a quasi-monotonicity classifier for piecewise-constant coefficients,
singularity-aware quadrature, local/global best-error solvers, two
coefficient-robust quasi-interpolation operators, closed-form
counterexample problems, and an experiment harness with a CLI.
"""

from .bestapprox import (LevelFactor, LocalizationReport, SparseMatrix, SpdSystem,
                         element_tables, local_element_errors, local_ritz, ritz, solve_spd)
from .coeff import (Coefficient, MonotonePath, QmReport, attach_coefficient, build_omega_hat,
                    check_quasi_monotonicity, find_monotone_path, select_kmax_fz)
from .counterexamples import (analytic_energy_reference, checkerboard_mesh, checkerboard_target,
                              fig1_left_pattern, fig1_meshes, hexagon_mesh, hexagon_target)
from .errors import QmlocError
from .fespace import LagrangeSpace, build_space
from .fields import SingularPoint, TargetField, smooth_target
from .harness import (emit_report, estimate_inequality_constants, run_alpha_robustness,
                      run_hexagon_sweep, run_reaction_diffusion, run_star_sweep)
from .interp import InterpolantResult, l2_quasi_interpolate, operator_report, quasi_interpolate
from .mesh import Triangulation, build_triangulation, load_mesh, save_mesh, uniform_refine
from .quadrature import QuadraturePlan, make_quadrature_plan

__version__ = "0.1.0"

__all__ = [
    "Coefficient", "InterpolantResult", "LagrangeSpace", "LevelFactor",
    "LocalizationReport", "MonotonePath", "QmReport", "QmlocError",
    "QuadraturePlan", "SingularPoint", "SparseMatrix", "SpdSystem", "TargetField",
    "Triangulation", "analytic_energy_reference", "attach_coefficient",
    "build_omega_hat", "build_space", "build_triangulation",
    "check_quasi_monotonicity", "checkerboard_mesh", "checkerboard_target",
    "element_tables", "emit_report", "estimate_inequality_constants", "fig1_left_pattern",
    "fig1_meshes", "find_monotone_path", "hexagon_mesh",
    "hexagon_target", "l2_quasi_interpolate", "load_mesh",
    "local_element_errors", "local_ritz", "make_quadrature_plan",
    "operator_report", "quasi_interpolate", "ritz",
    "run_alpha_robustness", "run_hexagon_sweep", "run_reaction_diffusion",
    "run_star_sweep", "save_mesh", "select_kmax_fz",
    "smooth_target", "solve_spd", "uniform_refine",
]
