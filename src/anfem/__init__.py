"""Adaptive nonconforming (Crouzeix-Raviart) finite elements for the 2D
Stokes problem: meshes with newest-vertex bisection, saddle-point assembly,
a residual estimator, inter-mesh transfer operators, and the adaptive loop.
"""

from .adaptive import (AdaptiveTrace, LoopParams, anfem_loop, dorfler_mark,
                       rate_fit, uniform_trace)
from .counterexample import scaling_study
from .domains import diamond, get_domain, l_shape, unit_square
from .estimator import EstimatorReport, estimate, estimate_frozen
from .mesh import (MeshError, NestingSets, Triangulation, ancestor_map,
                   bisect, build_initial, nesting_sets, read_mesh,
                   uniform_refine)
from .problems import LoadFunction, constant_load, get_solution, smooth1
from .spaces import (DiscreteSolution, SaddleSystem, SolverError,
                     assemble_saddle, solve, solve_saddle)
from .transfer import (conservative_interpolation, mixed_prolongation,
                       naive_prolongation, prolongation_defect_constant,
                       restriction)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveTrace", "DiscreteSolution", "EstimatorReport", "LoadFunction",
    "LoopParams", "MeshError", "NestingSets", "SaddleSystem", "SolverError",
    "Triangulation", "ancestor_map", "anfem_loop", "assemble_saddle",
    "bisect", "build_initial", "conservative_interpolation", "constant_load",
    "diamond", "dorfler_mark", "estimate", "estimate_frozen", "get_domain",
    "get_solution", "l_shape", "mixed_prolongation", "naive_prolongation",
    "nesting_sets", "prolongation_defect_constant", "rate_fit", "read_mesh",
    "restriction", "scaling_study", "smooth1", "solve", "solve_saddle",
    "uniform_refine", "uniform_trace", "unit_square",
]
