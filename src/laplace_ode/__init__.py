"""Laplace contour-integral solutions of linear ODEs w^(n) + sum (a_j + b_j z) w^(j) = 0."""

__version__ = "0.1.0"

from .analysis import (CharRoots, IndicatorProfile, OrderCatalog, ZeroCount,
                       char_roots, indicator_empirical, indicator_predicted,
                       nevanlinna_estimates, nevanlinna_predicted,
                       order_catalog, zero_count_sector)
from .contour import (Contour, QuadResult, canonical_contour, circle_eval_multi,
                      combine_linear, laplace_eval, laplace_eval_multi,
                      plan_contour, truncation_bound)
from .errors import (ContourError, NumericError, ResidueError,
                     RootFindingError, SpecError)
from .kernel import KernelData, build_kernel
from .odespec import (OdeSpec, StructIndices, build_q, is_normalized, load_spec,
                      normalize, parse_ode, struct_indices)
from .poly import Poly
from .problem import FIXTURE_NAMES, Problem, fixture_path, sample_points
from .ratfun import PoleData, RootCluster, partial_fractions, poly_roots
from .scalars import GaussRational
from .solutions import (ResidueSolution, SolutionHandle, SymmetrySum,
                        check_solution, closed_form_solution, empirical_growth,
                        independence_check, lambda_solution, parse_closed_form,
                        residue_solution, residue_solutions, symmetry_check,
                        symmetry_sum)

__all__ = [name for name in dir() if not name.startswith("_")]
