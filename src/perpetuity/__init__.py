"""Size-biased perpetuity fixed points.  The root exports the README's
library example names; every other name is imported from its module."""

from .diagnostics import diagnose
from .distributions import point_mass, quantize_family, validate
from .levy import levy_from_solution, steutel_residual
from .lst_solver import solve
from .metrics import contraction_ratio, r_delta_report
from .moments import eta_moments
from .montecarlo import mc_fixed_point

__version__ = "0.1.0"
