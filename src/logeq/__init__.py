"""Weighted logarithmic equilibrium on [-1, 1] with a uniform background field.

The unit charge on [-1, 1] minimizing logarithmic energy under the
external field tau * V(x), where V is the logarithmic potential of the
Lebesgue measure, changes shape with the field strength tau:

- attractive (tau < -1): one cut [-beta, beta];
- intermediate (-1 <= tau <= 2/(pi - 2)): the full interval;
- repulsive (tau > 2/(pi - 2)): two cuts [-1, -beta] and [beta, 1].

`equilibrium` carries the closed forms (support, density, Cauchy
transform, g-function, potential, equilibrium constant); `series` the
power-series and integral routes to the repulsive constant; `oracle` the
independent numerical checks (quadrature potentials, discrete energy
minimizer, verification report); `specfun` the elliptic integrals they
share; `cli` a command-line front end.
"""

from .equilibrium import (TAU_CRITICAL, EquilibriumReport, Regime, Support,
                          cauchy, classify_regime, density, edge_coefficient,
                          external_field, g_function, lebesgue_cauchy,
                          lebesgue_g, lebesgue_potential, omega, potential,
                          report, solve_beta_repulsive, sqrt_cut, support)
from .errors import ConsistencyError, ConvergenceError, DomainError
from .oracle import (DiscreteSolution, GridMeasure, VerificationReport,
                     discrete_minimize, measure_quadrature, potential_quad, verify)
from .series import (CoeffTable, SeriesResult, c_quadrature, c_recurrence,
                     omega_integral, omega_series)
from .specfun import complete_E, integral_I

__all__ = [
    "TAU_CRITICAL",
    "Regime", "Support", "EquilibriumReport",
    "classify_regime", "solve_beta_repulsive", "support", "sqrt_cut",
    "lebesgue_g", "lebesgue_cauchy", "lebesgue_potential", "external_field",
    "density", "edge_coefficient", "cauchy", "g_function", "potential",
    "omega", "report",
    "CoeffTable", "SeriesResult", "c_quadrature", "c_recurrence",
    "omega_series", "omega_integral",
    "GridMeasure", "DiscreteSolution", "VerificationReport",
    "measure_quadrature", "potential_quad", "discrete_minimize", "verify",
    "complete_E", "integral_I",
    "DomainError", "ConsistencyError", "ConvergenceError",
]

__version__ = "1.0.0"
