"""Exact E-polynomials of character varieties of real curves.

Modules: algebra (half-power Laurent polynomials, rational functions,
truncated series with plethystic operations), partitions, symfun (characters
and multiplicity coefficients), epoly (the closed formulas), fforacle (the
finite-field counting oracle), verify (verification suites), cli.
"""

from .algebra import (HalfPowerPolynomial, RationalFunction, TruncatedSeries,
                      adams, pleth_exp, pleth_log, rational_exponent_pow)
from .epoly import (MATCHED, TRANSPOSED, SurfaceData, component_sum_check,
                    e_poly, e_poly_component, euler_char_component,
                    gen_function_check, hook_polynomial, complex_curve_e_poly, v_n)

__all__ = [
    "HalfPowerPolynomial", "RationalFunction", "TruncatedSeries",
    "adams", "pleth_exp", "pleth_log", "rational_exponent_pow",
    "MATCHED", "TRANSPOSED", "SurfaceData", "component_sum_check",
    "e_poly", "e_poly_component", "euler_char_component", "gen_function_check",
    "hook_polynomial", "complex_curve_e_poly", "v_n",
]
