"""Exact E-polynomials of character varieties of real curves.

Modules: laurent (half-power Laurent polynomials, the layer of every
E-polynomial), partitions, symfun (the multiplicity coefficients a+ / a-),
epoly (the closed formulas), kronecker (the product identity on packed
ints), fforacle (the finite-field counting oracle), characters (point counts
by a character sum), cli; and the references: algebra (rational functions
and truncated series with plethystic operations), ffreference (the oracle's
brute-force references), verify (verification suites and the reference
routes).
"""

from .laurent import HalfPowerPolynomial
from .epoly import (MATCHED, TRANSPOSED, SurfaceData, e_poly, e_poly_component,
                    euler_char_component, gen_function_check,
                    complex_curve_e_poly)

__all__ = [
    "HalfPowerPolynomial", "SurfaceData", "MATCHED", "TRANSPOSED",
    "e_poly", "e_poly_component", "euler_char_component",
    "gen_function_check", "complex_curve_e_poly",
]
