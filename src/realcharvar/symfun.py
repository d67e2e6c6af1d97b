"""The multiplicity coefficients a_plus / a_minus attached to partitions.

The formulas read only these two closed forms.  The independent routes to
the same numbers -- signed S_n character sums against the convolution
coefficients c_pi / d_pi, and the Pieri rule's signed count of horizontal
strips -- are cross-checks, and live in verify.
"""

from .partitions import conjugate, multiplicities


def a_plus(lam):
    "Closed form: product of (multiplicity + 1) over the part values of lam."
    result = 1
    for m in multiplicities(tuple(lam)).values():
        result *= m + 1
    return result


def a_minus(lam):
    "Closed form: 1 when the conjugate partition has only even parts, else 0."
    return 1 if all(part % 2 == 0 for part in conjugate(tuple(lam))) else 0
