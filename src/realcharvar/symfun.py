"""Symmetric-function layer: S_n characters and the multiplicity
coefficients a_plus / a_minus attached to partitions.

The formulas read only the two closed forms.  The other two routes are
cross-checks for verify and the tests: signed character sums against the
convolution coefficients c_pi / d_pi (themselves checked against their
exponential generating products), and the Pieri rule, which reads a+ and a-
off a signed count of horizontal strips.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial

from .algebra import exact_int
from .partitions import (all_partitions, conjugate, multiplicities, sgn,
                         union, weight)


class WeightMismatch(ValueError):
    "Character evaluation needs |lambda| = |pi|."


# -- Murnaghan-Nakayama via beta-sets ----------------------------------

def sn_character(lam, pi):
    """Irreducible symmetric-group character value chi^lam on cycle type pi.

    Border-strip recursion on first-column hook lengths, memoized.
    """
    if weight(lam) != weight(pi):
        raise WeightMismatch("|lambda| = %d but |pi| = %d" % (weight(lam), weight(pi)))
    return _mn(tuple(lam), tuple(pi))


@lru_cache(maxsize=None)
def _mn(lam, pi):
    if not pi:
        return 1
    t = pi[0]
    rest = pi[1:]
    # beta-set: strictly decreasing first-column hook lengths
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        # remove the strip: replace b by b-t, sign by entries jumped over
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x if x != b else nb for x in beta), reverse=True)
        new_lam = []
        m = len(new_beta)
        for i, x in enumerate(new_beta):
            part = x - (m - 1 - i)
            if part > 0:
                new_lam.append(part)
        total += (-1) ** height * _mn(tuple(new_lam), rest)
    return total


# -- convolution coefficients c_pi, d_pi --------------------------------

@lru_cache(maxsize=None)
def _c_pi_pair(pi):
    """(even, odd) parts of the signed decomposition sum for pi.

    Enumerates all splittings of the multiset pi into four blocks: rho+ and
    rho- (weighted by their own z), a stretched block 2.tau_s (parts of pi
    that are doubled parts of tau_s, weighted by z of the consumed multiset,
    signed by its length) and a pair block 2 tau_p (parts of pi appearing
    with doubled multiplicity, k pairs of a part v weighing 1/(k! (2v)^k)).
    Split by the parity of |rho-|.  The pair-block weight is pinned by
    agreement with the exponential generating products and the signed
    character sums; z of the consumed multiset would be wrong.
    """
    mult = multiplicities(tuple(pi))
    values = sorted(mult)
    per_value = []
    for v in values:
        m = mult[v]
        options = []
        for a in range(m + 1):
            for b in range(m - a + 1):
                for c in range(m - a - b + 1):
                    d = m - a - b - c
                    if c and v % 2 == 1:
                        continue        # doubled parts are even
                    if d % 2 == 1:
                        continue        # pairs consume an even count
                    options.append((a, b, c, d))
        per_value.append(options)
    even = Fraction(0)
    odd = Fraction(0)
    for choice in iproduct(*per_value):
        w = Fraction(1)
        sign = 1
        rho_minus_weight = 0
        for v, (a, b, c, d) in zip(values, choice):
            k = d // 2
            w /= (factorial(a) * v ** a)                 # z of rho+ block
            w /= (factorial(b) * v ** b)                 # z of rho- block
            w /= (factorial(c) * v ** c)                 # z of the stretched block
            w /= (factorial(k) * (2 * v) ** k)           # pair block
            sign *= (-1) ** c
            rho_minus_weight += b * v
        if rho_minus_weight % 2 == 0:
            even += sign * w
        else:
            odd += sign * w
    return even, odd


def c_pi(pi):
    "Sum of both parity pieces of the decomposition sum."
    even, odd = _c_pi_pair(tuple(pi))
    return even + odd


def d_pi(pi):
    "Difference of the parity pieces of the decomposition sum."
    even, odd = _c_pi_pair(tuple(pi))
    return even - odd


# -- the same coefficients from exponential generating products ---------

def _ps_mul(f, g, bound):
    out = {}
    for pi, a in f.items():
        wa = weight(pi)
        for rho, b in g.items():
            if wa + weight(rho) > bound:
                continue
            key = union(pi, rho)
            s = out.get(key, Fraction(0)) + a * b
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _ps_exp(arg, bound):
    out = {(): Fraction(1)}
    power = {(): Fraction(1)}
    k = 1
    fact = 1
    min_deg = min((weight(pi) for pi in arg), default=bound + 1)
    while k * min_deg <= bound:
        power = _ps_mul(power, arg, bound)
        fact *= k
        for pi, c in power.items():
            s = out.get(pi, Fraction(0)) + c / fact
            if s:
                out[pi] = s
            elif pi in out:
                del out[pi]
        k += 1
    return out


def c_d_via_genfun(bound):
    """Expand the two exponential products in the power-sum basis.

    Returns a pair of dicts {pi: coefficient} through total degree `bound`;
    they must agree with c_pi / d_pi.
    """
    cprod = {(): Fraction(1)}
    dprod = {(): Fraction(1)}
    for m in range(1, bound + 1):
        if m % 2 == 1:
            c_arg = {(m,): Fraction(2, m), (m, m): Fraction(1, 2 * m)}
            d_arg = {(m, m): Fraction(1, 2 * m)}
        else:
            c_arg = {(m,): Fraction(1, m), (m, m): Fraction(1, 2 * m)}
            d_arg = dict(c_arg)
        c_arg = {pi: c for pi, c in c_arg.items() if weight(pi) <= bound}
        d_arg = {pi: c for pi, c in d_arg.items() if weight(pi) <= bound}
        if c_arg:
            cprod = _ps_mul(cprod, _ps_exp(c_arg, bound), bound)
        if d_arg:
            dprod = _ps_mul(dprod, _ps_exp(d_arg, bound), bound)
    return cprod, dprod


# -- the multiplicity coefficients a+ / a- ------------------------------

def a_plus(lam):
    "Closed form: product of (multiplicity + 1) over the part values of lam."
    result = 1
    for m in multiplicities(tuple(lam)).values():
        result *= m + 1
    return result


def a_minus(lam):
    "Closed form: 1 when the conjugate partition has only even parts, else 0."
    return 1 if all(part % 2 == 0 for part in conjugate(tuple(lam))) else 0


def a_plus_from_characters(lam):
    "Signed character sum against c_pi; must match the closed form."
    lam = tuple(lam)
    total = Fraction(0)
    for pi in all_partitions(weight(lam)):
        chi = sn_character(lam, pi)
        if chi:
            total += sgn(pi) * c_pi(pi) * chi
    return exact_int(total, "a+ of %r by characters" % (lam,))


def a_minus_from_characters(lam):
    "Signed character sum against d_pi; must match the closed form."
    lam = tuple(lam)
    total = Fraction(0)
    for pi in all_partitions(weight(lam)):
        chi = sn_character(lam, pi)
        if chi:
            total += sgn(pi) * d_pi(pi) * chi
    return exact_int(total, "a- of %r by characters" % (lam,))


def _strip_sum(lam, sign):
    """Sum of sign^(|nu| - |mu|) over the mu with nu/mu a horizontal strip,
    nu = lam': by the Pieri rule, the coefficient of s_nu in
    (sum_mu s_mu)(sum_n sign^n h_n).  Those mu are the partitions that
    interlace nu, nu_(i+1) <= mu_i <= nu_i."""
    nu = conjugate(tuple(lam))
    ranges = [range(low, high + 1) for high, low in zip(nu, nu[1:] + (0,))]
    return sum(sign ** (weight(nu) - sum(mu)) for mu in iproduct(*ranges))


def a_plus_from_pieri(lam):
    "Pieri route: the coefficient of s_{lam'} in (sum s_mu)(sum h_n)."
    return _strip_sum(lam, 1)


def a_minus_from_pieri(lam):
    """Pieri route: the coefficient of s_{lam'} in (sum s_mu)/(sum e_n),
    where the inverse of sum e_n is sum (-1)^n h_n."""
    return _strip_sum(lam, -1)
