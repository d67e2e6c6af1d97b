"""E-polynomials of the character varieties attached to a real curve.

The closed formula for rank n is a sum over odd divisors d of n and multisets
of partitions of total weight n/d, with signed Moebius/multinomial
coefficients, the multiplicity coefficients a+/a- raised to the number r of
fixed circles, and normalized hook polynomials raised to g-1.  That multiset
sum is the expanded T^(n/d) coefficient of a truncated logarithm,

    V_n = sum over odd d | n of mu(d)/d psi_d([T^(n/d)] (log A_r - log A_0)),

where A_j = 1 + sum_lam a+(lam)^j a-(lam)^(r-j) H_lam^(g-1) T^|lam| and
psi_d is the Adams map q -> q^d.  Components use the same logs, weighted by
the coefficients of (x+1)^(r-k) (x-1)^k.  This log route is the only
production route; the literal multiset sum lives in verify
(reference_e_value) as the reference the tests compare against.  The half
prefactor (q-1)(-q^(1/2))^(n^2 (g-1)) / 2 turns the sum into an honest
polynomial in q for g >= 1; genus 0 is served through rational functions.

Two pairing conventions are implemented.  "matched" pairs the coefficient of
a partition with its own hook polynomial and reproduces the worked low-rank
closed forms; "transposed" pairs it with the hook polynomial of the conjugate
partition (the literal reading of the summation formula).  The finite-field
oracle adjudicates between them empirically; matched is the default.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .algebra import (HalfPowerPolynomial, Q_MINUS_ONE, RF_ONE, RF_ZERO,
                      RationalFunction, TruncatedSeries, adams, formal_log,
                      moebius, pleth_log, rational_exponent_pow)
from .partitions import all_partitions, conjugate, hooks, n_lambda, weight
from .symfun import a_minus, a_plus


MATCHED = "matched"
TRANSPOSED = "transposed"
CONVENTIONS = (MATCHED, TRANSPOSED)


class EmptyPartition(ValueError):
    "Hook polynomials are defined for nonempty partitions."


class NotPolynomial(ArithmeticError):
    "An assembled value failed to clear denominators or half powers."


class NotDivisible(ArithmeticError):
    "Exact division by (q-1)^g failed."


class EvenK(ValueError):
    "Component indices are odd."


class KOutOfRange(ValueError):
    "Component index must satisfy k <= r."


@dataclass(frozen=True)
class SurfaceData:
    """Genus g and number r of fixed circles; 1 <= r <= g+1."""

    g: int
    r: int

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("genus must be non-negative")
        if not 1 <= self.r <= self.g + 1:
            raise ValueError("need 1 <= r <= g+1, got r=%d, g=%d" % (self.r, self.g))

    @property
    def s(self):
        return self.g + 1 - self.r


def _check_convention(conv):
    if conv not in CONVENTIONS:
        raise ValueError("unknown pairing convention %r" % (conv,))
    return conv


@lru_cache(maxsize=None)
def hook_polynomial(lam, d=1):
    """Normalized hook polynomial at q**d, exact in half powers of q.

    q^(-d(n_lam + |lam|/2)) * prod over boxes of (1 - q^(d*hook)).
    """
    lam = tuple(lam)
    if not lam:
        raise EmptyPartition("hook polynomial of the empty partition")
    e0 = -d * (2 * n_lambda(lam) + weight(lam))
    poly = HalfPowerPolynomial.u_power(e0)
    for h in hooks(lam):
        poly = poly * (HalfPowerPolynomial.from_int(1)
                       - HalfPowerPolynomial.u_power(2 * d * h))
    return RationalFunction(poly)


@lru_cache(maxsize=None)
def partition_multisets(w):
    """Multisets of nonempty partitions with total weight w.

    Each multiset is a tuple of (partition, multiplicity) pairs; partitions
    are drawn in descending weight and descending lexicographic order, so the
    enumeration is deterministic.  Only the reference route in verify sums
    over these; the production route takes a truncated log instead.
    """
    pool = []
    for size in range(w, 0, -1):
        pool.extend(all_partitions(size))
    # the pool descends in weight, so from first_fitting[s] on every
    # partition has weight <= s
    first_fitting = {}
    for i in range(len(pool) - 1, -1, -1):
        first_fitting[weight(pool[i])] = i

    out = []
    # depth-first with an explicit stack, so the rank is not capped by the
    # recursion limit: each state holds the pool index the next partition may
    # start from, the weight still to fill, and the pairs chosen so far;
    # children are pushed reversed so they pop in the order listed
    stack = [(0, w, ())]
    while stack:
        i, remaining, acc = stack.pop()
        if remaining == 0:
            out.append(acc)
            continue
        children = []
        for j in range(len(pool) - 1, max(i, first_fitting[remaining]) - 1, -1):
            lam = pool[j]
            for m in range(1, remaining // weight(lam) + 1):
                children.append((j + 1, remaining - m * weight(lam),
                                 acc + ((lam, m),)))
        stack.extend(reversed(children))
    return tuple(out)


@lru_cache(maxsize=None)
def _hook_sums(w, e, conv):
    """Partitions of w grouped by (a+, a-), each group with its sum of H^e.

    H is the hook polynomial the convention pairs with the partition.  No
    hook is built when e = 0; the sum is then the size of the group.
    """
    sums = {}
    for lam in all_partitions(w):
        if e:
            term = hook_polynomial(lam if conv == MATCHED else conjugate(lam)) ** e
        else:
            term = RF_ONE
        key = (a_plus(lam), a_minus(lam))
        sums[key] = sums[key] + term if key in sums else term
    return tuple(sums.items())


@lru_cache(maxsize=None)
def _series_coefficient(w, e, j, r, conv):
    "T^w coefficient of the partition series A_j: sum_{|lam|=w} a+^j a-^(r-j) H^e."
    total = RF_ZERO
    for (ap, am), hook_sum in _hook_sums(w, e, conv):
        a = ap ** j * am ** (r - j)
        if a:
            total = total + hook_sum * a
    return total


def _partition_series(order, e, j, r, conv, scale=1):
    "1 + sum_w psi_scale(A_j coefficient w) T^(scale*w), truncated at order."
    coeffs = {scale * w: adams(_series_coefficient(w, e, j, r, conv), scale)
              for w in range(1, order // scale + 1)}
    coeffs[0] = RF_ONE
    return TruncatedSeries(order, coeffs)


@lru_cache(maxsize=None)
def _log_series(order, e, j, r, conv):
    "log A_j truncated at order."
    return formal_log(_partition_series(order, e, j, r, conv))


def _moebius_sum(n, coefficient, odd_only):
    "sum over d | n (odd d only if odd_only) of mu(d)/d psi_d(coefficient(n/d))."
    total = RF_ZERO
    for d in range(1, n + 1, 2 if odd_only else 1):
        mu = moebius(d) if n % d == 0 else 0
        if mu:
            total = total + adams(coefficient(n // d), d) * Fraction(mu, d)
    return total


def _v(n, surf, weights, conv):
    """The inner sum for the a-combination sum_j b_j a+^j a-^(r-j).

    weights maps j to b_j.  Expanding log A_j over multisets of partitions
    gives the multiset coefficients (-1)^(m-1) (m-1)!/prod mult!, so the
    inner sum is sum over odd d | n of mu(d)/d psi_d([T^(n/d)] sum_j b_j log A_j).
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_convention(conv)
    logs = [(b, _log_series(n, surf.g - 1, j, surf.r, conv))
            for j, b in weights.items() if b]

    def coefficient(w):
        total = RF_ZERO
        for b, log_a in logs:
            total = total + log_a.coefficient(w) * b
        return total

    return _moebius_sum(n, coefficient, odd_only=True)


def v_n(n, surf, conv=MATCHED):
    "The rank-n inner sum, as a rational function of q: weights a+^r - a-^r."
    return _v(n, surf, {surf.r: 1, 0: -1}, conv)


def _component_weights(r, k):
    "Coefficients b_j of x^j in (x+1)^(r-k) (x-1)^k."
    return {j: sum(comb(r - k, j - l) * comb(k, l) * (-1) ** (k - l)
                   for l in range(min(j, k) + 1))
            for j in range(r + 1)}


def _half_u_sign_prefactor(n, g):
    "(-q^(1/2))^(n^2 (g-1)), a Laurent monomial (negative powers at g = 0)."
    e = n * n * (g - 1)
    return RationalFunction(HalfPowerPolynomial.u_power(e, (-1) ** (e % 2)))


def e_poly_rational(n, surf, conv=MATCHED):
    "Assembled E-value as a rational function; no polynomiality assertion."
    v = v_n(n, surf, conv)
    return (RationalFunction(Q_MINUS_ONE) * Fraction(1, 2)
            * _half_u_sign_prefactor(n, surf.g) * v)


def _require_polynomial(value, what):
    "The value as a polynomial in q with int coefficients, or NotPolynomial."
    poly = value.as_polynomial()
    if poly is None:
        raise NotPolynomial("%s has a nontrivial denominator" % what)
    if not poly.is_zero():
        if not poly.is_q_polynomial():
            raise NotPolynomial("%s has odd half powers" % what)
        if poly.min_exp() < 0:
            raise NotPolynomial("%s has negative exponents" % what)
    if any(c.denominator != 1 for c in poly.terms.values()):
        raise NotPolynomial("%s has a non-integer coefficient" % what)
    return HalfPowerPolynomial({e: int(c) for e, c in poly.terms.items()})


def e_poly(n, surf, conv=MATCHED):
    """E-polynomial of the rank-n variety, as a polynomial in q.

    Requires g >= 1; the genus 0 assembly lives in e_poly_rational.  Raises
    NotPolynomial if denominators or half powers survive, which signals a
    convention bug rather than bad input.
    """
    if surf.g < 1:
        raise ValueError("e_poly needs g >= 1; use e_poly_rational for g = 0")
    value = e_poly_rational(n, surf, conv)
    return _require_polynomial(value, "E_%d" % n)


def e_poly_component_rational(n, surf, k, conv=MATCHED):
    "Component E-value as a rational function; no polynomiality assertion."
    if k % 2 == 0:
        raise EvenK("component index k must be odd")
    if not 1 <= k <= surf.r:
        raise KOutOfRange("need 1 <= k <= r = %d, got k = %d" % (surf.r, k))
    v = _v(n, surf, _component_weights(surf.r, k), conv)
    return (RationalFunction(Q_MINUS_ONE) * Fraction(1, 2 ** surf.r)
            * _half_u_sign_prefactor(n, surf.g) * v)


def e_poly_component(n, surf, k, conv=MATCHED):
    "E-polynomial of one path component, indexed by its odd sign count k."
    if surf.g < 1:
        raise ValueError("component polynomials need g >= 1")
    value = e_poly_component_rational(n, surf, k, conv)
    return _require_polynomial(value, "E_%d^%d" % (n, k))


def component_sum_check(n, surf, conv=MATCHED):
    "Check sum over odd k of binomial(r,k) * E_n^k = E_n as polynomials."
    total = RF_ZERO
    for k in range(1, surf.r + 1, 2):
        total = total + e_poly_component_rational(n, surf, k, conv) * comb(surf.r, k)
    return total == e_poly_rational(n, surf, conv)


def euler_char_component(n, surf, k, conv=MATCHED):
    """Euler characteristic: E_n^k divided exactly by (q-1)^g, at q = 1.

    Returns an exact Fraction (an integer for g >= 2); raises NotDivisible
    when (q-1)^g does not divide the component polynomial.
    """
    from .algebra import poly_divmod
    if surf.g == 0:
        value = e_poly_component_rational(n, surf, k, conv)
        if value.is_zero():
            return Fraction(0)
        try:
            return value.evaluate(Fraction(1))
        except ZeroDivisionError:
            raise NotDivisible("E_%d^%d is singular at q = 1" % (n, k))
    poly = e_poly_component(n, surf, k, conv)
    if poly.is_zero():
        return Fraction(0)
    for _ in range(surf.g):
        poly, rem = poly_divmod(poly, Q_MINUS_ONE)
        if not rem.is_zero():
            raise NotDivisible("(q-1)^%d does not divide E_%d^%d"
                               % (surf.g, n, k))
    return poly.evaluate(Fraction(1))


def gen_function_check(n_max, surf, conv=MATCHED):
    """Compare the term-by-term sums against the plethystic product formula.

    Builds sum_n V_n T^n on one side and Log of the product over k of
    (plus-series / minus-series)^(1/2^k) at q -> q^(2^k), T -> T^(2^k) on the
    other, both truncated at order n_max.  The plus and minus series are the
    partition series A_r and A_0.
    """
    _check_convention(conv)
    lhs = TruncatedSeries(n_max, {n: v_n(n, surf, conv)
                                  for n in range(1, n_max + 1)})
    e, r = surf.g - 1, surf.r
    product = TruncatedSeries.one(n_max)
    scale = 1
    while scale <= n_max:
        plus = _partition_series(n_max, e, r, r, conv, scale)
        minus = _partition_series(n_max, e, 0, r, conv, scale)
        ratio = plus * minus.inverse()
        product = product * rational_exponent_pow(ratio, Fraction(1, scale))
        scale *= 2
    return pleth_log(product) == lhs


def complex_curve_e_poly(n, g):
    """E-polynomial of the complex-curve character variety, a sanity anchor.

    Extracted from the plethystic logarithm of the hook-polynomial series
    sum_lam H_lam^(2g-2) T^|lam| (the partition series with r = j = 0):
    (q-1)^2 q^(n^2 (g-1)) times its T^n coefficient.
    """
    if n < 1:
        raise ValueError("n must be positive")
    log_a = _log_series(n, 2 * g - 2, 0, 0, MATCHED)
    coefficient = _moebius_sum(n, log_a.coefficient, odd_only=False)
    mono = RationalFunction(HalfPowerPolynomial.u_power(2 * n * n * (g - 1)))
    return RationalFunction(Q_MINUS_ONE) ** 2 * mono * coefficient
