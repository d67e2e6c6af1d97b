"""E-polynomials of the character varieties attached to a real curve.

The closed formula for rank n is a sum over odd divisors d of n and multisets
of partitions of total weight n/d, with signed Moebius/multinomial
coefficients, the multiplicity coefficients a+/a- raised to the number r of
fixed circles, and normalized hook polynomials raised to g-1.  That multiset
sum is the expanded T^(n/d) coefficient of a truncated logarithm: with
c^(j)_w = w [T^w] log A_j,

    n V_n = sum over odd d | n of mu(d) psi_d(c^(r)_(n/d) - c^(0)_(n/d)),

where A_j = 1 + sum_lam a+(lam)^j a-(lam)^(r-j) H_lam^(g-1) T^|lam| and
psi_d is the Adams map q -> q^d.  Components weight the same logs by the
coefficients of (x+1)^(r-k) (x-1)^k.  The log coefficients come from
algebra.log_coefficients and the odd-divisor sum from algebra.divisor_sum,
the two steps algebra.pleth_log runs for the product identity check.  The
literal multiset sum lives in verify (reference_e_value) as the reference
the tests compare against.
For g >= 1 every coefficient is an integer polynomial in q^(1/2), and E_n is
one exact integer division of (q-1)(-q^(1/2))^(n^2 (g-1)) n V_n by 2n (by
2^r n for a component).  At genus 0 the hooks enter inverted and the same
assembly is a rational function, which e_poly accepts when its denominator
is 1: every surface gets one checked route.

Two pairing conventions are implemented.  "matched" pairs the coefficient of
a partition with its own hook polynomial and reproduces the worked low-rank
closed forms; "transposed" pairs it with the hook polynomial of the conjugate
partition (the literal reading of the summation formula).  The finite-field
oracle adjudicates between them empirically; matched is the default.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement, groupby
from itertools import product as iproduct
from math import comb

from .algebra import (HalfPowerPolynomial, ONE, Q_MINUS_ONE, RF_ONE,
                      RationalFunction, TruncatedSeries, ZERO, adams,
                      divisor_sum, log_coefficients, moebius, pleth_log,
                      rational_exponent_pow)
from .partitions import (all_partitions, conjugate, hooks, multiplicities,
                         n_lambda, weight)
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
def hook_polynomial(lam):
    """Normalized hook polynomial, exact in half powers of q.

    q^(-(n_lam + |lam|/2)) * prod over boxes of (1 - q^hook).
    """
    lam = tuple(lam)
    if not lam:
        raise EmptyPartition("hook polynomial of the empty partition")
    poly = HalfPowerPolynomial.u_power(-(2 * n_lambda(lam) + weight(lam)))
    for h in hooks(lam):
        poly = poly * (ONE - HalfPowerPolynomial.u_power(2 * h))
    return poly


@lru_cache(maxsize=None)
def partition_multisets(w):
    """Multisets of nonempty partitions with total weight w.

    Each multiset is a tuple of (partition, multiplicity) pairs in descending
    weight, then descending lexicographic order.  The weights of its
    partitions, repeated by multiplicity, form a partition mu of w; for each
    part size s of mu, of multiplicity m, the multiset holds m partitions of
    s chosen with repetition.  Only the reference route in verify sums over
    these; the production route takes a truncated log instead.
    """
    out = []
    for mu in all_partitions(w):
        picks = [combinations_with_replacement(all_partitions(s), m)
                 for s, m in multiplicities(mu).items()]
        for pick in iproduct(*picks):
            out.append(tuple((lam, len(list(run)))
                             for lam, run in groupby(chain(*pick))))
    return tuple(out)


@lru_cache(maxsize=None)
def _hook_sums(w, e, conv):
    """Partitions of w grouped by (a+, a-), each group with its sum of H^e.

    H is the hook polynomial the convention pairs with the partition.  The
    sum is a polynomial for e >= 0 and a rational function for e < 0.  No
    hook is built when e = 0; the sum is then the size of the group.
    """
    sums = {}
    for lam in all_partitions(w):
        if e:
            hook = hook_polynomial(lam if conv == MATCHED else conjugate(lam))
            term = (hook if e > 0 else RationalFunction(hook)) ** e
        else:
            term = ONE
        key = (a_plus(lam), a_minus(lam))
        sums[key] = sums[key] + term if key in sums else term
    return tuple(sums.items())


@lru_cache(maxsize=None)
def _series_coefficient(w, e, j, r, conv):
    "T^w coefficient of the partition series A_j: sum_{|lam|=w} a+^j a-^(r-j) H^e."
    return sum((hook_sum * (ap ** j * am ** (r - j))
                for (ap, am), hook_sum in _hook_sums(w, e, conv)), ZERO)


def _partition_series(order, e, j, r, conv, scale):
    "1 + sum_w psi_scale(A_j coefficient w) T^(scale*w), truncated at order."
    coeffs = {scale * w: adams(_series_coefficient(w, e, j, r, conv), scale)
              for w in range(1, order // scale + 1)}
    coeffs[0] = RF_ONE
    return TruncatedSeries(order, coeffs)


_LOG_TABLES = {}


def _log_coefficient(w, *key):
    """c_w = w [T^w] log A_j for key (e, j, r, conv), by algebra's log
    recurrence.  One table per key holds c_0 = 0, c_1, ...; it grows in
    order of w, and every rank reads the same table."""
    c = _LOG_TABLES.setdefault(key, [ZERO])
    return log_coefficients(lambda m: _series_coefficient(m, *key), c, w)[w]


def _n_v(n, surf, k, conv):
    """n V_n = sum over odd d | n of mu(d) psi_d(sum_j b_j c^(j)_(n/d)), with
    b_j the coefficients of x^j in x^r - 1 for the total (k None) and in
    (x+1)^(r-k) (x-1)^k for the component k.  Expanding log A_j over
    multisets of partitions gives the closed formula's multiset coefficients
    (-1)^(m-1) (m-1)!/prod mult!."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_convention(conv)
    e, r = surf.g - 1, surf.r
    weights = {r: 1, 0: -1} if k is None else {
        j: sum(comb(r - k, j - l) * comb(k, l) * (-1) ** (k - l)
               for l in range(min(j, k) + 1)) for j in range(r + 1)}

    def coefficient(w):
        return sum((_log_coefficient(w, e, j, r, conv) * b
                    for j, b in weights.items() if b), ZERO)

    return divisor_sum(n, coefficient, lambda d: moebius(d) if d % 2 else 0)


def v_n(n, surf, conv=MATCHED):
    "The rank-n inner sum V_n, for the weights a+^r - a-^r."
    return _n_v(n, surf, None, conv) * Fraction(1, n)


def check_component(k, surf):
    """Refuse a component index that is even (EvenK) or outside 1 <= k <= r
    (KOutOfRange); k None, the whole variety, passes."""
    if k is not None and k % 2 == 0:
        raise EvenK("component index k must be odd")
    if k is not None and not 1 <= k <= surf.r:
        raise KOutOfRange("need 1 <= k <= r = %d, got k = %d" % (surf.r, k))


def _assembled(n, surf, k, conv):
    """(q-1)(-q^(1/2))^(n^2 (g-1)) n V_n, and the divisor that turns it into
    E_n (k None: 2n) or into the component E_n^k (2^r n)."""
    check_component(k, surf)
    e = n * n * (surf.g - 1)
    prefactor = Q_MINUS_ONE * HalfPowerPolynomial.u_power(e, (-1) ** (e % 2))
    return (prefactor * _n_v(n, surf, k, conv),
            (2 if k is None else 2 ** surf.r) * n)


def _require_polynomial(value, divisor, what):
    """value / divisor as a polynomial in q with int coefficients, or
    NotPolynomial; a rational value (genus 0) needs denominator 1."""
    if isinstance(value, RationalFunction):
        if not value.is_polynomial():
            raise NotPolynomial("%s has a nontrivial denominator" % what)
        value = value.num
    if not value.is_q_polynomial():
        raise NotPolynomial("%s has odd half powers" % what)
    if any(e < 0 for e in value.terms):
        raise NotPolynomial("%s has negative exponents" % what)
    if any(c % divisor for c in value.terms.values()):
        raise NotPolynomial("%s has a non-integer coefficient" % what)
    return HalfPowerPolynomial({e: c // divisor for e, c in value.terms.items()})


def e_poly_rational(n, surf, conv=MATCHED):
    """Assembled E-value with no polynomiality check, a rational function
    at g = 0; the tests compare it with the reference route."""
    value, divisor = _assembled(n, surf, None, conv)
    return value * Fraction(1, divisor)


def e_poly(n, surf, conv=MATCHED):
    """E-polynomial of the rank-n variety, as a polynomial in q with int
    coefficients, for every surface (genus 0 included).

    Raises NotPolynomial if a denominator, a remainder or a half power
    survives, which signals a convention bug rather than bad input.
    """
    return _require_polynomial(*_assembled(n, surf, None, conv), "E_%d" % n)


def e_poly_component_rational(n, surf, k, conv=MATCHED):
    "Component E-value with no polynomiality check, as in e_poly_rational."
    value, divisor = _assembled(n, surf, k, conv)
    return value * Fraction(1, divisor)


def e_poly_component(n, surf, k, conv=MATCHED):
    "E-polynomial of one path component, by its odd sign count k; as e_poly."
    return _require_polynomial(*_assembled(n, surf, k, conv), "E_%d^%d" % (n, k))


def component_sum_check(n, surf, conv=MATCHED):
    "Check sum over odd k of binomial(r,k) * E_n^k = E_n as polynomials."
    total = sum((e_poly_component(n, surf, k, conv) * comb(surf.r, k)
                 for k in range(1, surf.r + 1, 2)), ZERO)
    return total == e_poly(n, surf, conv)


def euler_char_component(n, surf, k, conv=MATCHED):
    """Euler characteristic: E_n^k divided exactly by (q-1)^g, at q = 1.

    With q = 1 + x, E_n^k = sum_j d_j x^j where d_j = sum_e c_e C(e/2, j)
    over the terms c_e q^(e/2).  (q-1)^g divides E_n^k exactly when
    d_j = 0 for every j < g, and the quotient at q = 1 is then the int d_g;
    otherwise NotDivisible.
    """
    terms = e_poly_component(n, surf, k, conv).terms.items()
    d = [sum(c * comb(e // 2, j) for e, c in terms)
         for j in range(surf.g + 1)]
    if any(d[:-1]):
        raise NotDivisible("(q-1)^%d does not divide E_%d^%d" % (surf.g, n, k))
    return d[-1]


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
    if g < 0:
        raise ValueError("genus must be non-negative")
    n_coefficient = divisor_sum(
        n, lambda w: _log_coefficient(w, 2 * g - 2, 0, 0, MATCHED), moebius)
    mono = HalfPowerPolynomial.u_power(2 * n * n * (g - 1))
    return (RationalFunction(Q_MINUS_ONE ** 2 * mono) * n_coefficient
            * Fraction(1, n))
