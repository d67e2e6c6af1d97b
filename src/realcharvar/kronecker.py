"""The generating-function identity as one exact Kronecker evaluation.

epoly.gen_function_check states the identity, its scalings and the proof
of the width B; this module holds the product side and the l1 bounds that
prove B.  _product_side runs one sequence of steps on two arithmetics:
_AtPoint, the ints X^(|e| w^2) P(X) at X = 2^B, and _Norms, bounds on the
l1 norms of the same values.  Only the identity check and its cost
prediction load this module, so the formula commands and the counts that
never check the identity do not compile it.
"""

from math import comb, factorial, perm

from .algebra import ExactnessError, moebius
from .epoly import (IDENTITY_PRODUCT, _Binomials, _group_totals, _pack,
                    _packed_product, _spread)


class _AtPoint:
    """The arithmetic of the identity check at u = X = 2^width.  A weight-w
    value P, a Laurent polynomial with u-exponents in [-|e| w^2, |e| w^2],
    is the int X^(|e| w^2) P(X); evaluation is a ring homomorphism, so sums
    and products need no digits, and the digits are moved only by psi_s."""

    def __init__(self, table, width):
        self.table, self.width = table, width
        self.e, self.m = abs(table.e), table.m    # |e|, as in log_at
        self.binomials = _Binomials(width, self.m)

    def series(self, j, top):
        "D_w^m A_j(w) for w = 0..top, re-spaced from the table's width."
        table = self.table
        return [1] + [_spread(table.series_at(j, w), table.digit_count(w),
                              table.width, self.width)
                      for w in range(1, top + 1)]

    def term(self, c, a, k, b, w):
        """c [w, k]^m a b for a of weight k and b of weight w - k, aligned
        to weight w by a shift of 2 |e| k (w-k) digits."""
        product = a * b
        if self.m:
            product *= self.binomials.row(w)[k]
        return (c * product) << (2 * self.e * k * (w - k) * self.width)

    def adams(self, c, a, w, s):
        """c (D_t / psi_s(D_w))^m psi_s(a), t = s w, for a of weight w:
        the digits of a re-spread at stride s, aligned to weight t, times
        the factors (1 - q^i)^m of D_t with s not dividing i."""
        t, e, width = s * w, self.e, self.width
        out = _spread(a, 2 * e * w * w + 1, width, width, s) \
            << (e * (t * t - s * w * w) * width)
        if self.m:
            out *= _packed_product((i for i in range(1, t + 1) if i % s),
                                   self.m, width)
        return c * out


class _Norms:
    """The same arithmetic on l1 norms: each operation returns a bound on
    the l1 norm of what _AtPoint's returns, from bounds on its inputs.  The
    Gaussian binomial [w, k] has l1 norm C(w, k) and each factor (1 - q^i)
    norm 2.  peak bounds every value whose digits are re-spread."""

    def __init__(self, e, r, top):
        self.m = max(0, -e)
        self.totals = _group_totals(e, r, top)
        self.peak = max(self.totals)

    def series(self, j, top):
        "One bound serves every j: a+^j a-^(r-j) <= a+^r."
        return self.totals[:top + 1]

    def term(self, c, a, k, b, w):
        return abs(c) * comb(w, k) ** self.m * a * b

    def adams(self, c, a, w, s):
        self.peak = max(self.peak, a)
        return abs(c) * a << (self.m * (s * w - w))


def _byte_width(bound):
    "The least whole number of bytes B, in bits, with bound < 2^(B-2)."
    return (bound.bit_length() + 9) // 8 * 8


def _exact_quotient(a, b):
    "a / b for ints, or ExactnessError."
    quotient, rest = divmod(a, b)
    if rest:
        raise ExactnessError("%d does not divide %d" % (b, a))
    return quotient


def _product_side(ring, r, top):
    """(M-1)! D_M^m M [T^M] PLog(prod over s = 2^k <= top of
    psi_s(A_r / A_0)^(1/s)) for M = 1..top, index 0 unused, each step
    scaled so that it divides by nothing (m = max(0, -e)):
      rho_w = D_w^m R_w, R = A_r / A_0, by R A_0 = A_r with [w, k]^m;
      eta_w = s^w w! D_w^m [T^w] R^(1/s), by Miller's recurrence
        s w G_w = sum_k ((1+s) k - s w) R_k G_(w-k); psi_s(R)^(1/s) is
        psi_s(R^(1/s)), at t = s w scaled by t! D_t^m;
      the product over s, binomial-weighted convolutions at t! D_t^m;
      its log coefficients times (w-1)! D_w^m, by the log recurrence;
      the full Moebius sum over d | M, each term times
        (M-1)!/(w-1)! (D_M / psi_d(D_w))^m.
    The only quotient, t!/(s^w w!), is an exact division."""
    plus, minus = ring.series(r, top), ring.series(0, top)
    rho = [1]
    for w in range(1, top + 1):
        rho.append(plus[w] + sum(ring.term(-1, minus[k], k, rho[w - k], w)
                                 for k in range(1, w + 1)))
    product = [1] + [factorial(t) * rho[t] for t in range(1, top + 1)]
    s = 2
    while s <= top:
        eta = [1]
        for w in range(1, top // s + 1):
            eta.append(sum(ring.term(((1 + s) * k - s * w) * s ** (k - 1)
                                     * perm(w - 1, k - 1),
                                     rho[k], k, eta[w - k], w)
                           for k in range(1, w + 1)))
        factor = {s * w: ring.adams(_exact_quotient(
            factorial(s * w), s ** w * factorial(w)), eta[w], w, s)
            for w in range(1, top // s + 1)}
        product = [product[0]] + [
            product[t] + sum(ring.term(comb(t, i), factor[i], i,
                                       product[t - i], t)
                             for i in range(s, t + 1, s))
            for t in range(1, top + 1)]
        s *= 2
    logs = [0]
    for w in range(1, top + 1):
        logs.append(product[w] + sum(ring.term(-comb(w - 1, k - 1), logs[k], k,
                                               product[w - k], w)
                                     for k in range(1, w)))
    return [None] + [sum(ring.adams(moebius(d) * perm(n - 1, n - n // d),
                                    logs[n // d], n // d, d)
                         for d in range(1, n + 1)
                         if n % d == 0 and moebius(d))
                     for n in range(1, top + 1)]


def predicted_work(e, r, top):
    """The identity check's term of the cost rule (see epoly): about
    (3 + m) w products at each weight w <= top, of values at the width that
    _Norms predicts (the left side's l1 norm is the right side's when the
    identity holds), each IDENTITY_PRODUCT s_w^1.585 word operations."""
    norms = _Norms(e, r, top)
    width = _byte_width(2 * max(_product_side(norms, r, top)[1:]
                                + [norms.peak]))
    a, m = abs(e), max(0, -e)
    return sum(IDENTITY_PRODUCT * (3 + m) * w
               * (width * (2 * a * w * w + 1) / 64) ** 1.585
               for w in range(1, top + 1))


def agrees(table, lhs, r, top):
    """Whether (M-1)! times the left side's digit list lhs[M], a
    D_M^m M V_M at offset |e| M^2, equals the product side for every
    M <= top, at the least byte width B that the l1 bounds prove."""
    norms = _Norms(table.e, r, top)
    bounds = _product_side(norms, r, top)
    width = _byte_width(max([norms.peak] + [
        factorial(n - 1) * sum(map(abs, lhs[n])) + bounds[n]
        for n in range(1, top + 1)]))
    rhs = _product_side(_AtPoint(table, width), r, top)
    return all(factorial(n - 1) * _pack(lhs[n], width) == rhs[n]
               for n in range(1, top + 1))
