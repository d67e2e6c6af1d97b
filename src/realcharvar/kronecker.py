"""The generating-function identity as one exact Kronecker evaluation.

epoly.gen_function_check states the identity, its scalings and the proof
of the width B; this module holds the product side and the l1 bounds that
prove B.  _product_side runs one sequence of steps on the two arithmetics
that epoly's table uses: _Packed, the ints X^(|e| w^2) P(X) at X = 2^B,
and _Norms, bounds on the l1 norms of the same values.  It takes the two
series as arguments: the table's packed D_w^m A_r(w) and D_w^m A_0(w)
re-spread to B, or their bounds.  The bounds on the right side's l1 norms
set B, so _unpack reads its digits back exactly, and the verdict compares
them with the left side's digit lists.  Only the identity check and its
cost prediction load this module, so the formula commands and the counts
that never check the identity do not compile it.
"""

from functools import lru_cache
from math import comb, factorial, perm

from .laurent import ExactnessError, moebius
from .epoly import (IDENTITY_PRODUCT, _Norms, _Packed, _byte_width, _spread,
                    _unpack)


def _exact_quotient(a, b):
    "a / b for ints, or ExactnessError."
    quotient, rest = divmod(a, b)
    if rest:
        raise ExactnessError("%d does not divide %d" % (b, a))
    return quotient


def _product_side(ring, plus, minus, top):
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
    plus and minus are D_w^m A_r(w) and D_w^m A_0(w) for w = 0..top, or
    their bounds.  The only quotient, t!/(s^w w!), is an exact division."""
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


@lru_cache(maxsize=None)
def _bound(e, r, top):
    """A bound on the l1 norm, so on every digit, of the product side at
    each M <= top and of every value it re-spreads: _product_side run once
    on _Norms, for the cost prediction and the check alike."""
    norms = _Norms(e, r, top)
    bounds = _product_side(norms, norms.totals, norms.totals, top)
    return max(bounds[1:] + [norms.peak])


def predicted_work(e, r, top):
    """The identity check's term of the cost rule (see epoly): about
    (3 + m) w products at each weight w <= top, of values at the width
    with one spare bit more than the check's own (at most a byte above
    it), each IDENTITY_PRODUCT s_w^1.585 word operations."""
    width = _byte_width(_bound(e, r, top), 3)
    a, m = abs(e), max(0, -e)
    return sum(IDENTITY_PRODUCT * (3 + m) * w
               * (width * (2 * a * w * w + 1) / 64) ** 1.585
               for w in range(1, top + 1))


def agrees(table, lhs, r, top):
    """Whether the product side, unpacked at the least byte width B that
    _bound proves, equals (M-1)! times the left side's digit list lhs[M], a
    D_M^m M V_M at offset |e| M^2, for every M <= top."""
    width = _byte_width(_bound(table.e, r, top), 2)
    plus, minus = ([1] + [_spread(table.series_at(j, w),
                                  table.packed.digit_count(w),
                                  table.packed.width, width)
                          for w in range(1, top + 1)] for j in (r, 0))
    rhs = _product_side(_Packed(table.e, width), plus, minus, top)
    for n in range(1, top + 1):
        scale = factorial(n - 1)
        if (_unpack(rhs[n], table.packed.digit_count(n), width)
                != [scale * d for d in lhs[n]]):
            return False
    return True
