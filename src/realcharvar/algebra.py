"""The rational reference layer over laurent's half-power polynomials.

Only verify, the tests and V_n at genus 0, where a denominator is real,
read it; no formula command and no count loads this module.

* RationalFunction -- normalized quotients of HalfPowerPolynomials.  The
  denominator is an ordinary polynomial with constant coefficient 1 and no
  common factor with the numerator, so equality is structural.  The gcd that
  keeps it so runs over Z, as a primitive remainder sequence.  Arithmetic
  that mixes the two layers gives a RationalFunction.
* TruncatedSeries -- power series in T up to a fixed order with
  RationalFunction coefficients, carrying the plethystic operations
  (adams substitution, log and exp, Log).  Only the rational reference of
  the product identity in verify, which builds its rational powers from
  log and exp, and the tests read it; the formulas run their series on
  Kronecker-packed ints in epoly and kronecker.

The series layer's logarithms are coded once: log_coefficients (the log
recurrence) serves formal_log and pleth_log, and divisor_sum (the Adams sum)
turns the log into pleth_log's plethystic form.

All values are immutable after construction and all operations are pure.
"""

from fractions import Fraction
from math import gcd

from .laurent import (HalfPowerPolynomial, ONE, ZERO, _coerce_poly, _lift,
                      format_poly, moebius)


class NonzeroConstantTerm(ValueError):
    "The formal exp needs a series with zero constant coefficient."


class ConstantTermNotOne(ValueError):
    "Plethystic Log and rational powers need constant coefficient one."


class ZeroDenominator(ZeroDivisionError):
    "Rational function with zero denominator."


# -- dense helpers for division and gcd (ordinary polynomials in u) ----

def _to_dense(terms):
    "Return (min_exp, coefficient list from min_exp upward) of nonzero terms."
    lo = min(terms)
    coeffs = [0] * (max(terms) - lo + 1)
    for e, c in terms.items():
        coeffs[e - lo] = c
    return lo, coeffs


def _dense_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _dense_divmod(a, b):
    "Quotient and remainder of dense coefficient lists (b nonzero)."
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    # a unit leading coefficient is its own inverse and keeps ints ints
    inv = b[-1] if b[-1] in (1, -1) else Fraction(1) / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * inv
        if f:
            q[i] = f
            for j, bc in enumerate(b):
                a[i + j] -= f * bc
    return q, _dense_trim(a)


def _primitive(a):
    "Integer coefficient list divided by its content, the gcd of its entries."
    content = gcd(*a)
    return [c // content for c in a] if content > 1 else a


def _dense_prem(a, b):
    """Remainder of the integer list a by the integer list b (b nonzero), up
    to a nonzero integer factor.  Each step scales a by lead(b)/h and takes
    away (f/h) x^i b, f the leading entry of a and h = gcd(lead(b), f) with
    the sign of lead(b); no fraction is formed."""
    a = list(a)
    lead, low = b[-1], b[:-1]
    while len(a) > len(low):
        f = a.pop()
        if f:
            h = gcd(lead, f) if lead > 0 else -gcd(lead, f)
            s, t = lead // h, f // h
            if s != 1:
                a = [s * c for c in a]
            i = len(a) - len(low)
            for j, bc in enumerate(low):
                a[i + j] -= t * bc
    return _dense_trim(a)


def _dense_gcd(a, b):
    """Monic gcd over Q of nonzero dense int coefficient lists, by a primitive
    remainder sequence over Z (Brown, J. ACM 18, 1971; Knuth, TAOCP 2,
    4.6.1).  Every remainder is cut to its primitive part, so the
    coefficients stay small ints; the only division is by the leading
    coefficient at the end."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_dense_prem(a, b))
    lead = a[-1]
    return [Fraction(c, lead) if c % lead else c // lead for c in a]


def poly_divmod(a, b):
    "Exact Laurent division with remainder; b must be nonzero."
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return ZERO, ZERO
    la, da = _to_dense(a.terms)
    lb, db = _to_dense(b.terms)
    # work with the ordinary parts; carry the exponent shift on the quotient
    qd, rd = _dense_divmod(da, db)
    quotient = HalfPowerPolynomial.from_dense(la - lb, qd)
    remainder = HalfPowerPolynomial.from_dense(la, rd)
    return quotient, remainder


def poly_gcd(a, b):
    "Monic gcd of the ordinary parts (unit monomials are factored out)."
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    # the gcd over Q is that of the operands cleared of denominators
    _, da = _to_dense(_lift(a.terms)[1])
    _, db = _to_dense(_lift(b.terms)[1])
    g = _dense_gcd(da, db)
    return HalfPowerPolynomial.from_dense(0, g)


class RationalFunction:
    """Normalized quotient of HalfPowerPolynomials.

    Canonical form: the denominator is an ordinary polynomial in u with
    minimal exponent 0 and constant coefficient 1, coprime to the ordinary
    part of the numerator.  Monomial units u**k stay in the numerator, so the
    numerator may be a genuine Laurent polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = ONE if den is None else _coerce_poly(den)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", ZERO)
            object.__setattr__(self, "den", ONE)
            return
        if not den.is_one():
            shift = den.min_exp()
            if shift:
                # move the monomial unit of the denominator into the numerator
                den = HalfPowerPolynomial._raw({e - shift: c for e, c in den.terms.items()})
                num = HalfPowerPolynomial._raw({e - shift: c for e, c in num.terms.items()})
            g = poly_gcd(num, den)
            if not g.is_one() and g.max_exp() > 0:
                num, _ = poly_divmod(num, g)
                den, _ = poly_divmod(den, g)
            c = den.terms[den.min_exp()]
            if c != 1:
                num = num * (Fraction(1) / c)
                den = den * (Fraction(1) / c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _raw(cls, num, den):
        "Internal: wrap an already-canonical pair without renormalizing."
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self):
        return self.den.is_one()

    def __add__(self, other):
        other = _coerce_rf(other)
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        if self.den.is_one() and other.den.is_one():
            return RationalFunction._raw(self.num + other.num, ONE)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_coerce_rf(other))

    def __rsub__(self, other):
        return _coerce_rf(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # scaling the numerator keeps the canonical form; no gcd needed
            return RationalFunction._raw(self.num * other, self.den) if other else RF_ZERO
        other = _coerce_rf(other)
        if self.den.is_one() and other.den.is_one():
            return RationalFunction._raw(self.num * other.num, ONE)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other.is_zero():
            raise ZeroDenominator("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("rational function power needs an integer")
        if k < 0:
            if self.is_zero():
                raise ZeroDenominator("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-k)
        if k == 0:
            return RF_ONE
        # coprimality and the denominator normalization survive powers
        return RationalFunction._raw(self.num ** k, self.den ** k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, HalfPowerPolynomial)):
            other = _coerce_rf(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        # canonical forms make equality structural
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial equals, so hashes as, its numerator
        return hash(self.num if self.den.is_one() else (self.num, self.den))

    def evaluate(self, q0):
        d = self.den.evaluate(q0)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at q0")
        return Fraction(self.num.evaluate(q0), d)

    def to_pair(self):
        "Exchange format: numerator and denominator triple sequences."
        return [self.num.to_triples(), self.den.to_triples()]

    def __repr__(self):
        if self.den.is_one():
            return "RationalFunction(%s)" % format_poly(self.num)
        return "RationalFunction((%s)/(%s))" % (format_poly(self.num), format_poly(self.den))


RF_ZERO = RationalFunction(ZERO)
RF_ONE = RationalFunction(ONE)


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, HalfPowerPolynomial)):
        return RationalFunction(_coerce_poly(x))
    raise TypeError("cannot coerce %r to RationalFunction" % (x,))


def adams(f, d):
    """Adams substitution q -> q**d (u -> u**d) on polynomials or quotients.

    A ring endomorphism; adams(f, 1) is f itself.
    """
    if d < 1:
        raise ValueError("adams substitution needs d >= 1")
    if isinstance(f, HalfPowerPolynomial):
        return f.substitute_exponents(d)
    f = _coerce_rf(f)
    if d == 1:
        return f
    # exponent scaling preserves coprimality and the denominator normalization
    return RationalFunction._raw(f.num.substitute_exponents(d),
                                 f.den.substitute_exponents(d))


class TruncatedSeries:
    """Power series in T up to a fixed order with RationalFunction coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 1:
            raise ValueError("order must be positive")
        cs = [RF_ZERO] * (order + 1)
        if coeffs is not None:
            if isinstance(coeffs, dict):
                items = coeffs.items()
            else:
                items = enumerate(coeffs)
            for i, c in items:
                if i <= order:
                    cs[i] = _coerce_rf(c)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def one(cls, order):
        return cls(order, {0: RF_ONE})

    def coefficient(self, n):
        return self.coeffs[n]

    def __add__(self, other):
        other = self._coerce(other)
        return TruncatedSeries(self.order,
                               [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, HalfPowerPolynomial, RationalFunction)):
            c = _coerce_rf(other)
            return TruncatedSeries(self.order, [a * c for a in self.coeffs])
        other = self._coerce(other)
        n = self.order
        out = [RF_ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            if other.order != self.order:
                raise ValueError("series orders differ")
            return other
        raise TypeError("cannot combine series with %r" % (other,))

    def inverse(self):
        "Multiplicative inverse; needs a unit constant coefficient."
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise ZeroDenominator("series with zero constant term has no inverse")
        n = self.order
        inv0 = RF_ONE / c0
        out = [RF_ZERO] * (n + 1)
        out[0] = inv0
        for k in range(1, n + 1):
            acc = RF_ZERO
            for i in range(1, k + 1):
                a = self.coeffs[i]
                if not a.is_zero():
                    acc = acc + a * out[k - i]
            out[k] = -inv0 * acc
        return TruncatedSeries(n, out)

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append("(%r)*T^%d" % (c, i))
        return "TruncatedSeries(%s)" % (" + ".join(parts) or "0")


def log_coefficients(a, c, w):
    """Extend c through c[w] by c_m = m a(m) - sum_{0<k<m} c_k a(m-k), so that
    c_m = m [T^m] log(1 + sum_m a(m) T^m); returns c.  c[0] is the caller's
    zero, and a product with a zero factor is skipped."""
    for m in range(len(c), w + 1):
        acc = a(m) * m
        for k in range(1, m):
            b = a(m - k)
            if not c[k].is_zero() and not b.is_zero():
                acc = acc - c[k] * b
        c.append(acc)
    return c


def divisor_sum(n, coefficient, weight):
    """sum over d | n of weight(d) * adams(coefficient(n/d), d), the step
    that turns a log or a series into its plethystic form; a d with
    weight(d) = 0 is skipped."""
    total = ZERO
    for d in range(1, n + 1):
        if n % d == 0:
            w = weight(d)
            if w:
                total = total + adams(coefficient(n // d), d) * w
    return total


def formal_log(f):
    "Formal logarithm of a series with constant coefficient 1: c_w / w."
    if not f.coeffs[0].is_one():
        raise ConstantTermNotOne("log needs constant coefficient 1")
    n = f.order
    c = log_coefficients(f.coeffs.__getitem__, [RF_ZERO], n)
    return TruncatedSeries(n, [RF_ZERO] + [c[w] * Fraction(1, w)
                                           for w in range(1, n + 1)])


def formal_exp(w):
    """Formal exponential of a series with zero constant coefficient.

    Uses the recurrence m E_m = sum_{k=1}^m k W_k E_{m-k}, so it costs
    O(order^2) coefficient products.
    """
    if not w.coeffs[0].is_zero():
        raise NonzeroConstantTerm("exp needs zero constant coefficient")
    n = w.order
    kw = [c * k for k, c in enumerate(w.coeffs)]
    out = [RF_ONE] + [RF_ZERO] * n
    for m in range(1, n + 1):
        acc = RF_ZERO
        for k in range(1, m + 1):
            if not kw[k].is_zero() and not out[m - k].is_zero():
                acc = acc + kw[k] * out[m - k]
        out[m] = acc * Fraction(1, m)
    return TruncatedSeries(n, out)


def pleth_log(f):
    """Plethystic logarithm, the inverse of Exp(v) = exp(sum_d psi_d(v)/d).

    Its T^m coefficient is (1/m) sum_{d|m} mu(d) psi_d(c_(m/d)), with c the
    log coefficients of f; the input must have constant coefficient one.
    """
    if not f.coeffs[0].is_one():
        raise ConstantTermNotOne("plethystic Log needs constant coefficient 1")
    n = f.order
    c = log_coefficients(f.coeffs.__getitem__, [RF_ZERO], n)
    return TruncatedSeries(n, [RF_ZERO] + [
        divisor_sum(m, c.__getitem__, moebius) * Fraction(1, m)
        for m in range(1, n + 1)])
