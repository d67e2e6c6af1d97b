"""Exact Laurent polynomials in the half-power variable u, where u**2 = q.

HalfPowerPolynomial keys exact coefficients by integer u-exponent (exponent
e stands for q**(e/2)).  A coefficient is a Python int; a Fraction appears
only where a division makes one.  Products are fraction-free: both factors
are lifted to int numerators over one common denominator, the ints are
convolved, and each output coefficient is divided once, so an integral
result is an int.  Every E_n and E_n^k the formulas return is one of these.
The errors, constants and Moebius function that the formulas and the counts
share, and the text and LaTeX renderings, live here too.  Nothing is
imported from algebra, the rational reference layer, so no formula command
and no count loads it.  All values are immutable after construction and
all operations are pure.
"""

from fractions import Fraction
from math import lcm


class OddExponent(ValueError):
    "Evaluation at a numeric q requires every u-exponent to be even."


class ExactnessError(ArithmeticError):
    """A value that exact arithmetic guarantees (an integer, a vanishing
    remainder, a nonnegative count) came out otherwise."""


def _frac(x):
    "Check that x is an exact coefficient (int or Fraction); no conversion."
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError("expected int or Fraction, got %r" % (x,))


def moebius(d):
    "Classical number-theoretic Moebius function."
    if d < 1:
        raise ValueError("moebius needs a positive integer")
    result = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    if d > 1:
        result = -result
    return result


class HalfPowerPolynomial:
    """Laurent polynomial in u (u**2 = q) with exact rational coefficients.

    Stored as a dict {u-exponent: int or Fraction} holding no zero
    coefficients.  The public constructor checks every coefficient; results
    built inside this module come through _raw, which does not.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _frac(c)
                if c:
                    clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HalfPowerPolynomial is immutable")

    @classmethod
    def _raw(cls, terms):
        """Internal: wrap a dict of nonzero int or Fraction coefficients with
        int keys as it is, skipping the per-coefficient check."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, n):
        return cls({0: n})

    @classmethod
    def u_power(cls, e, coeff=1):
        "Monomial coeff * u**e."
        return cls({e: _frac(coeff)})

    @classmethod
    def q_power(cls, k, coeff=1):
        "Monomial coeff * q**k."
        return cls({2 * k: _frac(coeff)})

    @classmethod
    def from_dense(cls, lo, coeffs):
        """Coefficients of u**lo, u**(lo+1), ... from a list of exact
        coefficients (int or Fraction) that arithmetic made; the zeros are
        dropped and nothing is checked."""
        return cls._raw({lo + i: c for i, c in enumerate(coeffs) if c})

    @classmethod
    def from_triples(cls, triples):
        """Exchange format: iterable of [half-exponent, numerator,
        denominator].  An integral coefficient comes back as an int."""
        terms = {}
        for e, num, den in triples:
            c = Fraction(int(num), int(den))
            terms[int(e)] = c.numerator if c.denominator == 1 else c
        return cls(terms)

    # -- predicates and views ----------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: 1}

    def is_q_polynomial(self):
        "True when every stored exponent is even, i.e. the value lives in q."
        return all(e % 2 == 0 for e in self.terms)

    def min_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    def max_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def constant_coeff(self):
        return self.terms.get(0, 0)

    def to_triples(self):
        "Exchange format, sorted by ascending exponent."
        return [[e, self.terms[e].numerator, self.terms[e].denominator]
                for e in sorted(self.terms)]

    def to_pair(self):
        "Exchange format of the quotient over 1: [triples, [[0, 1, 1]]]."
        return [self.to_triples(), [[0, 1, 1]]]

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (HalfPowerPolynomial, int, Fraction)):
            return NotImplemented
        other = _coerce_poly(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return HalfPowerPolynomial._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return HalfPowerPolynomial._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """Fraction-free product: each operand is lifted to int numerators
        over one common denominator, the ints are convolved, and each output
        coefficient is divided once by the product of the denominators."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            den, a = _lift(self.terms)
            n = other.numerator
            return HalfPowerPolynomial._raw(
                _over({e: c * n for e, c in a.items()}, den * other.denominator))
        if not isinstance(other, HalfPowerPolynomial):
            return NotImplemented
        if not self.terms or not other.terms:
            return ZERO
        da, a = _lift(self.terms)
        db, b = _lift(other.terms)
        b = tuple(b.items())
        acc = {}
        get = acc.get
        for e1, c1 in a.items():
            for e2, c2 in b:
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2
        return HalfPowerPolynomial._raw(_over(acc, da * db))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power needs a non-negative integer")
        result = HalfPowerPolynomial.from_int(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce_poly(other)
        if not isinstance(other, HalfPowerPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals, so hashes as, its int or Fraction
        return hash(self.constant_coeff() if self.terms.keys() <= {0}
                    else frozenset(self.terms.items()))

    def evaluate(self, q0):
        """Evaluate exactly at a rational value of q.

        Requires every exponent to be even (the value must live in q); raises
        OddExponent otherwise.  At an int q0, int coefficients on
        nonnegative exponents give an int, and no Fraction is made.
        """
        if _frac(q0) == 0:
            raise ZeroDivisionError("evaluation requires q0 != 0")
        total = 0
        for e, c in self.terms.items():
            if e % 2:
                raise OddExponent("exponent %d is not an even power of u" % e)
            total += (c * q0 ** (e // 2) if e >= 0
                      else Fraction(c, q0 ** (-e // 2)))
        return total

    def substitute_exponents(self, d):
        "Map every exponent e to e*d (the adams substitution u -> u**d)."
        if d < 1:
            raise ValueError("adams substitution needs d >= 1")
        if d == 1:
            return self
        return HalfPowerPolynomial._raw({e * d: c for e, c in self.terms.items()})

    def __repr__(self):
        return "HalfPowerPolynomial(%s)" % format_poly(self)


def _lift(terms):
    """(den, numerators): den is the lcm of the coefficient denominators and
    numerators maps each exponent to the int coefficient * den."""
    dens = {c.denominator for c in terms.values() if type(c) is not int}
    if not dens:
        return 1, terms
    den = lcm(*dens)
    return den, {e: c.numerator * (den // c.denominator)
                 for e, c in terms.items()}


def _over(numerators, den):
    """Exact coefficients numerator/den with the zeros dropped; a quotient
    that comes out integral is an int."""
    if den == 1:
        return {e: c for e, c in numerators.items() if c}
    out = {}
    for e, c in numerators.items():
        if c:
            quo, rem = divmod(c, den)
            out[e] = Fraction(c, den) if rem else quo
    return out


def _coerce_poly(x):
    if isinstance(x, HalfPowerPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return HalfPowerPolynomial({0: _frac(x)})
    raise TypeError("cannot coerce %r to HalfPowerPolynomial" % (x,))


ZERO = HalfPowerPolynomial()
ONE = HalfPowerPolynomial.from_int(1)
Q = HalfPowerPolynomial.q_power(1)
U = HalfPowerPolynomial.u_power(1)
Q_MINUS_ONE = Q - ONE


# -- rendering ---------------------------------------------------------

def _format_coeff(c, leading):
    sign = "-" if c < 0 else ("" if leading else "+")
    mag = abs(c)
    body = str(mag.numerator) if mag.denominator == 1 else "%d/%d" % (mag.numerator, mag.denominator)
    return sign, body


def _format_terms(p, whole, half, times, gap):
    """The terms of p, q-descending: q^(e/2) is "q" at e = 2 and otherwise
    whole % (e/2) at even e, half % e at odd e; times stands between a
    coefficient other than 1 and its monomial, and gap after every sign but
    the leading one."""
    if p.is_zero():
        return "0"
    pieces = []
    for i, e in enumerate(sorted(p.terms, reverse=True)):
        sign, body = _format_coeff(p.terms[e], i == 0)
        mono = ("" if e == 0 else "q" if e == 2
                else whole % (e // 2) if e % 2 == 0 else half % e)
        if mono and body == "1":
            body = ""
        pieces.append(sign + (gap if i else "") + body
                      + (times if body and mono else "") + mono)
    return " ".join(pieces)


def format_poly(p):
    "Human-readable rendering, q-descending."
    return _format_terms(p, "q^%d", "q^(%d/2)", "*", " ")


def format_poly_latex(p):
    "LaTeX rendering, q-descending."
    return _format_terms(p, "q^{%d}", "q^{%d/2}", "", "")
