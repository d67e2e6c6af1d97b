"""Property tests for the exact arithmetic in algebra: products against a
schoolbook Fraction product, the gcd against divisibility, and the
canonical form of rational functions, on Laurent polynomials drawn with int
and Fraction coefficients."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from realcharvar.algebra import (HalfPowerPolynomial, RationalFunction, U,
                                 poly_divmod, poly_gcd)

PROPERTIES = settings(max_examples=50, deadline=None, database=None,
                      derandomize=True)

integers = st.integers(-30, 30)
fractions = st.builds(Fraction, integers, st.integers(1, 9))
coefficients = st.one_of(integers, fractions)
nonzero_coefficients = st.one_of(integers.filter(bool),
                                 fractions.filter(bool))
polynomials = st.dictionaries(st.integers(-5, 5), coefficients,
                              max_size=6).map(HalfPowerPolynomial)
nonzero = st.dictionaries(st.integers(-5, 5), nonzero_coefficients,
                          min_size=1, max_size=6).map(HalfPowerPolynomial)


def schoolbook(a, b):
    "a*b summed term by term in Fractions."
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + Fraction(c1) * c2
    return HalfPowerPolynomial(out)


def integral_coefficients_are_ints(p):
    return all(type(c) is int for c in p.terms.values() if c.denominator == 1)


def is_monic(p):
    return p.terms[p.max_exp()] == 1


def divides(d, p):
    return poly_divmod(p, d)[1].is_zero()


@PROPERTIES
@given(polynomials, polynomials, coefficients)
def test_product_matches_schoolbook(a, b, c):
    assert (a * b).terms == schoolbook(a, b).terms
    assert (a * c).terms == schoolbook(a, HalfPowerPolynomial({0: c})).terms
    assert (c * a) == (a * c)
    assert integral_coefficients_are_ints(a * b)
    assert integral_coefficients_are_ints(a * c)


@settings(PROPERTIES, max_examples=40)
@given(nonzero, nonzero)
def test_gcd_is_monic_and_divides_both(a, b):
    g = poly_gcd(a, b)
    assert g.min_exp() == 0 and is_monic(g)
    assert divides(g, a) and divides(g, b)


@st.composite
def coprime_pairs(draw):
    """Two Laurent polynomials with coprime ordinary parts: products of
    linear factors u - root over disjoint root sets, times c u**k."""
    roots = draw(st.lists(st.builds(Fraction, st.integers(-12, 12),
                                    st.integers(1, 4)),
                          unique=True, max_size=6))
    split = draw(st.integers(0, len(roots)))
    pair = []
    for part in (roots[:split], roots[split:]):
        p = HalfPowerPolynomial.u_power(draw(st.integers(-2, 2)),
                                        draw(nonzero_coefficients))
        for root in part:
            p = p * (U - root)
        pair.append(p)
    return pair


@settings(PROPERTIES, max_examples=30)
@given(coprime_pairs(), nonzero)
def test_gcd_of_common_multiples_is_the_common_factor(pair, c):
    a, b = pair
    lo, lead = c.min_exp(), c.terms[c.max_exp()]
    monic_c = HalfPowerPolynomial({e - lo: Fraction(v) / lead
                                   for e, v in c.terms.items()})
    assert poly_gcd(a * c, b * c) == monic_c


def _is_canonical(f):
    den = f.den
    return (den.min_exp() == 0 and den.terms[0] == 1
            and (f.num.is_zero() or poly_gcd(f.num, den).is_one()))


@settings(PROPERTIES, max_examples=25)
@given(st.lists(st.tuples(polynomials, nonzero), min_size=3, max_size=3))
def test_sums_and_products_stay_canonical(pairs):
    (n1, d1), (n2, d2), (n3, d3) = pairs
    f1, f2, f3 = (RationalFunction(n, d) for n, d in pairs)
    assert all(map(_is_canonical, (f1, f2, f3)))
    value = f1 + f2 * f3
    assert _is_canonical(value)
    # value = (n1 d2 d3 + n2 n3 d1) / (d1 d2 d3), cross-multiplied
    num = schoolbook(schoolbook(n1, d2), d3) + schoolbook(schoolbook(n2, n3), d1)
    den = schoolbook(schoolbook(d1, d2), d3)
    assert schoolbook(value.num, den) == schoolbook(num, value.den)
