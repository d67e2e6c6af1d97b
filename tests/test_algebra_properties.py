"""Property tests for the exact arithmetic in algebra: products against a
schoolbook Fraction product, the gcd against divisibility, and the
canonical form of rational functions, on Laurent polynomials drawn with int
and Fraction coefficients; and the series log and Log against the
psi-series forms they replaced, and as maps from products to sums, on series
with rational coefficients."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from realcharvar.algebra import (RF_ONE, RF_ZERO, RationalFunction,
                                 TruncatedSeries, adams, formal_exp,
                                 formal_log, pleth_log, poly_divmod, poly_gcd)
from realcharvar.laurent import ONE, HalfPowerPolynomial, U, moebius

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


@settings(PROPERTIES, max_examples=25)
@given(polynomials, nonzero, nonzero, coefficients)
def test_equal_values_hash_equal(p, d, e, c):
    # each group builds one value by different routes; across all of them,
    # a == b must imply hash(a) == hash(b)
    const = HalfPowerPolynomial({0: c})
    groups = [
        [c, Fraction(c), const, RationalFunction(c),
         RationalFunction(const * d, d), (const + p) - p],
        [p, HalfPowerPolynomial.from_triples(p.to_triples()),
         RationalFunction(p), RationalFunction(p * d, d)],
        [RationalFunction(p, d), RationalFunction(p * e, d * e),
         RationalFunction(p) / RationalFunction(d)],
    ]
    for group in groups:
        assert all(a == group[0] for a in group)
    values = [a for group in groups for a in group]
    for a in values:
        for b in values:
            assert a != b or hash(a) == hash(b), (a, b)


# -- the series layer against the psi-series forms -----------------------

def reference_formal_log(f):
    "log f by its own copy of the recurrence c_w = w f_w - sum c_k f_(w-k)."
    n = f.order
    c = [RF_ZERO] * (n + 1)
    for w in range(1, n + 1):
        acc = f.coeffs[w] * w
        for k in range(1, w):
            acc = acc - c[k] * f.coeffs[w - k]
        c[w] = acc
    return TruncatedSeries(n, [RF_ZERO] + [c[w] * Fraction(1, w)
                                           for w in range(1, n + 1)])


def psi(v, d):
    "Coefficient-wise adams plus T-degree dilation: T-degree j goes to d*j."
    return TruncatedSeries(v.order, {d * j: adams(v.coeffs[j], d)
                                     for j in range(1, v.order // d + 1)})


def reference_pleth_log(f):
    "sum_d (mu(d)/d) psi_d(log f), summed as series."
    log = reference_formal_log(f)
    out = TruncatedSeries(f.order)
    for d in range(1, f.order + 1):
        if moebius(d):
            out = out + psi(log, d) * Fraction(moebius(d), d)
    return out


small_polynomials = st.dictionaries(st.integers(-2, 2), coefficients,
                                    max_size=3).map(HalfPowerPolynomial)
# zero, polynomial, and the (1 - q^h) denominators of the genus-0 series
series_coefficients = st.one_of(
    st.just(RF_ZERO),
    small_polynomials.map(RationalFunction),
    st.builds(lambda p, h: RationalFunction(p, ONE - U ** (2 * h)),
              small_polynomials, st.integers(1, 2)))


def series(constant):
    return st.integers(1, 5).flatmap(lambda order: st.lists(
        series_coefficients, min_size=order, max_size=order).map(
            lambda cs: TruncatedSeries(order, [constant] + cs)))


@settings(PROPERTIES, max_examples=25)
@given(series(RF_ONE))
def test_log_and_pleth_log_match_the_references(f):
    assert formal_log(f) == reference_formal_log(f)
    assert pleth_log(f) == reference_pleth_log(f)
    assert formal_exp(formal_log(f)) == f


def unit_series_pairs():
    return st.integers(1, 4).flatmap(lambda order: st.tuples(*[
        st.lists(series_coefficients, min_size=order, max_size=order).map(
            lambda cs: TruncatedSeries(order, [RF_ONE] + cs))] * 2))


@settings(PROPERTIES, max_examples=15)
@given(unit_series_pairs())
def test_log_and_pleth_log_turn_products_into_sums(pair):
    f, g = pair
    assert formal_log(f * g) == formal_log(f) + formal_log(g)
    assert pleth_log(f * g) == pleth_log(f) + pleth_log(g)
