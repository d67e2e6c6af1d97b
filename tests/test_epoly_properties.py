"""Property tests for the formula side: integrality, the binomial component
sum, k-independence at odd rank, the Euler characteristics and the genus-1
constants, on requests drawn with n <= 12 and g <= 5 in both conventions;
and the packed log tables, genus 0 included, against the multiset reference
for n <= 8 and g <= 4.
The Euler characteristic's binomial sums are checked against the route they
replaced, g exact divisions by q-1 and then evaluation at q = 1."""

from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from realcharvar import epoly
from realcharvar.algebra import (HalfPowerPolynomial, Q_MINUS_ONE, moebius,
                                 poly_divmod)
from realcharvar.epoly import (CONVENTIONS, NotDivisible,
                               SurfaceData, e_poly, e_poly_component,
                               euler_char_component)
from realcharvar.verify import reference_e_value

PROPERTIES = settings(max_examples=50, deadline=None, database=None,
                      derandomize=True)


@st.composite
def requests(draw, min_g=0, max_g=5, max_n=12):
    """(n, surface, odd k <= r, convention) with min_g <= g <= max_g and
    n <= max_n."""
    g = draw(st.integers(min_g, max_g))
    r = draw(st.integers(1, g + 1))
    k = draw(st.sampled_from(range(1, r + 1, 2)))
    n = draw(st.integers(1, max_n))
    return n, SurfaceData(g, r), k, draw(st.sampled_from(CONVENTIONS))


def euler_by_division(poly, g):
    "poly / (q-1)^g at q = 1 by g exact divisions; None on a remainder."
    for _ in range(g):
        poly, rem = poly_divmod(poly, Q_MINUS_ONE)
        if not rem.is_zero():
            return None
    return poly.evaluate(1)


@PROPERTIES
@given(requests())
def test_coefficients_are_ints_at_even_nonnegative_exponents(request):
    n, surf, k, conv = request
    for poly in (e_poly(n, surf, conv), e_poly_component(n, surf, k, conv)):
        assert all(type(c) is int for c in poly.terms.values())
        assert all(e >= 0 and e % 2 == 0 for e in poly.terms)


@PROPERTIES
@given(requests(max_g=4, max_n=8))
def test_packed_route_matches_the_multiset_reference(request):
    n, surf, _, conv = request
    assert e_poly(n, surf, conv) == reference_e_value(n, surf, conv)
    for k in range(1, surf.r + 1, 2):
        assert e_poly_component(n, surf, k, conv) == \
            reference_e_value(n, surf, conv, k)


@PROPERTIES
@given(requests())
def test_binomial_component_sum_is_the_total(request):
    n, surf, _, conv = request
    total = sum(e_poly_component(n, surf, k, conv) * comb(surf.r, k)
                for k in range(1, surf.r + 1, 2))
    assert total == e_poly(n, surf, conv)


@PROPERTIES
@given(requests())
def test_components_do_not_depend_on_k_at_odd_rank(request):
    n, surf, k, conv = request
    if n % 2:
        assert e_poly_component(n, surf, k, conv) == \
            e_poly_component(n, surf, 1, conv)


@PROPERTIES
@given(requests(min_g=2))
def test_euler_characteristic_above_genus_one(request):
    n, surf, k, conv = request
    want = moebius(n) * n ** (surf.g - 2) if n % 2 else 0
    assert euler_char_component(n, surf, k, conv) == want


@PROPERTIES
@given(requests(min_g=1, max_g=1))
def test_genus_one_constant(request):
    n, surf, _, conv = request
    assert e_poly(n, surf, conv) == Q_MINUS_ONE * 2 ** (surf.r - 1)


@PROPERTIES
@given(requests())
def test_binomial_sums_match_division(request):
    n, surf, k, conv = request
    got = euler_char_component(n, surf, k, conv)
    assert type(got) is int
    assert got == euler_by_division(e_poly_component(n, surf, k, conv), surf.g)


polynomials_in_q = st.dictionaries(st.integers(0, 6).map(lambda m: 2 * m),
                                   st.integers(-9, 9), max_size=5)


@PROPERTIES
@given(polynomials_in_q, st.integers(0, 4))
def test_binomial_sums_match_division_on_any_polynomial(terms, g):
    "Products with (q-1)^g divide; the others raise NotDivisible."
    for poly in (HalfPowerPolynomial(terms),
                 HalfPowerPolynomial(terms) * Q_MINUS_ONE ** g):
        want = euler_by_division(poly, g)
        surf = SurfaceData(g, 1)
        with mock.patch.object(epoly, "e_poly_component", lambda *_: poly):
            if want is None:
                with pytest.raises(NotDivisible):
                    euler_char_component(1, surf, 1)
            else:
                got = euler_char_component(1, surf, 1)
                assert type(got) is int and got == want
