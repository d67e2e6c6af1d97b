import random
from fractions import Fraction

import pytest

from realcharvar.algebra import (HalfPowerPolynomial, ONE, Q, Q_MINUS_ONE,
                                 RF_ONE, RF_ZERO, RationalFunction,
                                 TruncatedSeries, U,
                                 ConstantTermNotOne, OddExponent, adams,
                                 format_poly, formal_exp, formal_log, moebius,
                                 pleth_log, poly_divmod, poly_gcd)
from realcharvar.verify import rational_exponent_pow


def q_power(k, c=1):
    return HalfPowerPolynomial.q_power(k, c)


def test_half_poly_eval_examples():
    assert (Q - ONE).evaluate(Fraction(5)) == 4
    assert ONE.evaluate(Fraction(7)) == 1
    # the rank-2 worked value at q=5, frozen from the three-term closed form
    e2 = (Q_MINUS_ONE ** 2) * (
        (q_power(3) - Q) * 2 + (q_power(2) - ONE) * 2 - (q_power(2) - Q) * 2
    ) * Fraction(1, 2)
    assert e2.evaluate(Fraction(5)) == 1984


def test_half_poly_eval_rejects_odd_exponents():
    with pytest.raises(OddExponent):
        U.evaluate(Fraction(3))


def test_laurent_predicates():
    p = HalfPowerPolynomial({-2: 1, 0: -2, 3: 1})
    assert not p.is_q_polynomial()
    assert p.min_exp() == -2 and p.max_exp() == 3
    assert (p - p).is_zero()
    assert HalfPowerPolynomial({0: 1}).is_one()


def test_exchange_format_roundtrip():
    p = HalfPowerPolynomial({-1: Fraction(2, 3), 0: 1, 4: -5})
    triples = p.to_triples()
    assert triples == [[-1, 2, 3], [0, 1, 1], [4, -5, 1]]
    back = HalfPowerPolynomial.from_triples(triples)
    assert back == p
    # integral coefficients come back as ints, not as Fractions
    assert [type(back.terms[e]) for e in (-1, 0, 4)] == [Fraction, int, int]
    assert HalfPowerPolynomial.from_triples([[0, 4, 2]]).terms == {0: 2}
    assert type(HalfPowerPolynomial.from_triples([[0, 4, 2]]).terms[0]) is int
    r = RationalFunction(p, Q - ONE)
    num, den = r.to_pair()
    assert RationalFunction(HalfPowerPolynomial.from_triples(num),
                            HalfPowerPolynomial.from_triples(den)) == r


def _random_poly(rng, span=4):
    return HalfPowerPolynomial({rng.randint(-span, span):
                                Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                for _ in range(rng.randint(0, 5))})


def test_ring_axioms_random():
    rng = random.Random(20240901)
    for _ in range(200):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_rational_function_normalization():
    r = RationalFunction(q_power(2) - ONE, Q - ONE)
    assert r == RationalFunction(Q + ONE)
    assert r.is_polynomial()
    # denominator normalized to constant coefficient 1
    r2 = RationalFunction(ONE, (Q - ONE) * 3)
    assert r2.den.terms[0] == 1
    assert r2 == RationalFunction(ONE, Q - ONE) * Fraction(1, 3)


def test_rational_function_field_axioms_random():
    rng = random.Random(7)
    polys = []
    while len(polys) < 12:
        p = _random_poly(rng, span=2)
        if not p.is_zero():
            polys.append(p)
    fs = [RationalFunction(polys[i], polys[i + 1]) for i in range(0, 12, 2)]
    for a in fs:
        for b in fs:
            assert a + b == b + a
            assert a * b == b * a
            if not b.is_zero():
                assert (a / b) * b == a


def test_mixed_polynomial_and_rational_arithmetic():
    # a polynomial operand defers to the rational function, from either side
    f = RationalFunction(ONE, Q_MINUS_ONE)
    assert type(Q + f) is type(f + Q) is type(Q * f) is RationalFunction
    assert Q + f == f + Q == RationalFunction(Q * Q_MINUS_ONE + ONE, Q_MINUS_ONE)
    assert Q - f == -(f - Q)
    assert Q * f == f * Q == RationalFunction(Q, Q_MINUS_ONE)
    assert f * Fraction(1, 3) == RationalFunction(ONE, Q_MINUS_ONE * 3)
    assert (f * 0).is_zero() and f + RF_ZERO == RF_ZERO + f == f


def test_division_and_gcd():
    a = (Q - ONE) * (Q + ONE)
    quo, rem = poly_divmod(a, Q - ONE)
    assert rem.is_zero() and quo == Q + ONE
    g = poly_gcd((Q - ONE) ** 2 * (Q + ONE), (Q - ONE) * Q)
    # monic gcd of the ordinary parts
    quo2, rem2 = poly_divmod(Q - ONE, g)
    assert rem2.is_zero()


def test_adams_examples():
    assert adams(RationalFunction(Q - ONE), 2) == RationalFunction(q_power(2) - ONE)
    assert adams(RationalFunction(U), 2) == RationalFunction(Q)
    assert (adams(RationalFunction(ONE, Q - ONE), 3)
            == RationalFunction(ONE, q_power(3) - ONE))
    f = RationalFunction(Q + ONE, q_power(2) - Q)
    assert adams(f, 1) == f


def test_adams_is_ring_endomorphism():
    rng = random.Random(99)
    for _ in range(40):
        a, b = _random_poly(rng), _random_poly(rng)
        fa, fb = RationalFunction(a), RationalFunction(b)
        for d in (2, 3):
            assert adams(fa * fb, d) == adams(fa, d) * adams(fb, d)
            assert adams(fa + fb, d) == adams(fa, d) + adams(fb, d)


def test_pleth_log_examples():
    n = 8
    # 1/(1-T) = sum T^m and 1/((1-T)(1-qT)) = sum (1 + q + ... + q^m) T^m
    inv_1mt = TruncatedSeries(n, [RF_ONE] * (n + 1))
    assert pleth_log(inv_1mt) == TruncatedSeries(n, {1: RF_ONE})
    both = TruncatedSeries(n, [
        RationalFunction(HalfPowerPolynomial({2 * i: 1 for i in range(m + 1)}))
        for m in range(n + 1)])
    assert pleth_log(both) == TruncatedSeries(
        n, {1: RationalFunction(Q + ONE)})


def test_pleth_log_two_factors():
    # 1/((1-T)(1-T^2)) = 1 + T + 2T^2 + 2T^3 + 3T^4 + ... has Log T + T^2
    n = 6
    f = TruncatedSeries(n, [1, 1, 2, 2, 3, 3, 4])
    assert pleth_log(f) == TruncatedSeries(n, {1: RF_ONE, 2: RF_ONE})


def _random_unit_series(rng, n):
    return TruncatedSeries(n, [RF_ONE] + [
        RationalFunction(_random_poly(rng, span=2)) for _ in range(n)])


def test_pleth_log_turns_products_into_sums():
    rng = random.Random(7)
    n = 6
    for _ in range(10):
        f, g = _random_unit_series(rng, n), _random_unit_series(rng, n)
        assert pleth_log(f * g) == pleth_log(f) + pleth_log(g)


def test_pleth_log_inverts_euler_products_random():
    # Log prod (1 - q^k T^i)^(-c) = sum c q^k T^i, for integers c of any sign
    rng = random.Random(5)
    n = 6
    for _ in range(10):
        v = TruncatedSeries(n)
        f = TruncatedSeries.one(n)
        for _ in range(rng.randint(1, 5)):
            i, k, c = rng.randint(1, n), rng.randint(0, 2), rng.randint(-2, 2)
            v = v + TruncatedSeries(n, {i: RationalFunction(q_power(k, c))})
            factor = TruncatedSeries(n, {0: RF_ONE,
                                         i: -RationalFunction(q_power(k))})
            for _ in range(abs(c)):
                f = f * (factor.inverse() if c > 0 else factor)
        assert pleth_log(f) == v


def test_pleth_preconditions():
    with pytest.raises(ConstantTermNotOne):
        pleth_log(TruncatedSeries(4, {1: RF_ONE}))


def test_rational_exponent_pow():
    n = 6
    f = TruncatedSeries(n, {0: RF_ONE, 1: RF_ONE})
    sq = rational_exponent_pow(f, 2)
    assert sq == f * f
    back = rational_exponent_pow(sq, Fraction(1, 2))
    assert back == f
    # binomial series of (1-T)^(-1/2): 1 + T/2 + 3T^2/8 + 5T^3/16
    geo = TruncatedSeries(n, [RF_ONE] * (n + 1))
    half = rational_exponent_pow(geo, Fraction(1, 2))
    assert half.coefficient(1).evaluate(Fraction(2)) == Fraction(1, 2)
    assert half.coefficient(2).evaluate(Fraction(2)) == Fraction(3, 8)
    assert half.coefficient(3).evaluate(Fraction(2)) == Fraction(5, 16)


def test_rational_pow_root_roundtrip_random():
    rng = random.Random(11)
    n = 5
    for c in (2, 3, 4):
        coeffs = {i: RationalFunction(_random_poly(rng, 2))
                  for i in range(1, n + 1)}
        coeffs[0] = RF_ONE
        f = TruncatedSeries(n, coeffs)
        root = rational_exponent_pow(f, Fraction(1, c))
        assert rational_exponent_pow(root, c) == f


def test_formal_log_exp_with_real_denominators():
    # genus-0 partition series: sums of inverse hook polynomials, whose
    # denominators survive normalization
    from realcharvar.epoly import hook_polynomial
    from realcharvar.partitions import all_partitions, conjugate
    n = 6
    f = TruncatedSeries(n, [RF_ONE] + [
        sum((RF_ONE / hook_polynomial(lam) for lam in all_partitions(w)),
            RF_ZERO)
        for w in range(1, n + 1)])
    g = TruncatedSeries(n, [RF_ONE] + [
        RF_ONE / hook_polynomial(conjugate(all_partitions(w)[-1])) * w
        for w in range(1, n + 1)])
    assert not f.coefficient(2).is_polynomial()
    assert formal_exp(formal_log(f)) == f
    assert formal_log(f * g) == formal_log(f) + formal_log(g)


def test_moebius():
    assert [moebius(d) for d in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_format_poly():
    assert format_poly(Q_MINUS_ONE ** 2) == "q^2 - 2*q + 1"
    assert format_poly(HalfPowerPolynomial()) == "0"
    assert format_poly(HalfPowerPolynomial({1: 1})) == "q^(1/2)"


def _exact_coefficients(*polys):
    return all(type(c) in (int, Fraction) for p in polys for c in p.terms.values())


def test_integer_coefficients_stay_ints():
    p = (Q - ONE) ** 3 * 2 + U - HalfPowerPolynomial.from_int(4)
    assert all(type(c) is int for c in p.terms.values())
    assert p.constant_coeff() == -6 and type(p.constant_coeff()) is int


def test_divmod_by_non_monic_integer_divisor_stays_exact():
    b = Q * 2 + 2
    quo, rem = poly_divmod(b * (Q * 3 - 1), b)
    assert quo == Q * 3 - 1 and rem.is_zero()
    assert _exact_coefficients(quo)
    # q^2 + 1 = (2q + 2)(q/2 - 1/2) + 2
    quo, rem = poly_divmod(q_power(2) + 1, b)
    assert quo == Q * Fraction(1, 2) - Fraction(1, 2)
    assert rem == 2
    assert _exact_coefficients(quo, rem)


def test_divmod_by_unit_leading_divisor_keeps_ints():
    a = (Q - ONE) ** 3 * (Q * 5 + 7) + 2
    for b, sign in ((Q - ONE, 1), (ONE - Q, -1)):
        quo, rem = poly_divmod(a, b)
        assert quo == (Q - ONE) ** 2 * (Q * 5 + 7) * sign and rem == 2
        assert all(type(c) is int for p in (quo, rem) for c in p.terms.values())


def test_rational_function_normalizes_integer_denominator_exactly():
    rf = RationalFunction(ONE, Q * 4 + 2)
    assert rf.num.terms == {0: Fraction(1, 2)}
    assert rf.den == Q * 2 + 1
    assert _exact_coefficients(rf.num, rf.den)


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        HalfPowerPolynomial({0: 0.5})
    with pytest.raises(TypeError):
        ONE * 0.5


def test_negative_power_evaluates_exactly():
    value = HalfPowerPolynomial.u_power(-2).evaluate(2)
    assert value == Fraction(1, 2) and type(value) is Fraction
