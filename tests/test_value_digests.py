"""Digests of exact values from the formula layer, pinned across refactors of
the exact arithmetic in algebra.

Each value is written out as its sorted exponents with str() of each
coefficient, so an integral Fraction and the equal int give the same text:
the digests pin values, not coefficient types.  A RationalFunction is written
as numerator over denominator.  The digests were recorded from the Fraction
products and the Fraction Euclid gcd that preceded the fraction-free ones.
"""

import hashlib

import pytest

from realcharvar import verify
from realcharvar.algebra import RationalFunction, TruncatedSeries
from realcharvar.epoly import (CONVENTIONS, SurfaceData, complex_curve_e_poly,
                               e_poly, e_poly_component, v_n)


def _poly_text(p):
    return ",".join("%d:%s" % (e, p.terms[e]) for e in sorted(p.terms))


def _value_text(x):
    if isinstance(x, TruncatedSeries):
        return ";".join(_value_text(c) for c in x.coeffs)
    if isinstance(x, RationalFunction):
        return "(%s)/(%s)" % (_poly_text(x.num), _poly_text(x.den))
    return _poly_text(x)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def e_value_lines(g, conv):
    """V_n, E_n and every odd-k E_n^k for n <= 6 and every r.  The E values
    were recorded as rational functions at genus 0, so they are written as
    one there."""
    lines = []
    as_recorded = RationalFunction if g == 0 else (lambda poly: poly)
    for r in range(1, g + 2):
        surf = SurfaceData(g, r)
        for n in range(1, 7):
            lines.append("V %d %d: %s" % (r, n, _value_text(v_n(n, surf, conv))))
            lines.append("E %d %d: %s" % (r, n, _value_text(
                as_recorded(e_poly(n, surf, conv)))))
            for k in range(1, r + 1, 2):
                lines.append("E %d %d %d: %s" % (r, n, k, _value_text(
                    as_recorded(e_poly_component(n, surf, k, conv)))))
    return lines


def product_identity_lines(monkeypatch, n_max, g, r):
    """The per-scale rational powers and the plethystic log of their product
    that the rational reference of the product identity builds, in call
    order."""
    seen = []

    def spy(fn):
        def recorded(*args):
            value = fn(*args)
            seen.append(value)
            return value
        return recorded

    monkeypatch.setattr(verify, "rational_exponent_pow",
                        spy(verify.rational_exponent_pow))
    monkeypatch.setattr(verify, "pleth_log", spy(verify.pleth_log))
    assert verify.gen_function_reference(n_max, SurfaceData(g, r))
    assert len(seen) == n_max.bit_length() + 1
    return [_value_text(x) for x in seen]


E_VALUES = {
    (0, "matched"):
        "bf03dad39688b217867b4e7a9fbb471d30f38880e6d8686e536d2ffb859f7fe3",
    (0, "transposed"):
        "bf03dad39688b217867b4e7a9fbb471d30f38880e6d8686e536d2ffb859f7fe3",
    (1, "matched"):
        "91a718775465497822594e02d8e8efe3ce661e1c8fdf9a5001e97cfd76d44ddf",
    (1, "transposed"):
        "91a718775465497822594e02d8e8efe3ce661e1c8fdf9a5001e97cfd76d44ddf",
    (2, "matched"):
        "48a93a0a97a24e4bfd32317df647b508b4995aef8a4872e98b346a8c98f37d25",
    (2, "transposed"):
        "02932a126177022d085c64fb432cfb6f61a743ac66b1285c8b810095ecd33066",
    (3, "matched"):
        "6015634328d74a22ff4069a83b8a5fd6edb16b9ee00cfe95210480dc2702530e",
    (3, "transposed"):
        "2460b81327cd470af6d12db495d311f5610562d91feef6ca44792b361de9785a",
}

COMPLEX_CURVE = {
    0: "eb4bd8723d1ae00a0bdbe39a310267b41ae4995f2b13de9927d4aac70d7e6400",
    1: "92d8b83008e167cbf9a70257df2bbdd515495608e342154548892078d9d17630",
    2: "1418d5ddf08622e74485c3bd3ed528ddb0c22996e77ad2aec6f2c37023ae4a69",
    3: "1799251a2f4b49fede8f6408153f7e87f3cffc4c1a0111d6bcd987088086860d",
}

PRODUCT_IDENTITY = {
    (6, 0, 1):
        "2793179da93f5ec3faa87ba7975c20c87dbdd7a43c2fa5a229d5778802f8fcc2",
    (8, 2, 2):
        "93a53b343ef115650846027490b7bc92b4be90c7cf9beb329e88e5186325a7c2",
    (7, 3, 1):
        "74861c5e2237e8c27d1ee61e729afb8bde91831c38c2864469b1f30beb8c6713",
}


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("conv", CONVENTIONS)
def test_e_values_unchanged(g, conv):
    assert _digest(e_value_lines(g, conv)) == E_VALUES[g, conv]


@pytest.mark.parametrize("g", range(4))
def test_complex_curve_values_unchanged(g):
    lines = [repr(complex_curve_e_poly(n, g).to_pair()) for n in range(1, 6)]
    assert _digest(lines) == COMPLEX_CURVE[g]


@pytest.mark.parametrize("n_max,g,r", sorted(PRODUCT_IDENTITY))
def test_product_identity_values_unchanged(monkeypatch, n_max, g, r):
    lines = product_identity_lines(monkeypatch, n_max, g, r)
    assert _digest(lines) == PRODUCT_IDENTITY[n_max, g, r]
