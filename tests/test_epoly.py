import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from realcharvar import algebra, epoly, kronecker
from realcharvar.algebra import (RF_ZERO, RationalFunction, adams,
                                 log_coefficients)
from realcharvar.epoly import (CostLimit, EmptyPartition,
                               KOutOfRange, EvenK, MATCHED,
                               NotPolynomial, SurfaceData, TRANSPOSED,
                               _require_polynomial, check_cost, e_poly,
                               e_poly_component, euler_char_component,
                               gen_function_check, hook_polynomial,
                               complex_curve_e_poly, partition_multisets, v_n)
from realcharvar.laurent import (ExactnessError, HalfPowerPolynomial, ONE, Q,
                                 Q_MINUS_ONE)
from realcharvar.partitions import all_partitions, conjugate
from realcharvar.symfun import a_minus, a_plus
from realcharvar import verify
from realcharvar.verify import (TelescopeRange, closed_form_e1,
                                closed_form_e2, closed_form_e3,
                                component_sum_check, gen_function_reference,
                                reference_e_value, telescope_check)


def qp(k):
    return HalfPowerPolynomial.q_power(k)


def test_surface_data_validation():
    SurfaceData(0, 1)
    SurfaceData(3, 4)
    with pytest.raises(ValueError):
        SurfaceData(1, 3)
    with pytest.raises(ValueError):
        SurfaceData(2, 0)
    assert SurfaceData(2, 1).s == 2


def test_hook_polynomial_examples():
    # single box: q^(-1/2) (1 - q)
    assert hook_polynomial((1,)) == \
        RationalFunction(HalfPowerPolynomial({-1: 1, 1: -1}))
    # row of two: q^(-1) (1-q)(1-q^2); check |GL_2| = q^2 (-H)-normalization
    h2 = hook_polynomial((2,))
    assert h2 == RationalFunction(
        HalfPowerPolynomial.u_power(-2) * (ONE - Q) * (ONE - qp(2)))
    g2 = (qp(2) - ONE) * (qp(2) - Q)
    assert RationalFunction(qp(2)) * h2 == RationalFunction(g2)
    # adams at scale 2, as the reference route takes it: q^(-4) (1-q^2)(1-q^4)
    assert adams(hook_polynomial((1, 1)), 2) == \
        qp(-4) * (ONE - qp(2)) * (ONE - qp(4))
    with pytest.raises(EmptyPartition):
        hook_polynomial(())


def test_partition_multisets():
    ms2 = partition_multisets(2)
    assert len(ms2) == 3  # {(2)}, {(1,1)}, {(1)^2}
    for w in range(1, 7):
        for ms in partition_multisets(w):
            assert sum(len(lam) * 0 + m * sum(lam) for lam, m in ms) == w
    assert len(partition_multisets(4)) == 14  # multisets of partitions
    # T^17 coefficient of prod_n (1-T^n)^(-p(n)); deeper than the recursion
    # limit would allow a recursive enumeration to go
    assert len(partition_multisets(17)) == 57100


def _sequences(w):
    "Every ordered sequence of nonempty partitions of total weight w."
    if w == 0:
        yield ()
        return
    for s in range(1, w + 1):
        for lam in all_partitions(s):
            for rest in _sequences(w - s):
                yield (lam,) + rest


def test_partition_multisets_match_brute_force():
    # each multiset once, its pairs in descending weight, then descending lex
    for w in range(7):
        want = {tuple(sorted(Counter(seq).items(), reverse=True,
                             key=lambda pair: (sum(pair[0]), pair[0])))
                for seq in _sequences(w)}
        got = partition_multisets(w)
        assert len(got) == len(set(got)) and set(got) == want, w


def test_v_n_examples():
    # rank 1: a single term 2^r H_(1)^(g-1)
    for g in (1, 2, 3):
        for r in range(1, g + 2):
            surf = SurfaceData(g, r)
            want = hook_polynomial((1,)) ** (g - 1) * (2 ** r)
            assert v_n(1, surf) == want
    # rank 2 at g=1: hooks die, coefficients 2^r + (3^r - 1) - 2^(2r-1)
    for r in (1, 2):
        total = 2 ** r + 3 ** r - 1 - 2 ** (2 * r - 1)
        assert v_n(2, SurfaceData(1, r)) == RationalFunction(total)
    # matched and transposed genuinely differ once r >= 2 and g >= 2
    surf = SurfaceData(2, 2)
    assert v_n(2, surf, MATCHED) != v_n(2, surf, TRANSPOSED)
    # ... but coincide at r = 1 for rank 2 (equal coefficients)
    surf1 = SurfaceData(2, 1)
    assert v_n(2, surf1, MATCHED) == v_n(2, surf1, TRANSPOSED)


# (genus, top rank): the reference's rational-function gcds make genus 0
# expensive beyond rank 6
REFERENCE_GRID = ((0, 6), (1, 8), (2, 7), (3, 6), (4, 5))


def test_log_route_matches_multiset_reference():
    cases = 0
    for g, n_max in REFERENCE_GRID:
        for r in range(1, g + 2):
            surf = SurfaceData(g, r)
            for conv in (MATCHED, TRANSPOSED):
                for n in range(1, n_max + 1):
                    assert e_poly(n, surf, conv) == \
                        reference_e_value(n, surf, conv), (n, g, r, conv)
                    for k in range(1, r + 1, 2):
                        assert e_poly_component(n, surf, k, conv) == \
                            reference_e_value(n, surf, conv, k), (n, g, r, k, conv)
                    cases += 1
    assert cases == 184


def test_e_poly_closed_forms():
    for g in range(1, 5):
        for r in range(1, g + 2):
            surf = SurfaceData(g, r)
            assert e_poly(1, surf) == closed_form_e1(g, r)
            assert e_poly(2, surf) == closed_form_e2(g, r)
            assert RationalFunction(e_poly(3, surf)) == closed_form_e3(g, r)


def test_e_poly_value_at_5():
    assert e_poly(2, SurfaceData(2, 1)).evaluate(Fraction(5)) == 1984


def test_e_poly_degree_and_integrality():
    for n in range(1, 6):
        for g in range(1, 4):
            for r in range(1, g + 2):
                p = e_poly(n, SurfaceData(g, r))
                assert p.is_q_polynomial()
                assert p.min_exp() >= 0
                assert p.max_exp() // 2 == n * n * (g - 1) + 1
                assert all(type(c) is int for c in p.terms.values())
                comp = e_poly_component(n, SurfaceData(g, r), 1)
                assert all(type(c) is int for c in comp.terms.values())


def test_half_integer_coefficient_is_not_polynomial(monkeypatch):
    # (lo, coefficients of u^lo, u^(lo+1), ..., divisor, message): a
    # half-integer coefficient, an int coefficient the divisor does not
    # divide, a half power at even and at odd lo, a negative power
    for lo, coeffs, divisor, message in (
            (2, [Fraction(1, 2)], 1, "non-integer"),
            (0, [4, 0, 6], 4, "non-integer"),
            (0, [0, 2], 2, "odd half powers"),
            (1, [2], 2, "odd half powers"),
            (-2, [2, 0, 2], 2, "negative exponents")):
        with pytest.raises(NotPolynomial, match=message):
            _require_polynomial(lo, coeffs, divisor, "E")
    assert _require_polynomial(0, [4, 0, 8], 4, "E") \
        == HalfPowerPolynomial({0: 1, 2: 2})
    assert _require_polynomial(-2, [0, 0, 0, 0, 6], 3, "E") \
        == HalfPowerPolynomial({2: 2})
    assert _require_polynomial(0, [0, 0, 0], 2, "E").is_zero()
    # a genus-0 numerator is divided exactly by D_n^m: 1 - q is D_1, 1 is
    # not divisible by it, and m = 0 divides by nothing
    assert epoly._divided([1, 0, -1], 1, 1, "E") == [1]
    assert epoly._divided([3, 0, 1], 4, 0, "E") == [3, 0, 1]
    with pytest.raises(NotPolynomial, match="E has a nontrivial denominator"):
        epoly._divided([1, 0, 0], 1, 1, "E")
    # the rank-1 numerator at (0, 1) over D_2 in place of D_1
    divided = epoly._divided
    monkeypatch.setattr(epoly, "_ASSEMBLED", {})
    monkeypatch.setattr(epoly, "_divided",
                        lambda coeffs, n, m, what: divided(coeffs, n + 1, m,
                                                           what))
    with pytest.raises(NotPolynomial,
                       match="E_1 has a nontrivial denominator"):
        e_poly(1, SurfaceData(0, 1))


def _clear_formula_caches():
    """Drop the hook polynomials, partition series, log tables and
    assembled polynomials."""
    epoly._LOG_TABLES.clear()
    epoly._ASSEMBLED.clear()
    for fn in (hook_polynomial, verify._series_coefficient):
        fn.cache_clear()


def test_integer_route_builds_no_rational_function(monkeypatch):
    "No rational function, gcd or polynomial division, genus 0 included."
    built = []
    init, raw = RationalFunction.__init__, RationalFunction._raw

    def spy_init(self, *args):
        built.append(args)
        init(self, *args)

    def spy_raw(cls, num, den):
        built.append((num, den))
        return raw(num, den)

    def spy(fn):
        def recorded(*args):
            built.append(fn.__name__)
            return fn(*args)
        return recorded

    _clear_formula_caches()
    monkeypatch.setattr(RationalFunction, "__init__", spy_init)
    monkeypatch.setattr(RationalFunction, "_raw", classmethod(spy_raw))
    for name in ("poly_gcd", "poly_divmod"):
        monkeypatch.setattr(algebra, name, spy(getattr(algebra, name)))
    for g, r, ranks in ((1, 2, (1, 4, 5)), (3, 2, (1, 4, 5)),
                        (2, 3, (1, 4, 5)), (0, 1, range(1, 13))):
        surf = SurfaceData(g, r)
        for conv in (MATCHED, TRANSPOSED):
            for n in ranks:
                e_poly(n, surf, conv)
                e_poly_component(n, surf, 1, conv)
                euler_char_component(n, surf, r - (r + 1) % 2, conv)
    assert built == []
    # the spies do see the genus-0 rational values: V_1 = 2 u / (1 - q)
    v_n(1, SurfaceData(0, 1))
    assert "poly_gcd" in built and any(type(x) is tuple for x in built)


def test_log_tables_hold_int_polynomials():
    _clear_formula_caches()
    surf = SurfaceData(2, 3)
    e_poly(6, surf)
    e_poly_component(6, surf, 3, TRANSPOSED)
    tables = [(table, logs) for table in epoly._LOG_TABLES.values()
              for logs in table.logs if len(logs) > 1]
    assert len(tables) >= 4
    for table, logs in tables:
        for w, c in enumerate(logs):
            assert type(c) is int
            poly = verify.table_polynomial(table, c, w)
            assert all(type(x) is int for x in poly.terms.values())


def _table_contents(table):
    "Every stored series and log coefficient, unpacked."
    return [[verify.table_polynomial(table, c, w)
             for w, c in enumerate(entries)]
            for entries in table.series + table.logs]


def _pack(digits, width):
    "The int sum of digits[i] 2^(width i): the packing _unpack inverts."
    return sum(d << (width * i) for i, d in enumerate(digits))


def test_packed_digits_round_trip_and_refuse_an_overflow():
    digits = [5, -128, 127, 0, -1]
    assert epoly._unpack(_pack(digits, 8), 5, 8) == digits
    assert epoly._unpack(_pack(digits, 16), 5, 16) == digits
    assert epoly._unpack(-7 << 99, 1, 8) == [-7 << 99]  # one digit: the int
    for packed in (1 << 40, -(1 << 40)):
        with pytest.raises(ExactnessError):
            epoly._unpack(packed, 5, 8)
    # psi_3 of the digits, re-spaced to 16 bits and back to 8
    spread = epoly._spread(_pack(digits, 8), 5, 8, 16, 3)
    assert epoly._unpack(spread, 13, 16) == [5, 0, 0, -128, 0, 0, 127, 0, 0,
                                              0, 0, 0, -1]
    assert epoly._spread(spread, 13, 16, 8) == _pack(
        [5, 0, 0, -128, 0, 0, 127, 0, 0, 0, 0, 0, -1], 8)
    with pytest.raises(ExactnessError, match="exceeds 8 bits"):
        epoly._spread(_pack([1, 300, 0], 16), 3, 16, 8)
    with pytest.raises(ExactnessError, match="2 does not divide 7"):
        kronecker._exact_quotient(7, 2)


def _genus0_reference(e, r, conv, j, top):
    """The partition series A_j and its log coefficients c_w for w <= top,
    as sums of rational functions, one term per partition."""
    series = [RF_ZERO]
    for w in range(1, top + 1):
        total = RF_ZERO
        for lam in all_partitions(w):
            hook = hook_polynomial(lam if conv == MATCHED else conjugate(lam))
            total = total + (RationalFunction(hook) ** e
                             * (a_plus(lam) ** j * a_minus(lam) ** (r - j)))
        series.append(total)
    return series, log_coefficients(series.__getitem__, [RF_ZERO], top)


def test_genus0_table_matches_the_per_partition_sums():
    "D_w^m A_j(w) and D_w^m c^(j)_w, over D_w^m, are the rational sums."
    _clear_formula_caches()
    for e, r, convs in ((-1, 1, (MATCHED, TRANSPOSED)), (-2, 0, (MATCHED,))):
        bound = epoly._group_totals(e, r, 8)
        for conv in convs:
            table = epoly._log_table(e, r, conv)
            for j in range(r + 1):
                series, logs = _genus0_reference(e, r, conv, j, 8)
                for w in range(1, 9):
                    a = verify.table_polynomial(table, table.series_at(j, w),
                                                w)
                    c = verify.table_polynomial(table, table.log_at(j, w), w)
                    for poly, want in ((a, series[w]), (c, logs[w])):
                        assert all(type(x) is int for x in poly.terms.values())
                        assert epoly._over_denominator(poly, e, w) == want, \
                            (e, r, conv, j, w)
                    # the l1 bound that proves the width holds
                    assert sum(map(abs, a.terms.values())) <= bound[w]


def test_log_norms_bound_every_stored_log():
    """_log_step on _Norms, the run that proves the width, bounds the l1
    norm of every stored D_w^m c^(j)_w, and every digit fits the width; at
    e = 0 the entries are plain ints and the width stays 0.  _adams_terms
    on _Norms, over those bounds times 2^r, bounds the l1 norm of every
    Adams sum that _adams_sum unpacks (the totals and each odd component of
    a real curve, every d | n at r = 0), whose digits fit the width too."""
    _clear_formula_caches()
    for e, r in ((-2, 0), (-1, 1), (0, 2), (1, 2), (2, 0), (3, 3)):
        norms, bounds = epoly._Norms(e, r, 8), [0]
        for w in range(1, 9):
            bounds.append(epoly._log_step(norms, norms.totals, bounds, w))
        scaled = [bound << r for bound in bounds]
        sums = ([(epoly._component_weights(r, k), 2)
                 for k in [None] + list(range(1, r + 1, 2))] if r
                else [({0: 1}, 1)])
        for conv in (MATCHED, TRANSPOSED) if r else (MATCHED,):
            table = epoly._log_table(e, r, conv)
            for weights, step in sums:
                for n in range(1, 9):
                    digits = epoly._adams_sum(table, weights, n, step)
                    assert sum(map(abs, digits)) <= epoly._adams_terms(
                        norms, scaled, n, step), (e, r, conv, weights, n)
                    if e:
                        width = table.packed.width
                        assert all(abs(d) < 1 << (width - 1) for d in digits)
            for j in range(r + 1):
                for w in range(1, 9):
                    c = verify.table_polynomial(table, table.log_at(j, w), w)
                    assert sum(map(abs, c.terms.values())) <= bounds[w], \
                        (e, r, conv, j, w)
                    if e:
                        width = table.packed.width
                        assert all(abs(d) < 1 << (width - 1)
                                   for d in c.terms.values())
                    else:
                        assert type(table.log_at(j, w)) is int
                        assert table.packed.width == 0


def test_each_rank_unpacks_its_adams_sum_once(monkeypatch):
    """The Adams sum runs on packed ints and unpacks one digit list per
    rank, however many divisors it sums: n = 15 at g = 2, a component at
    n = 9 and genus 0, and the genus-2 complex curve at n = 12."""
    unpacked = []
    real = epoly._unpack

    def spy(*args):
        unpacked.append(args)
        return real(*args)

    monkeypatch.setattr(epoly, "_unpack", spy)
    for run in (lambda: epoly._n_v_coefficients(15, SurfaceData(2, 1), None,
                                                MATCHED),
                lambda: epoly._n_v_coefficients(9, SurfaceData(0, 1), 1,
                                                MATCHED),
                lambda: complex_curve_e_poly(12, 2)):
        _clear_formula_caches()
        unpacked.clear()
        run()
        assert len(unpacked) == 1


def test_genus0_hook_division_refuses_a_remainder(monkeypatch):
    # a hook of w + 1 does not divide D_w = (1 - q) ... (1 - q^w)
    monkeypatch.setattr(epoly, "hooks", lambda lam: [sum(lam) + 1])
    with pytest.raises(ExactnessError, match="does not divide D_1"):
        epoly._LogTable(-1, 1, MATCHED).series_at(0, 2)


def test_genus0_route_adds_no_rational_functions(monkeypatch):
    """Genus 0 and the complex curve take the packed table: no rational sum,
    product, log, gcd, division or Adams sum."""
    calls = []

    def spy(name):
        def refuse(*args):
            calls.append(name)
            raise AssertionError("%s called" % name)
        return refuse

    _clear_formula_caches()
    for name in ("add", "radd", "mul", "rmul"):
        monkeypatch.setattr(RationalFunction, "__%s__" % name, spy(name))
    for module in (algebra, epoly):
        for name in ("log_coefficients", "divisor_sum", "adams", "poly_gcd",
                     "poly_divmod"):
            monkeypatch.setattr(module, name, spy(name), raising=False)
    surf = SurfaceData(0, 1)
    for conv in (MATCHED, TRANSPOSED):
        for n in range(1, 13):
            assert e_poly(n, surf, conv) == (ONE if n == 1 else 0)
            e_poly_component(n, surf, 1, conv)
            euler_char_component(n, surf, 1, conv)
    for g in range(3):
        for n in range(1, 9):
            assert isinstance(complex_curve_e_poly(n, g), HalfPowerPolynomial)
    assert calls == []


def test_width_bound_counts_every_partition():
    "The l1 bound's group totals equal the sums over the partitions."
    for e, r in ((0, 1), (1, 2), (3, 3)):
        want = [sum(a_plus(lam) ** r for lam in all_partitions(w)) << (e * w)
                for w in range(11)]
        assert epoly._group_totals(e, r, 10) == want


def _width_from_scratch(e, r, top):
    """The width proof rerun from weight 1 at every call, as _width did
    before it kept a ledger."""
    norms, c = epoly._Norms(e, r, top), [0]
    for w in range(1, top + 1):
        c.append(epoly._log_step(norms, norms.totals, c, w))
    logs = [bound << r for bound in c]
    bound = max([0] + [epoly._adams_terms(norms, logs, w, 1)
                       for w in range(1, top + 1)])
    return -(-(bound.bit_length() + 1) // 8) * 8


def test_width_ledger_matches_the_proof_from_scratch(monkeypatch):
    """_width, extending one ledger per (e, r) in shuffled request order,
    equals the proof rerun from weight 1; also where a weight's sum bound
    falls below an earlier one, so that only the running maximum keeps the
    width covering every weight up to top (the real bounds rise with the
    weight)."""
    points = [(e, r, top) for e in range(-2, 9) for r in range(7)
              for top in range(1, 36)]
    random.Random(33).shuffle(points)
    monkeypatch.setattr(epoly, "_LEDGERS", {})
    for point in points:
        assert epoly._width(*point) == _width_from_scratch(*point), point
    real = epoly._adams_terms
    monkeypatch.setattr(epoly, "_adams_terms",
                        lambda ring, logs, n, step:
                        0 if n % 4 == 3 else real(ring, logs, n, step))
    monkeypatch.setattr(epoly, "_LEDGERS", {})
    for point in points[:300]:
        assert epoly._width(*point) == _width_from_scratch(*point), point


def test_packed_table_holds_the_width_it_is_priced_at():
    """Grown in any request order, a table's digits have the width that
    _width proves for the largest weight grown, the width _check_cost
    prices, and no wider."""
    for e, r in ((-2, 0), (-1, 1), (1, 2), (3, 3)):
        shuffled = list(range(1, 11))
        random.Random(e).shuffle(shuffled)
        for order in (range(1, 11), range(10, 0, -1), shuffled):
            _clear_formula_caches()
            table, top = epoly._log_table(e, r, MATCHED), 0
            for w in order:
                table.log_at(r, w)
                top = max(top, w)
                assert table.packed.width == epoly._width(e, r, top), \
                    (e, r, list(order), w)


def test_width_proofs_run_once_per_weight(monkeypatch):
    """On fresh caches, an identity check to order 10 at (2, 3) and then
    ranks 1-12 one at a time at (4, 3) run the table's width proof
    (_log_step on _Norms) once per (e, r, w) and the identity check's
    (_product_side on _Norms, in kronecker._bound) once per (e, r, top),
    for the cost prediction and the check alike."""
    _clear_formula_caches()
    epoly._check_cost.cache_clear()
    kronecker._bound.cache_clear()
    monkeypatch.setattr(epoly, "_LEDGERS", {})
    weights, tops = [], []
    log_step, product_side = epoly._log_step, kronecker._product_side

    def spy_log_step(ring, a, c, w):
        if isinstance(ring, epoly._Norms):
            weights.append(w)
        return log_step(ring, a, c, w)

    def spy_product_side(ring, plus, minus, top):
        if isinstance(ring, epoly._Norms):
            tops.append(top)
        return product_side(ring, plus, minus, top)

    monkeypatch.setattr(epoly, "_log_step", spy_log_step)
    monkeypatch.setattr(kronecker, "_product_side", spy_product_side)
    assert gen_function_check(10, SurfaceData(2, 3))
    for n in range(1, 13):
        e_poly(n, SurfaceData(4, 3))
    assert sorted(weights) == sorted([*range(1, 11), *range(1, 13)])
    assert tops == [10]


def test_packed_table_grows_in_any_order_without_a_rebuild(monkeypatch):
    surf, key = SurfaceData(4, 3), (3, 3, MATCHED)
    hooked = Counter()
    real_hooks = epoly.hooks

    def spy_hooks(lam):
        hooked[sum(lam)] += 1
        return real_hooks(lam)

    monkeypatch.setattr(epoly, "hooks", spy_hooks)

    def run(order):
        _clear_formula_caches()
        hooked.clear()
        values = {n: (e_poly(n, surf), e_poly_component(n, surf, 1),
                      e_poly_component(n, surf, 3)) for n in order}
        return values, epoly._LOG_TABLES[key]

    ascending, table = run(range(1, 10))
    contents = _table_contents(table)
    shuffled, table = run((7, 2, 9, 4, 1, 8, 3, 6, 5))
    assert shuffled == ascending
    assert _table_contents(table) == contents
    # every partition's hook product is built once, whatever the order
    assert hooked == {w: len(all_partitions(w)) for w in range(1, 10)}
    # a larger rank builds only the new weights and keeps the old entries,
    # re-spaced to a wider digit
    width = table.packed.width
    hooked.clear()
    e_poly(14, surf)
    assert epoly._LOG_TABLES[key] is table and table.packed.width > width
    assert hooked == {w: len(all_partitions(w)) for w in range(10, 15)}
    assert [entries[:10] for entries in _table_contents(table)] == contents


def test_log_table_does_not_depend_on_request_order():
    surf = SurfaceData(2, 2)
    for n in (1, 2, 3):
        _clear_formula_caches()
        for conv in (TRANSPOSED, MATCHED):
            e_poly(n + 6, surf, conv)
            e_poly_component(n + 6, surf, 1, conv)
        late = (e_poly(n, surf), e_poly_component(n, surf, 1))
        _clear_formula_caches()
        assert (e_poly(n, surf), e_poly_component(n, surf, 1)) == late


def test_cost_limit_answers_the_supported_ranks():
    """Ranks 1-25 at g = 0, 1-20 at g <= 4 and 1-24 at g = 2 pass, with the
    product identity too; the next steps do not, and the identity check
    tips rank 24 at (4, 3) over the budget."""
    assert issubclass(CostLimit, ValueError)
    for g in range(5):
        for r in range(1, g + 2):
            for identity in (False, True):
                check_cost({0: 25, 2: 24}.get(g, 20), SurfaceData(g, r),
                           identity)
    check_cost(24, SurfaceData(4, 3))
    with pytest.raises(CostLimit):
        check_cost(24, SurfaceData(4, 3), identity=True)
    for n, g, r in ((26, 0, 1), (40, 3, 2), (60, 1, 1), (3, 200, 1)):
        with pytest.raises(CostLimit):
            check_cost(n, SurfaceData(g, r))
    # the library refuses as the command line does, before any work
    _clear_formula_caches()
    with pytest.raises(CostLimit):
        e_poly(40, SurfaceData(3, 2))
    with pytest.raises(CostLimit):
        e_poly_component(26, SurfaceData(0, 1), 1)
    assert epoly._LOG_TABLES[2, 2, MATCHED].series == [[0]] * 3


def test_e_poly_genus_bounds():
    surf = SurfaceData(0, 1)
    for conv in (MATCHED, TRANSPOSED):
        assert e_poly(1, surf, conv) == ONE
        assert e_poly_component(1, surf, 1, conv) == ONE
        for n in range(2, 7):
            assert e_poly(n, surf, conv).is_zero()
            assert e_poly_component(n, surf, 1, conv).is_zero()


def test_e_poly_genus_one():
    for n in range(1, 7):
        assert e_poly(n, SurfaceData(1, 1)) == Q_MINUS_ONE
        assert e_poly(n, SurfaceData(1, 2)) == Q_MINUS_ONE * 2


def test_component_examples():
    for g in (1, 2, 3):
        for r in range(1, g + 2):
            surf = SurfaceData(g, r)
            assert e_poly_component(1, surf, 1) == Q_MINUS_ONE ** g
            for k in range(1, r + 1, 2):
                inner = ((qp(3) - Q) ** (g - 1)
                         + ((qp(2) - ONE) ** (g - 1)) * (2 ** (r - k))
                         - ((qp(2) - Q) ** (g - 1)) * (2 ** (r - 1)))
                assert e_poly_component(2, surf, k) == (Q_MINUS_ONE ** g) * inner


def test_component_rank3_closed_form():
    # seven-term component value; the third term carries (q-1), which is
    # forced by the worked rank-3 total together with the isomorphism of
    # odd-rank components (E_3^k * 2^(r-1) = E_3)
    def closed(g, r):
        t = (((qp(6) - qp(3)) ** (g - 1)) * ((qp(2) - ONE) ** (g - 1))
             + ((qp(3) - ONE) ** (g - 1)) * ((qp(2) - ONE) ** (g - 1)) * (2 ** r)
             + ((qp(5) - qp(2)) ** (g - 1)) * ((Q - ONE) ** (g - 1)) * (2 ** r)
             - ((qp(4) - qp(3)) ** (g - 1)) * ((qp(2) - ONE) ** (g - 1)) * (2 ** r)
             - ((qp(3) - qp(2)) ** (g - 1)) * ((qp(2) - ONE) ** (g - 1)) * (3 ** r))
        third = (RationalFunction(qp(3) ** (g - 1))
                 * RationalFunction(Q_MINUS_ONE ** (2 * (g - 1)))
                 * Fraction(4 ** r, 3))
        fifth = RationalFunction((qp(5) + qp(4) + qp(3)) ** (g - 1)) * Fraction(-1, 3)
        return (RationalFunction(t) + third + fifth) * RationalFunction(Q_MINUS_ONE ** g)

    for g in (1, 2, 3):
        for r in range(1, g + 2):
            surf = SurfaceData(g, r)
            got = RationalFunction(e_poly_component(3, surf, 1))
            assert got == closed(g, r), (g, r)
            for k in range(1, r + 1, 2):
                assert e_poly_component(3, surf, k) * (2 ** (r - 1)) \
                    == e_poly(3, surf)


def test_component_index_validation():
    surf = SurfaceData(2, 2)
    with pytest.raises(EvenK):
        e_poly_component(2, surf, 2)
    with pytest.raises(KOutOfRange):
        e_poly_component(2, surf, 3)


def test_component_sum():
    for n in range(1, 5):
        for g in range(1, 4):
            for r in range(1, g + 2):
                assert component_sum_check(n, SurfaceData(g, r))


def test_component_k_independence_odd_rank():
    for n in (1, 3, 5):
        for g in range(1, 4):
            for r in range(1, g + 2):
                surf = SurfaceData(g, r)
                vals = [e_poly_component(n, surf, k)
                        for k in range(1, r + 1, 2)]
                assert all(v == vals[0] for v in vals)


def test_euler_characteristics():
    # below genus 2 the single-term collapse no longer happens and the
    # honest division value takes over: E_n^1 = q-1 at g=1, r=1
    for n, (g, r), want in ((3, (2, 1), -1), (2, (3, 2), 0), (5, (3, 1), -5),
                            (1, (2, 2), 1), (3, (1, 1), 1), (1, (0, 1), 1),
                            (2, (0, 1), 0)):
        got = euler_char_component(n, SurfaceData(g, r), 1)
        assert type(got) is int and got == want


def test_gen_function_small():
    for g, r in ((0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
        assert gen_function_check(4, SurfaceData(g, r))


def test_gen_function_transposed_also_consistent():
    # the identity relates v_n to its own product on either convention
    assert gen_function_check(4, SurfaceData(2, 2), TRANSPOSED)


def test_identity_check_matches_the_rational_reference():
    "The Kronecker check's verdict is the rational route's, for N <= 8."
    cases = 0
    for g in range(5):
        for r in range(1, g + 2):
            surf = SurfaceData(g, r)
            for conv in (MATCHED, TRANSPOSED):
                for n_max in range(1, 8 if g == 4 else 9):
                    assert gen_function_check(n_max, surf, conv) is \
                        gen_function_reference(n_max, surf, conv) is True
                    cases += 1
    assert cases == 230


def test_identity_check_fails_on_a_wrong_left_side(monkeypatch):
    """The transposed left side against the matched right side at (2, 2),
    and n V_7 at (0, 1) with one digit off by 1, both fail."""
    real = epoly._n_v_coefficients

    def transposed(n, surf, k, conv):
        return real(n, surf, k, TRANSPOSED)

    def off_by_one(n, surf, k, conv):
        digits = real(n, surf, k, conv)
        if n == 7:
            digits[len(digits) // 2] += 1
        return digits

    monkeypatch.setattr(epoly, "_n_v_coefficients", transposed)
    assert not gen_function_check(6, SurfaceData(2, 2), MATCHED)
    monkeypatch.setattr(epoly, "_n_v_coefficients", off_by_one)
    assert not gen_function_check(7, SurfaceData(0, 1))
    assert gen_function_check(6, SurfaceData(0, 1))


def test_identity_check_fails_on_a_wrong_right_side(monkeypatch):
    """One digit of the packed A_0(3) that the product side reads, off by
    1, fails the check at every genus; the left side reads the table's
    own series and is unchanged."""
    real = epoly._LogTable.series_at

    def off_by_one(table, j, w):
        value = real(table, j, w)
        if (j, w) == (0, 3):
            value += 1 << table.packed.width * (table.packed.digit_count(w)
                                                // 2)
        return value

    for g, r in ((0, 1), (1, 1), (2, 2), (4, 3)):
        surf = SurfaceData(g, r)
        with monkeypatch.context() as patch:
            patch.setattr(epoly._LogTable, "series_at", off_by_one)
            assert not gen_function_check(6, surf), (g, r)
        assert gen_function_check(6, surf), (g, r)


def test_identity_check_needs_no_rational_layer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the rational layer was called")

    _clear_formula_caches()
    monkeypatch.setattr(RationalFunction, "__init__", refuse)
    monkeypatch.setattr(RationalFunction, "_raw", classmethod(refuse))
    monkeypatch.setattr(algebra.TruncatedSeries, "inverse", refuse)
    for module in (algebra, epoly, verify):
        for name in ("poly_gcd", "pleth_log", "rational_exponent_pow"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for g, r, n_max in ((0, 1, 10), (1, 2, 8), (2, 2, 8), (4, 3, 6)):
        for conv in (MATCHED, TRANSPOSED):
            assert gen_function_check(n_max, SurfaceData(g, r), conv)


def test_identity_majorant_bounds_the_reference(monkeypatch):
    """The l1 norms that prove the check's width bound the right side of
    the rational reference, (M-1)! D_M^m M [T^M] PLog(...), at N <= 6."""
    logs = []
    real = verify.pleth_log

    def spy(series):
        logs.append(real(series))
        return logs[-1]

    monkeypatch.setattr(verify, "pleth_log", spy)
    for g, r in ((0, 1), (1, 2), (2, 1), (2, 3), (3, 2), (4, 3)):
        e, surf = g - 1, SurfaceData(g, r)
        m = max(0, -e)
        ring = epoly._Norms(e, r, 6)
        norms = kronecker._product_side(ring, ring.totals, ring.totals, 6)
        for conv in (MATCHED, TRANSPOSED):
            assert gen_function_reference(6, surf, conv)
            for n in range(1, 7):
                d_n = RationalFunction(HalfPowerPolynomial.u_power(n)
                                       * hook_polynomial((n,))) ** m
                value = logs[-1].coefficient(n) * d_n * (n * factorial(n - 1))
                assert value.is_polynomial()
                l1 = sum(abs(c) for c in value.num.terms.values())
                assert l1 <= norms[n], (g, r, conv, n)


def test_identity_check_refuses_an_empty_order():
    with pytest.raises(ValueError, match="truncation order"):
        gen_function_check(0, SurfaceData(1, 1))


def test_complex_curve_anchor():
    for g in range(0, 4):
        assert complex_curve_e_poly(1, g) == RationalFunction(Q_MINUS_ONE ** (2 * g))
    assert complex_curve_e_poly(1, 1) == RationalFunction(Q_MINUS_ONE ** 2)
    assert complex_curve_e_poly(2, 0).is_zero()
    # genus-1 complex curve: E = (q-1)^2 for every rank
    for n in range(1, 6):
        assert complex_curve_e_poly(n, 1) == RationalFunction(Q_MINUS_ONE ** 2)


def test_complex_curve_refuses_a_negative_genus():
    with pytest.raises(ValueError, match="genus must be non-negative"):
        complex_curve_e_poly(2, -1)


def test_cost_message_names_the_complex_curve():
    with pytest.raises(CostLimit, match="^rank 22 at genus 0 of the complex "
                       "curve: the predicted work exceeds"):
        complex_curve_e_poly(22, 0)
    with pytest.raises(CostLimit, match="^rank 3 at genus 200 of the complex "
                       "curve: a packed coefficient would exceed"):
        complex_curve_e_poly(3, 200)


def test_telescope_range():
    assert telescope_check(0, 1, 1)[0] and telescope_check(1, 2, 1)[0]
    for g, n_max in ((0, 0), (0, -1), (1, 0), (1, -2), (2, 3)):
        with pytest.raises(TelescopeRange):
            telescope_check(g, 1, n_max)
