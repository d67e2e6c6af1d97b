"""Verification suites shared by the command line and the acceptance tests.

Each criterion is a callable returning (ok, detail).  Everything is exact;
the detail string carries enough context to chase a failure.  The worked
low-rank closed forms are rebuilt here, independently of the summation code,
as frozen regression targets, and so are the literal multiset-of-partitions
sum that the production log route replaces (reference_e_value) and the
rational form of the product identity that the production Kronecker check
replaces (gen_function_reference).  The two independent routes to the
multiplicity coefficients a+ / a- that symfun gives in closed form live here
too: signed S_n character sums against the convolution coefficients
c_pi / d_pi (themselves checked against their exponential generating
products), and the Pieri rule, which reads a+ and a- off a signed count of
horizontal strips.
"""

import time
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial

from .algebra import (ConstantTermNotOne, ExactnessError,
                      HalfPowerPolynomial, ONE, Q, Q_MINUS_ONE, RF_ONE,
                      RF_ZERO, RationalFunction, TruncatedSeries, ZERO, adams,
                      formal_exp, formal_log, moebius, pleth_log)
from .epoly import (MATCHED, TRANSPOSED, SurfaceData, _over_denominator,
                    _real_table, _unpack, e_poly, e_poly_component,
                    euler_char_component, gen_function_check,
                    hook_polynomial, partition_multisets, v_n)
from .partitions import all_partitions, conjugate, multiplicities, weight
from .symfun import a_minus, a_plus
from . import characters, fforacle, ffreference


def _qp(k):
    return HalfPowerPolynomial.q_power(k)


def exact_int(x, what):
    "An int or Fraction known to be integral, as an int; what names it."
    if x.denominator != 1:
        raise ExactnessError("%s is not an integer: %s" % (what, x))
    return int(x)


def rational_exponent_pow(f, c):
    "Formal power f**c = exp(c * log f) for rational c; f must start with 1."
    if not f.coeffs[0].is_one():
        raise ConstantTermNotOne("rational power needs constant coefficient 1")
    return formal_exp(formal_log(f) * c)


def table_polynomial(table, packed, w):
    """A packed weight-w coefficient of an epoly table, unpacked, as a
    Laurent polynomial in u."""
    return HalfPowerPolynomial.from_dense(
        -abs(table.e) * w * w,
        _unpack(packed, table.packed.digit_count(w), table.packed.width))


def closed_form_e1(g, r):
    "Rank 1: 2^(r-1) (q-1)^g."
    return (Q_MINUS_ONE ** g) * (2 ** (r - 1))


def closed_form_e2(g, r):
    "Rank 2 worked closed form (three terms)."
    inner = ((_qp(3) - Q) ** (g - 1)) * (2 ** r) \
        + ((_qp(2) - ONE) ** (g - 1)) * (3 ** r - 1) \
        - ((_qp(2) - Q) ** (g - 1)) * (2 ** (2 * r - 1))
    return (Q_MINUS_ONE ** g) * inner * Fraction(1, 2)


def closed_form_e3(g, r):
    "Rank 3 worked closed form (seven terms), as a rational function."
    q1 = RationalFunction(Q)
    q2 = RationalFunction(_qp(2))
    q3 = RationalFunction(_qp(3))
    group3 = RationalFunction((_qp(3) - ONE) * (_qp(3) - Q) * (_qp(3) - _qp(2)))
    inner = RationalFunction(2 ** r)
    inner = inner + RationalFunction(4 ** r) / (q3 ** (g - 1))
    inner = inner + RationalFunction(4 ** r) / ((q2 + q1) ** (g - 1))
    inner = inner - RationalFunction(4 ** r) / ((q2 + q1 + 1) ** (g - 1))
    inner = inner - RationalFunction(6 ** r) / ((q3 + q2 + q1) ** (g - 1))
    inner = inner + RationalFunction(Fraction(8 ** r, 3)) / (
        ((q1 + 1) ** (g - 1)) * ((q2 + q1 + 1) ** (g - 1)))
    inner = inner - RationalFunction(Fraction(2 ** r, 3)) / (
        ((q1 - 1) ** (g - 1)) * ((q2 - 1) ** (g - 1)))
    return (RationalFunction(Q_MINUS_ONE) * Fraction(1, 2)
            * (group3 ** (g - 1)) * inner)


@lru_cache(maxsize=None)
def _reference_groups(n, g, conv):
    """Coefficient times hook part for every odd d | n and every multiset of
    partitions of total weight n/d, summed per (a+ product, a- product)."""
    groups = {}
    for d in range(1, n + 1, 2):
        mu = moebius(d) if n % d == 0 else 0
        if not mu:
            continue
        for multiset in partition_multisets(n // d):
            m = sum(mult for _, mult in multiset)
            coeff = Fraction((-1) ** (m - 1) * mu * factorial(m - 1), d)
            hook_part = RF_ONE
            ap = am = 1
            for lam, mult in multiset:
                coeff /= factorial(mult)
                ap *= a_plus(lam) ** mult
                am *= a_minus(lam) ** mult
                hook = adams(hook_polynomial(
                    lam if conv == MATCHED else conjugate(lam)), d)
                hook_part = hook_part * RationalFunction(hook) ** ((g - 1) * mult)
            groups[ap, am] = groups.get((ap, am), RF_ZERO) + hook_part * coeff
    return tuple(groups.items())


def reference_e_value(n, surf, conv=MATCHED, k=None):
    """E_n (k None) or the component E_n^k by the literal closed sum.

    The unoptimized reference route: a sum over odd d | n and multisets of
    partitions of weight n/d, with a-combination AP^r - AM^r for the total
    and (AP + AM)^(r-k) (AP - AM)^k for a component, times the prefactor
    (q-1)(-q^(1/2))^(n^2 (g-1)) / 2 (or / 2^r for a component).  Returns a
    rational function; tests compare the production route against it.
    """
    r = surf.r
    total = RF_ZERO
    for (ap, am), group in _reference_groups(n, surf.g, conv):
        if k is None:
            a = ap ** r - am ** r
        else:
            a = (ap + am) ** (r - k) * (ap - am) ** k
        if a:
            total = total + group * a
    e = n * n * (surf.g - 1)
    prefactor = HalfPowerPolynomial.u_power(e, (-1) ** (e % 2)) * Q_MINUS_ONE
    return (RationalFunction(prefactor) * total
            * Fraction(1, 2 if k is None else 2 ** r))


def component_sum_check(n, surf, conv=MATCHED):
    "Check sum over odd k of binomial(r,k) * E_n^k = E_n as polynomials."
    total = sum((e_poly_component(n, surf, k, conv) * comb(surf.r, k)
                 for k in range(1, surf.r + 1, 2)), ZERO)
    return total == e_poly(n, surf, conv)


@lru_cache(maxsize=None)
def _series_coefficient(w, surf, j, conv):
    """T^w coefficient of the partition series A_j at surf, a rational
    function: sum_{|lam|=w} a+^j a-^(r-j) H^(g-1)."""
    table = _real_table(surf, conv)
    poly = table_polynomial(table, table.series_at(j, w), w)
    return _over_denominator(poly, table.e, w)


def _partition_series(order, surf, j, conv, scale):
    "1 + sum_w psi_scale(A_j coefficient w) T^(scale*w), truncated at order."
    coeffs = {scale * w: adams(_series_coefficient(w, surf, j, conv), scale)
              for w in range(1, order // scale + 1)}
    coeffs[0] = RF_ONE
    return TruncatedSeries(order, coeffs)


def gen_function_reference(n_max, surf, conv=MATCHED):
    """The product identity of epoly.gen_function_check by the rational
    route, the reference the tests compare it against: sum_n V_n T^n and
    PLog of the product over s = 2^k of psi_s(A_r / A_0)^(1/s), both as
    truncated series of rational functions."""
    lhs = TruncatedSeries(n_max, {n: v_n(n, surf, conv)
                                  for n in range(1, n_max + 1)})
    product = TruncatedSeries.one(n_max)
    scale = 1
    while scale <= n_max:
        plus = _partition_series(n_max, surf, surf.r, conv, scale)
        minus = _partition_series(n_max, surf, 0, conv, scale)
        ratio = plus * minus.inverse()
        product = product * rational_exponent_pow(ratio, Fraction(1, scale))
        scale *= 2
    return pleth_log(product) == lhs


# -- S_n characters: Murnaghan-Nakayama via beta-sets -------------------

class WeightMismatch(ValueError):
    "Character evaluation needs |lambda| = |pi|."


def sn_character(lam, pi):
    """Irreducible symmetric-group character value chi^lam on cycle type pi.

    Border-strip recursion on first-column hook lengths, memoized.
    """
    if weight(lam) != weight(pi):
        raise WeightMismatch("|lambda| = %d but |pi| = %d" % (weight(lam), weight(pi)))
    return _mn(tuple(lam), tuple(pi))


@lru_cache(maxsize=None)
def _mn(lam, pi):
    if not pi:
        return 1
    t = pi[0]
    rest = pi[1:]
    # beta-set: strictly decreasing first-column hook lengths
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        # remove the strip: replace b by b-t, sign by entries jumped over
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x if x != b else nb for x in beta), reverse=True)
        new_lam = []
        m = len(new_beta)
        for i, x in enumerate(new_beta):
            part = x - (m - 1 - i)
            if part > 0:
                new_lam.append(part)
        total += (-1) ** height * _mn(tuple(new_lam), rest)
    return total


# -- convolution coefficients c_pi, d_pi --------------------------------

@lru_cache(maxsize=None)
def _c_pi_pair(pi):
    """(even, odd) parts of the signed decomposition sum for pi.

    Enumerates all splittings of the multiset pi into four blocks: rho+ and
    rho- (weighted by their own z), a stretched block 2.tau_s (parts of pi
    that are doubled parts of tau_s, weighted by z of the consumed multiset,
    signed by its length) and a pair block 2 tau_p (parts of pi appearing
    with doubled multiplicity, k pairs of a part v weighing 1/(k! (2v)^k)).
    Split by the parity of |rho-|.  The pair-block weight is pinned by
    agreement with the exponential generating products and the signed
    character sums; z of the consumed multiset would be wrong.
    """
    mult = multiplicities(tuple(pi))
    values = sorted(mult)
    per_value = []
    for v in values:
        m = mult[v]
        options = []
        for a in range(m + 1):
            for b in range(m - a + 1):
                for c in range(m - a - b + 1):
                    d = m - a - b - c
                    if c and v % 2 == 1:
                        continue        # doubled parts are even
                    if d % 2 == 1:
                        continue        # pairs consume an even count
                    options.append((a, b, c, d))
        per_value.append(options)
    even = Fraction(0)
    odd = Fraction(0)
    for choice in iproduct(*per_value):
        w = Fraction(1)
        sign = 1
        rho_minus_weight = 0
        for v, (a, b, c, d) in zip(values, choice):
            k = d // 2
            w /= (factorial(a) * v ** a)                 # z of rho+ block
            w /= (factorial(b) * v ** b)                 # z of rho- block
            w /= (factorial(c) * v ** c)                 # z of the stretched block
            w /= (factorial(k) * (2 * v) ** k)           # pair block
            sign *= (-1) ** c
            rho_minus_weight += b * v
        if rho_minus_weight % 2 == 0:
            even += sign * w
        else:
            odd += sign * w
    return even, odd


def c_pi(pi):
    "Sum of both parity pieces of the decomposition sum."
    even, odd = _c_pi_pair(tuple(pi))
    return even + odd


def d_pi(pi):
    "Difference of the parity pieces of the decomposition sum."
    even, odd = _c_pi_pair(tuple(pi))
    return even - odd


# -- the same coefficients from exponential generating products ---------

def union(lam, mu):
    "Multiset union: multiplicities add."
    return tuple(sorted(lam + tuple(mu), reverse=True))


def _ps_mul(f, g, bound):
    out = {}
    for pi, a in f.items():
        wa = weight(pi)
        for rho, b in g.items():
            if wa + weight(rho) > bound:
                continue
            key = union(pi, rho)
            s = out.get(key, Fraction(0)) + a * b
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _ps_exp(arg, bound):
    out = {(): Fraction(1)}
    power = {(): Fraction(1)}
    k = 1
    fact = 1
    min_deg = min((weight(pi) for pi in arg), default=bound + 1)
    while k * min_deg <= bound:
        power = _ps_mul(power, arg, bound)
        fact *= k
        for pi, c in power.items():
            s = out.get(pi, Fraction(0)) + c / fact
            if s:
                out[pi] = s
            elif pi in out:
                del out[pi]
        k += 1
    return out


def c_d_via_genfun(bound):
    """Expand the two exponential products in the power-sum basis.

    Returns a pair of dicts {pi: coefficient} through total degree `bound`;
    they must agree with c_pi / d_pi.
    """
    cprod = {(): Fraction(1)}
    dprod = {(): Fraction(1)}
    for m in range(1, bound + 1):
        if m % 2 == 1:
            c_arg = {(m,): Fraction(2, m), (m, m): Fraction(1, 2 * m)}
            d_arg = {(m, m): Fraction(1, 2 * m)}
        else:
            c_arg = {(m,): Fraction(1, m), (m, m): Fraction(1, 2 * m)}
            d_arg = dict(c_arg)
        c_arg = {pi: c for pi, c in c_arg.items() if weight(pi) <= bound}
        d_arg = {pi: c for pi, c in d_arg.items() if weight(pi) <= bound}
        if c_arg:
            cprod = _ps_mul(cprod, _ps_exp(c_arg, bound), bound)
        if d_arg:
            dprod = _ps_mul(dprod, _ps_exp(d_arg, bound), bound)
    return cprod, dprod


# -- the character and Pieri routes to a+ / a- --------------------------

def sgn(lam):
    "Parity (-1)**(number of even parts)."
    return -1 if sum(1 for part in lam if part % 2 == 0) % 2 else 1


def a_plus_from_characters(lam):
    "Signed character sum against c_pi; must match the closed form."
    lam = tuple(lam)
    total = Fraction(0)
    for pi in all_partitions(weight(lam)):
        chi = sn_character(lam, pi)
        if chi:
            total += sgn(pi) * c_pi(pi) * chi
    return exact_int(total, "a+ of %r by characters" % (lam,))


def a_minus_from_characters(lam):
    "Signed character sum against d_pi; must match the closed form."
    lam = tuple(lam)
    total = Fraction(0)
    for pi in all_partitions(weight(lam)):
        chi = sn_character(lam, pi)
        if chi:
            total += sgn(pi) * d_pi(pi) * chi
    return exact_int(total, "a- of %r by characters" % (lam,))


def _strip_sum(lam, sign):
    """Sum of sign^(|nu| - |mu|) over the mu with nu/mu a horizontal strip,
    nu = lam': by the Pieri rule, the coefficient of s_nu in
    (sum_mu s_mu)(sum_n sign^n h_n).  Those mu are the partitions that
    interlace nu, nu_(i+1) <= mu_i <= nu_i."""
    nu = conjugate(tuple(lam))
    ranges = [range(low, high + 1) for high, low in zip(nu, nu[1:] + (0,))]
    return sum(sign ** (weight(nu) - sum(mu)) for mu in iproduct(*ranges))


def a_plus_from_pieri(lam):
    "Pieri route: the coefficient of s_{lam'} in (sum s_mu)(sum h_n)."
    return _strip_sum(lam, 1)


def a_minus_from_pieri(lam):
    """Pieri route: the coefficient of s_{lam'} in (sum s_mu)/(sum e_n),
    where the inverse of sum e_n is sum (-1)^n h_n."""
    return _strip_sum(lam, -1)


def criterion_closed_forms():
    "Ranks 1-3 against the worked closed forms, g in 1..4, all r."
    for g in range(1, 5):
        for r in range(1, g + 2):
            surf = SurfaceData(g, r)
            if e_poly(1, surf) != closed_form_e1(g, r):
                return False, "rank 1 mismatch at g=%d r=%d" % (g, r)
            if e_poly(2, surf) != closed_form_e2(g, r):
                return False, "rank 2 mismatch at g=%d r=%d" % (g, r)
            if RationalFunction(e_poly(3, surf)) != closed_form_e3(g, r):
                return False, "rank 3 mismatch at g=%d r=%d" % (g, r)
    return True, "ranks 1-3 match for g in 1..4, r in 1..g+1"


class TelescopeRange(ValueError):
    "The degenerate genus checks cover g = 0 and g = 1, up to a rank N >= 1."


def telescope_check(g, r, n_max):
    """One degenerate genus family up to rank n_max.

    Genus 0 collapses to E_1 = 1 and E_n = 0 beyond; genus 1 gives
    E_n = 2^(r-1) (q-1) at every rank.  Returns (ok, expectation).
    """
    if g not in (0, 1):
        raise TelescopeRange("telescope checks cover g = 0 and g = 1 only")
    if n_max < 1:
        raise TelescopeRange("telescope checks need N >= 1, not %d" % n_max)
    surf = SurfaceData(g, r)
    if g == 0:
        want = [ONE] + [ZERO] * (n_max - 1)
        expect = "E_1 = 1 and E_n = 0 for 2 <= n <= %d" % n_max
    else:
        want = [Q_MINUS_ONE * (2 ** (r - 1))] * n_max
        expect = "each E_n = %s(q-1)" % ("" if r == 1 else "2")
    return (all(e_poly(n, surf) == w for n, w in enumerate(want, 1)),
            expect)


def criterion_genus_specializations():
    "Genus 0 collapse and the two genus 1 constants, ranks up to 6."
    for g, r in ((0, 1), (1, 1), (1, 2)):
        ok, expect = telescope_check(g, r, 6)
        if not ok:
            return False, "g=%d r=%d: not %s" % (g, r, expect)
    return True, "g=0: (1,0,...,0); g=1: q-1 and 2(q-1) up to rank 6"


GENFUN_CASES = ((0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2))


def criterion_generating_function():
    "Plethystic-product identity at truncations 4 and 6."
    for g, r in GENFUN_CASES:
        for n_max in (4, 6):
            if not gen_function_check(n_max, SurfaceData(g, r)):
                return False, "identity fails at g=%d r=%d N=%d" % (g, r, n_max)
    return True, "holds for %s at N in {4, 6}" % (GENFUN_CASES,)


def criterion_coefficients():
    "Triple agreement for a+/a- and both routes to c_pi/d_pi, degree <= 8."
    for w in range(9):
        for lam in all_partitions(w):
            ap = a_plus(lam)
            am = a_minus(lam)
            if a_plus_from_characters(lam) != ap:
                return False, "a+ character route differs at %s" % (lam,)
            if a_plus_from_pieri(lam) != ap:
                return False, "a+ Pieri route differs at %s" % (lam,)
            if a_minus_from_characters(lam) != am:
                return False, "a- character route differs at %s" % (lam,)
            if a_minus_from_pieri(lam) != am:
                return False, "a- Pieri route differs at %s" % (lam,)
    cg, dg = c_d_via_genfun(8)
    for w in range(9):
        for pi in all_partitions(w):
            if cg.get(pi, Fraction(0)) != c_pi(pi):
                return False, "c coefficient differs at %s" % (pi,)
            if dg.get(pi, Fraction(0)) != d_pi(pi):
                return False, "d coefficient differs at %s" % (pi,)
    return True, "all routes agree through degree 8"


def criterion_components():
    "Binomial component sums and k-independence at odd rank."
    for n in range(1, 5):
        for g in range(1, 4):
            for r in range(1, g + 2):
                if not component_sum_check(n, SurfaceData(g, r)):
                    return False, "component sum fails at n=%d g=%d r=%d" % (n, g, r)
    for n in (1, 3, 5):
        for g in range(1, 4):
            for r in range(1, g + 2):
                surf = SurfaceData(g, r)
                vals = [e_poly_component(n, surf, k) for k in range(1, r + 1, 2)]
                if any(v != vals[0] for v in vals[1:]):
                    return False, "odd rank %d depends on k at g=%d r=%d" % (n, g, r)
    return True, "sums hold for n<=4, g<=3; odd ranks 1,3,5 independent of k"


def criterion_euler():
    "Euler characteristics: mu(n) n^(g-2) at odd rank, zero at even rank."
    for g in (2, 3, 4):
        for n in (1, 3, 5, 7, 9):
            want = moebius(n) * n ** (g - 2)
            for r in range(1, g + 2):
                for k in range(1, r + 1, 2):
                    got = euler_char_component(n, SurfaceData(g, r), k)
                    if got != want:
                        return (False, "odd n=%d g=%d r=%d k=%d: %s != %d"
                                % (n, g, r, k, got, want))
        for n in (2, 4, 6, 8):
            for r in (1, g + 1):
                got = euler_char_component(n, SurfaceData(g, r), 1)
                if got != 0:
                    return False, "even n=%d g=%d r=%d: %s != 0" % (n, g, r, got)
    return True, "mu(n) n^(g-2) for odd n<=9, zero for even n<=8, g in 2..4"


def criterion_oracle_f():
    "Closed F equals brute-force F on every class; mean value 2."
    for q in (3, 5, 7):
        field = fforacle.PrimeField(q)
        for n in (1, 2, 3):
            table = fforacle.class_table(n, field)
            closed = fforacle.class_fn_F_closed(table)
            brute = fforacle.class_fn_F_brute(table)
            if closed != brute:
                bad = [lab for lab, a, b in
                       zip(table.labels, closed.values, brute.values) if a != b]
                return False, "F mismatch at n=%d q=%d: %s" % (n, q, bad[:3])
            if closed.group_sum() != 2 * table.group_order:
                return False, "mean F != 2 at n=%d q=%d" % (n, q)
    return True, "closed = brute and mean 2 for n<=3, q in {3,5,7}"


def criterion_oracle_algebra():
    """Convolution square root of the commutator count; class equations;
    N counts every group element once; the character table's gates."""
    for q in (3, 5):
        table = fforacle.class_table(2, fforacle.PrimeField(q))
        n_fn = fforacle.class_fn_N(table)
        commutators = ffreference.class_fn_C_brute(table)
        if fforacle.convolve(n_fn, n_fn, table) != commutators:
            return False, "N*N != C on GL_2(F_%d)" % q
    for q in (3, 5, 7):
        field = fforacle.PrimeField(q)
        for n in (1, 2, 3):
            table = fforacle.class_table(n, field)
            if sum(table.sizes) != table.group_order:
                return False, "class equation fails at n=%d q=%d" % (n, q)
            # each B gives exactly one A = B B^-T
            if fforacle.class_fn_N(table).group_sum() != table.group_order:
                return False, "sum |c| N(c) != |G| at n=%d q=%d" % (n, q)
    for q in (5, 13):
        # a fresh table, so the gates run whatever the counts have cached
        chars = characters.CharacterTable(
            fforacle.ClassTable(2, fforacle.PrimeField(q)))
        if sum(chars.degree.tolist()) != q * q * (q - 1):
            return False, "sum chi(1) != q^2 (q-1) at q=%d" % q
        try:
            chars.residues(next(chars.primes()))
        except ExactnessError as exc:
            return False, "character gate fails at q=%d: %s" % (q, exc)
    return True, ("N*N = C on GL_2(F_q), q in {3,5}; class equations and "
                  "sum |c| N(c) = |G| for n<=3, q in {3,5,7}; chi(1) and "
                  "<N, chi> = 1 on GL_2(F_q), q in {5,13}")


ORACLE_MAIN_CASES = ((2, 1), (2, 2), (2, 3), (3, 2))
ORACLE_MAIN_QS = (5, 13)


def criterion_oracle_main(collect=None):
    """Rank-2 counts against the formula, components, roots, and conventions.

    When collect is a list, every comparison report is appended to it.
    """
    transposed_failed = False
    for q in ORACLE_MAIN_QS:
        field = fforacle.PrimeField(q)
        roots = fforacle.primitive_roots_of_unity(field, 4)
        for g, r in ORACLE_MAIN_CASES:
            surf = SurfaceData(g, r)
            report = fforacle.compare_with_formula(2, field, surf)
            if collect is not None:
                collect.append(report)
            if not report["equal"]:
                return False, "total mismatch: %r" % (report,)
            total = 0
            for k in range(1, r + 1, 2):
                rep_k = fforacle.compare_with_formula(2, field, surf, k=k)
                if collect is not None:
                    collect.append(rep_k)
                if not rep_k["equal"]:
                    return False, "component mismatch: %r" % (rep_k,)
                total += comb(r, k) * rep_k["counted"]
            if total != report["counted"]:
                return False, "components do not sum at q=%d g=%d r=%d" % (q, g, r)
            counts = {fforacle.count_representation_variety(2, field, surf, xi)
                      for xi in roots}
            if len(counts) != 1:
                return False, "count depends on xi at q=%d g=%d r=%d" % (q, g, r)
            if r >= 2:
                rep_t = fforacle.compare_with_formula(2, field, surf,
                                                      convention=TRANSPOSED)
                if collect is not None:
                    collect.append(rep_t)
                if not rep_t["equal"]:
                    transposed_failed = True
    if not transposed_failed:
        return False, "transposed convention never failed with r >= 2"
    return True, "matched agrees everywhere (q in %s); transposed refuted" % (
        ORACLE_MAIN_QS,)


def criterion_oracle_rank1():
    "Rank-1 closure: counted = 2^(r-1) (q-1)^(g+1) = |GL_1| E_1."
    for q in (3, 5, 7, 11):
        field = fforacle.PrimeField(q)
        for g in range(0, 4):
            for r in range(1, g + 2):
                surf = SurfaceData(g, r)
                counted = fforacle.count_representation_variety(
                    1, field, surf, q - 1)
                want = 2 ** (r - 1) * (q - 1) ** (g + 1)
                if counted != want:
                    return (False, "count %d != %d at q=%d g=%d r=%d"
                            % (counted, want, q, g, r))
                if counted != fforacle.formula_count(1, field, surf):
                    return False, "formula product differs at q=%d g=%d r=%d" % (q, g, r)
    return True, "closure holds for q in {3,5,7,11}, g <= 3, all r"


CRITERIA = (
    ("closed-forms", "worked closed forms for ranks 1-3", criterion_closed_forms, 5.0),
    ("genus-specializations", "genus 0 and genus 1 degenerations", criterion_genus_specializations, 10.0),
    ("generating-function", "plethystic product identity", criterion_generating_function, 60.0),
    ("coefficient-routes", "a+/a- and c/d multi-route agreement", criterion_coefficients, 30.0),
    ("component-sums", "component decomposition consistency", criterion_components, 60.0),
    ("euler-characteristics", "Euler characteristics of components", criterion_euler, 120.0),
    ("oracle-f", "closed vs brute-force symmetric-form counts", criterion_oracle_f, 120.0),
    ("oracle-algebra", "convolution identities and class equations", criterion_oracle_algebra, 60.0),
    ("oracle-main", "point counts against the rank-2 formula", criterion_oracle_main, 300.0),
    ("oracle-rank1", "rank-1 counting closure", criterion_oracle_rank1, 60.0),
)


def run_criteria(names=None, out=None):
    """Run the named criteria (all when names is None), print one line each.

    Returns True when every selected criterion passes.
    """
    selected = [c for c in CRITERIA if names is None or c[0] in names]
    all_ok = True
    for name, _desc, fn, _budget in selected:
        start = time.time()
        ok, detail = fn()
        elapsed = time.time() - start
        line = "%-24s %s  (%.2fs)  %s" % (name, "PASS" if ok else "FAIL",
                                          elapsed, detail)
        print(line, file=out)
        all_ok = all_ok and ok
    return all_ok
