"""Symmetric-function layer: S_n characters, Schur/power-sum conversion,
Pieri products, and the multiplicity coefficients attached to partitions.

The coefficients a_plus / a_minus that drive the main formulas are computed
by three independent routes (closed form, signed character sums against the
convolution coefficients c_pi / d_pi, and Pieri extraction); the test suite
pins all three against each other.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial

from .algebra import exact_int
from .partitions import (all_partitions, conjugate, multiplicities, sgn,
                         union, weight, z_pi)


class WeightMismatch(ValueError):
    "Character evaluation needs |lambda| = |pi|."


# -- Murnaghan-Nakayama via beta-sets ----------------------------------

_MN_CACHE = {}


def sn_character(lam, pi):
    """Irreducible symmetric-group character value chi^lam on cycle type pi.

    Border-strip recursion on first-column hook lengths, memoized.
    """
    if weight(lam) != weight(pi):
        raise WeightMismatch("|lambda| = %d but |pi| = %d" % (weight(lam), weight(pi)))
    return _mn(tuple(lam), tuple(pi))


def _mn(lam, pi):
    if not pi:
        return 1
    key = (lam, pi)
    cached = _MN_CACHE.get(key)
    if cached is not None:
        return cached
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
    _MN_CACHE[key] = total
    return total


# -- symmetric functions in two bases ----------------------------------

SCHUR = "schur"
POWERSUM = "powersum"


class SymFunc:
    """Symmetric function with exact coefficients in one fixed basis.

    terms maps partitions to Fractions; an optional degree bound truncates
    products.  Instances are treated as immutable.
    """

    __slots__ = ("basis", "terms", "bound")

    def __init__(self, basis, terms=None, bound=None):
        if basis not in (SCHUR, POWERSUM):
            raise ValueError("unknown basis %r" % (basis,))
        clean = {}
        if terms:
            for lam, c in terms.items():
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    lam = tuple(lam)
                    if bound is None or weight(lam) <= bound:
                        clean[lam] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    def coefficient(self, lam):
        return self.terms.get(tuple(lam), Fraction(0))

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("cannot add across bases")
        terms = dict(self.terms)
        for lam, c in other.terms.items():
            s = terms.get(lam, Fraction(0)) + c
            if s:
                terms[lam] = s
            elif lam in terms:
                del terms[lam]
        return SymFunc(self.basis, terms, _merge_bound(self.bound, other.bound))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = c if isinstance(c, Fraction) else Fraction(c)
        return SymFunc(self.basis, {lam: c * v for lam, v in self.terms.items()},
                       self.bound)

    def __eq__(self, other):
        return (isinstance(other, SymFunc) and self.basis == other.basis
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def homogeneous(self, n):
        "The degree-n component."
        return SymFunc(self.basis,
                       {lam: c for lam, c in self.terms.items() if weight(lam) == n},
                       self.bound)

    def __repr__(self):
        parts = ["%s*%s[%s]" % (c, "s" if self.basis == SCHUR else "p", ",".join(map(str, lam)))
                 for lam, c in sorted(self.terms.items())]
        return "SymFunc(%s)" % (" + ".join(parts) or "0")


def _merge_bound(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def power_to_schur(f):
    "Basis change p_pi = sum_lam chi^lam(pi) s_lam."
    if f.basis != POWERSUM:
        raise ValueError("input must be in the power-sum basis")
    terms = {}
    for pi, c in f.terms.items():
        for lam in all_partitions(weight(pi)):
            v = sn_character(lam, pi)
            if v:
                s = terms.get(lam, Fraction(0)) + c * v
                if s:
                    terms[lam] = s
                elif lam in terms:
                    del terms[lam]
    return SymFunc(SCHUR, terms, f.bound)


def schur_to_power(f):
    "Basis change s_lam = sum_pi chi^lam(pi)/z_pi p_pi."
    if f.basis != SCHUR:
        raise ValueError("input must be in the Schur basis")
    terms = {}
    for lam, c in f.terms.items():
        for pi in all_partitions(weight(lam)):
            v = sn_character(lam, pi)
            if v:
                s = terms.get(pi, Fraction(0)) + c * Fraction(v, z_pi(pi))
                if s:
                    terms[pi] = s
                elif pi in terms:
                    del terms[pi]
    return SymFunc(POWERSUM, terms, f.bound)


# -- Pieri rule ---------------------------------------------------------

def horizontal_strip_additions(lam, n):
    """Partitions obtained from lam by adding n boxes, at most one per column.

    These are exactly the mu interlacing lam: mu_1 >= lam_1 >= mu_2 >= ...
    """
    lam = tuple(lam)
    ell = len(lam)
    if ell == 0:
        yield (() if n == 0 else (n,))
        return

    def rec(i, remaining, out):
        if i == ell:
            # optional new last row, capped by the last part of lam
            if remaining == 0:
                yield tuple(out)
            elif remaining <= lam[ell - 1]:
                yield tuple(out + [remaining])
            return
        lo = lam[i]
        hi = lo + remaining if i == 0 else min(lam[i - 1], lo + remaining)
        for mu_i in range(lo, hi + 1):
            yield from rec(i + 1, remaining - (mu_i - lo), out + [mu_i])

    yield from rec(0, n, [])


def vertical_strip_additions(lam, n):
    "Partitions obtained from lam by adding n boxes, at most one per row."
    for mu in horizontal_strip_additions(conjugate(lam), n):
        yield conjugate(mu)


def pieri_row(f, n):
    "Multiply a Schur-basis function by the complete homogeneous s_(n)."
    if f.basis != SCHUR:
        raise ValueError("Pieri products need the Schur basis")
    if n == 0:
        return f
    terms = {}
    for lam, c in f.terms.items():
        if f.bound is not None and weight(lam) + n > f.bound:
            continue
        for mu in horizontal_strip_additions(lam, n):
            terms[mu] = terms.get(mu, Fraction(0)) + c
    return SymFunc(SCHUR, terms, f.bound)


def pieri_col(f, n):
    "Multiply a Schur-basis function by the elementary s_(1^n)."
    if f.basis != SCHUR:
        raise ValueError("Pieri products need the Schur basis")
    if n == 0:
        return f
    terms = {}
    for lam, c in f.terms.items():
        if f.bound is not None and weight(lam) + n > f.bound:
            continue
        for mu in vertical_strip_additions(lam, n):
            terms[mu] = terms.get(mu, Fraction(0)) + c
    return SymFunc(SCHUR, terms, f.bound)


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


# -- the multiplicity coefficients a+ / a- ------------------------------

def a_plus(lam):
    "Closed form: product of (multiplicity + 1) over the part values of lam."
    result = 1
    for m in multiplicities(tuple(lam)).values():
        result *= m + 1
    return result


def a_minus(lam):
    "Closed form: 1 when the conjugate partition has only even parts, else 0."
    return 1 if all(part % 2 == 0 for part in conjugate(tuple(lam))) else 0


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


@lru_cache(maxsize=None)
def _schur_sum_times_row_sum(bound):
    "(sum of all s_mu) * (sum of all s_(n)) truncated at total degree bound."
    base = SymFunc(SCHUR, {lam: 1 for w in range(bound + 1)
                           for lam in all_partitions(w)}, bound)
    total = SymFunc(SCHUR, {}, bound)
    for n in range(bound + 1):
        total = total + pieri_row(base, n)
    return total


@lru_cache(maxsize=None)
def _schur_sum_times_inverse_col_sum(bound):
    """(sum of all s_mu) * (sum of all s_(1^n))^(-1) truncated.

    The inverse of the elementary-sum series is sum_n (-1)^n s_(n), so this
    is again a pure Pieri-row computation.
    """
    base = SymFunc(SCHUR, {lam: 1 for w in range(bound + 1)
                           for lam in all_partitions(w)}, bound)
    total = SymFunc(SCHUR, {}, bound)
    for n in range(bound + 1):
        term = pieri_row(base, n)
        total = total + (term if n % 2 == 0 else term.scale(-1))
    return total


def a_plus_from_pieri(lam):
    "Pieri extraction: the coefficient of s_{lam'} in (sum s)(sum s_(n))."
    lam = tuple(lam)
    f = _schur_sum_times_row_sum(weight(lam))
    return exact_int(f.coefficient(conjugate(lam)), "a+ of %r by Pieri" % (lam,))


def a_minus_from_pieri(lam):
    "Pieri extraction: the coefficient of s_{lam'} in (sum s)/(sum s_(1^n))."
    lam = tuple(lam)
    f = _schur_sum_times_inverse_col_sum(weight(lam))
    return exact_int(f.coefficient(conjugate(lam)), "a- of %r by Pieri" % (lam,))
