"""E-polynomials of the character varieties attached to a real curve.

The closed formula for rank n is a sum over odd divisors d of n and multisets
of partitions of total weight n/d, with signed Moebius/multinomial
coefficients, the multiplicity coefficients a+/a- raised to the number r of
fixed circles, and normalized hook polynomials raised to g-1.  That multiset
sum is the expanded T^(n/d) coefficient of a truncated logarithm: with
c^(j)_w = w [T^w] log A_j,

    n V_n = sum over odd d | n of mu(d) psi_d(c^(r)_(n/d) - c^(0)_(n/d)),

where A_j = 1 + sum_lam a+(lam)^j a-(lam)^(r-j) H_lam^(g-1) T^|lam| and
psi_d is the Adams map q -> q^d.  Components weight the same logs by the
coefficients of (x+1)^(r-k) (x-1)^k.  The c_w follow from the log recurrence
c_w = w A_w - sum_{0<k<w} c_k A_(w-k), which divides by nothing.  The
literal multiset sum lives in verify (reference_e_value) as the reference
the tests compare against.

For every genus, with e = g - 1, m = max(0, -e) and D_w = prod over i <= w
of (1 - q^i), D_w^m A_j(w) and D_w^m c^(j)_w are integer Laurent
polynomials in u = q^(1/2): at genus 0 every hook product divides D_w, by
the q-hook-length formula (Stanley, EC2, Cor. 7.21.5).  One table per
(e, r, convention) holds them for every j <= r as Kronecker-packed ints
(u -> 2^B; Harvey, J. Symbolic Comput. 44, 2009), and one arithmetic,
_Packed, knows that layout: the weight-w coefficient sits at offset
|e| w^2, a bound on its u-exponents, so a product of weights k and w-k is
aligned by one shift and put over D_w^m by a Gaussian binomial.  Each
partition's D_w^m H^e comes from the net power of every factor
(1 - u^(2i)), entering as steps p -= p << 2iB, the negative powers
divided out exactly.  The table grows one weight at a time in any request
order, serves every rank and the product side of the identity check, and
is never rebuilt; at g = 1 its entries are plain ints.  n V_n sums psi_d
of the packed c^(j), combined by the b_j, on _Packed (_adams_terms) and is
unpacked once per rank; _log_step and _adams_terms on l1 norms (_Norms),
kept per (e, r) and only extended, prove the width B for the top weight,
which bounds every digit the formula side unpacks or re-spreads and is the
width the table holds.  E_n is (q-1)(-q^(1/2))^(n^2 (g-1)) n V_n, at genus
0 divided exactly by D_n^m, then divided exactly by 2n (by 2^r n for a
component); a remainder raises NotPolynomial.  Each E_n and E_n^k is
assembled once per process and kept, so that an Euler characteristic or a
finite-field comparison reuses it.  The complex curve's E-polynomial, the
r = 0 anchor, takes the same route: its table is the one at e = 2g - 2 and
r = 0, its Adams sum runs over every d | n, and its prefactor is
(q-1)^2 q^(n^2 (g-1)) over n.  Requests whose predicted cost exceeds a
stated budget, by one rule for every genus and for the identity check
too, are refused with CostLimit first.

The generating-function identity sum_n V_n T^n = PLog(prod over s = 2^k
of psi_s(A_r / A_0)^(1/s)) is checked by one exact Kronecker evaluation
of its right side, rank M scaled by (M-1)! D_M^m.  The right side reads
only the table's packed series.  Each of its steps (the ratio, the 1/s
power by Miller's recurrence, the product, the log, the Moebius sum) is
scaled to divide by nothing and runs on _Packed at its own width B, where
psi_s re-spreads a value's digits at stride s.  The same steps on _Norms
bound the l1 norms of the right side and of every value it re-spreads, so
every digit fits B: _unpack reads the right side's digits back exactly,
and they are compared with the left side's digit lists, (M-1)! D_M^m M V_M
from the log recurrence and the odd-divisor sum.  No Fraction,
RationalFunction or TruncatedSeries is built.  The check's steps are in
kronecker; its rational form lives in verify as the reference.

Two pairing conventions are implemented.  "matched" pairs the coefficient of
a partition with its own hook polynomial and reproduces the worked low-rank
closed forms; "transposed" pairs it with the hook polynomial of the conjugate
partition (the literal reading of the summation formula).  The finite-field
oracle adjudicates between them empirically; matched is the default.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement, groupby
from itertools import product as iproduct
from math import comb, factorial, isqrt

from .algebra import (ExactnessError, HalfPowerPolynomial, ONE,
                      RationalFunction, U, moebius)
from .partitions import (all_partitions, conjugate, hooks, multiplicities,
                         n_lambda, partition_count, weight)
from .symfun import a_minus, a_plus


MATCHED = "matched"
TRANSPOSED = "transposed"
CONVENTIONS = (MATCHED, TRANSPOSED)


class EmptyPartition(ValueError):
    "Hook polynomials are defined for nonempty partitions."


class NotPolynomial(ArithmeticError):
    "An assembled value failed to clear denominators or half powers."


class NotDivisible(ArithmeticError):
    "Exact division by (q-1)^g failed."


class EvenK(ValueError):
    "Component indices are odd."


class KOutOfRange(ValueError):
    "Component index must satisfy k <= r."


class CostLimit(ValueError):
    "A request whose predicted cost exceeds the formula side's budget."


@dataclass(frozen=True)
class SurfaceData:
    """Genus g and number r of fixed circles; 1 <= r <= g+1."""

    g: int
    r: int

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("genus must be non-negative")
        if not 1 <= self.r <= self.g + 1:
            raise ValueError("need 1 <= r <= g+1, got r=%d, g=%d" % (self.r, self.g))

    @property
    def s(self):
        return self.g + 1 - self.r


def _check_convention(conv):
    if conv not in CONVENTIONS:
        raise ValueError("unknown pairing convention %r" % (conv,))
    return conv


def _check_request(n, conv):
    if n < 1:
        raise ValueError("n must be positive")
    _check_convention(conv)


@lru_cache(maxsize=None)
def hook_polynomial(lam):
    """Normalized hook polynomial, exact in half powers of q.

    q^(-(n_lam + |lam|/2)) * prod over boxes of (1 - q^hook).
    """
    lam = tuple(lam)
    if not lam:
        raise EmptyPartition("hook polynomial of the empty partition")
    poly = HalfPowerPolynomial.u_power(-(2 * n_lambda(lam) + weight(lam)))
    for h in hooks(lam):
        poly = poly * (ONE - HalfPowerPolynomial.u_power(2 * h))
    return poly


@lru_cache(maxsize=None)
def partition_multisets(w):
    """Multisets of nonempty partitions with total weight w.

    Each multiset is a tuple of (partition, multiplicity) pairs in descending
    weight, then descending lexicographic order.  The weights of its
    partitions, repeated by multiplicity, form a partition mu of w; for each
    part size s of mu, of multiplicity m, the multiset holds m partitions of
    s chosen with repetition.  Only the reference route in verify sums over
    these; the production route takes a truncated log instead.
    """
    out = []
    for mu in all_partitions(w):
        picks = [combinations_with_replacement(all_partitions(s), m)
                 for s, m in multiplicities(mu).items()]
        for pick in iproduct(*picks):
            out.append(tuple((lam, len(list(run)))
                             for lam, run in groupby(chain(*pick))))
    return tuple(out)


def _bias(count, width, slot):
    "sum over i < count of 2^(width-1) 2^(slot i)."
    digit = (1 << (width - 1)).to_bytes(width // 8, "little")
    return int.from_bytes(digit.ljust(slot // 8, b"\0") * count, "little")


def _byte_view(packed, count, width, keep):
    """The count digits of width bits of a Kronecker-packed int as
    little-endian byte fields, each biased by 2^(keep-1), keep <= width, so
    that a digit of absolute value below 2^(keep-1) reads as a plain byte
    field; or ExactnessError if the biased int is negative or longer than
    the count digits."""
    biased = packed + _bias(count, keep, width)
    if biased < 0 or biased.bit_length() > count * width:
        raise ExactnessError("a packed value overflows %d digits of %d bits"
                             % (count, width))
    return biased.to_bytes(count * width // 8, "little")


def _unpack(packed, count, width):
    """The count signed digits, width bits each, of a Kronecker-packed int,
    lowest first; one digit is the int itself."""
    if count == 1:
        return [packed]
    size, half = width // 8, 1 << (width - 1)
    raw = _byte_view(packed, count, width, width)
    return [int.from_bytes(raw[i:i + size], "little") - half
            for i in range(0, len(raw), size)]


def _spread(packed, count, width, new_width, stride=1):
    """The packed value with digit i moved to digit stride i, new_width bits
    per digit; every digit must be below 2^(min width - 1) in absolute
    value.  At stride s this is psi_s, u -> u^s.  The digits move as byte
    fields and are never read as ints; one digit is the int itself."""
    if count == 1 or (stride, width) == (1, new_width):
        return packed
    keep = min(width, new_width)
    size, new_size, kept = width // 8, new_width // 8, keep // 8
    raw = _byte_view(packed, count, width, keep)
    if any(raw[b::size].count(0) < count for b in range(kept, size)):
        raise ExactnessError("a packed digit exceeds %d bits" % keep)
    step = stride * new_size
    out = bytearray(((count - 1) * stride + 1) * new_size)
    for b in range(kept):
        out[b::step] = raw[b::size]
    return int.from_bytes(out, "little") - _bias(count, keep, step * 8)


def _group_totals(e, r, top):
    """sum over |lam| = w of a+^r times an l1 bound on the hook part, for
    w = 0..top, bounds the l1 norm of each D_w^m A_j (a+^j a-^(r-j) <= a+^r):
    the e w factors (1 - u^(2h)) have norm 2 each, and at e < 0,
    D_w / prod (1 - q^h) counts the standard tableaux of shape lam by major
    index (Stanley, EC2, Cor. 7.21.5), norm f^lam <= sqrt(w!).  With
    a+ = prod (m + 1) over the part multiplicities m, the sum of a+^r is the
    T^w coefficient of prod over part sizes i of sum_m (m+1)^r T^(i m)."""
    totals = [1] + [0] * top
    for i in range(1, top + 1):
        old = totals[:]
        for m in range(1, top // i + 1):
            f = (m + 1) ** r
            for w in range(i * m, top + 1):
                totals[w] += f * old[w - i * m]
    return [t << (e * w) if e >= 0 else t * isqrt(factorial(w)) ** -e
            for w, t in enumerate(totals)]


# The cost limit.  A table grown to weight N at e = g - 1 costs, in word
# operations: per partition of every weight w <= N about PARTITION_WORDS
# for its enumeration and coefficients, plus |e| w steps p -= p << 2hB on
# at most s_w words, s_w = B (2 |e| w^2 + 1) / 64 the packed width times
# the digit count; and per j <= r, w products of at most s_w words at
# weight w, each about s_w^1.585 by Karatsuba.  At genus 0, m = -e > 0
# adds the Gaussian-binomial product on each log product and, per
# partition, one division of what is left of D_w^m by what is left of the
# hook product once their shared factors cancel: measured, about s_w^2 / 6
# at every m.  The identity check to order N adds, at each weight w, about
# 3 w products (the ratio, the log and the convolutions over s), 4 w at
# genus 0 with the Gaussian binomials, of s_w words at its own width B;
# measured, each costs about IDENTITY_PRODUCT s_w^1.585 in the table's
# units.  WORD_BUDGET is about 5 s on 2 vCPUs with Python 3.11.
# PACKED_BITS caps one packed coefficient, and with it every stored entry
# and each answer's coefficient list.
PARTITION_WORDS = 4 * 10 ** 4
IDENTITY_PRODUCT = 4
WORD_BUDGET = 10 ** 10
PACKED_BITS = 2 ** 20


@lru_cache(maxsize=None)
def _check_cost(w, e, r, identity=False):
    """Refuse (CostLimit) growing the series at e and r to weight w, and
    with identity also checking the product identity to order w; a request
    that passes is not predicted again.  The messages name the surface: at
    r = 0 the complex curve of genus (e + 2) / 2, otherwise the real curve
    of genus g = e + 1, with r in the second.  Two lower bounds come first,
    so that a far-off request is refused without building its width: the
    width is at least |e| w bits, and every partition up to weight w is
    enumerated."""
    a, m = abs(e), max(0, -e)
    g = e + 1 if r else (e + 2) // 2
    names = (("g = %d" % g, "g = %d, r = %d" % (g, r)) if r
             else ("genus %d of the complex curve" % g,) * 2)
    too_wide = CostLimit("rank %d at %s: a packed coefficient would "
                         "exceed %d bits" % (w, names[0], PACKED_BITS))
    too_costly = CostLimit("rank %d at %s: the predicted work "
                           "exceeds the budget of %.0e word operations"
                           % (w, names[1], WORD_BUDGET))
    if a * w * (2 * a * w * w + 1) > PACKED_BITS:
        raise too_wide
    work = 0
    for v in range(1, w + 1):
        work += partition_count(v) * PARTITION_WORDS
        if work > WORD_BUDGET:
            raise too_costly
    if e:
        width = _width(e, r, w)
        if width * (2 * a * w * w + 1) > PACKED_BITS:
            raise too_wide
        for v in range(1, w + 1):
            words = width * (2 * a * v * v + 1) / 64
            work += (partition_count(v) * a * v * words
                     + (r + 1) * v * words ** 1.585
                     + m * (r + 1) * v * words ** 1.585
                     + (partition_count(v) * words ** 2 / 6 if m else 0))
        if work > WORD_BUDGET:
            raise too_costly
    if identity:
        from .kronecker import predicted_work
        if work + predicted_work(e, r, w) > WORD_BUDGET:
            raise too_costly


def check_cost(n, surf, identity=False):
    """Refuse (CostLimit) a rank-n request at surf whose predicted cost
    exceeds the budget, before any work; with identity, a request that
    also checks the product identity to order n."""
    _check_cost(n, surf.g - 1, surf.r, identity)


def _packed_product(powers, width, packed=1):
    """packed times prod over {h: power} of (1 - u^(2h))^power, in digits
    of width bits: power steps p -= p << 2hB per h, no product built."""
    for h, power in powers.items():
        for _ in range(power):
            packed -= packed << (2 * h * width)
    return packed


def _hook_factor(lam_hooks, w, e, width):
    """D_w^m prod over the hooks h of (1 - q^h)^e, m = max(0, -e), packed at
    offset 0: each factor (1 - q^i) has the net power m [i <= w] + e #{h = i};
    the positive powers are multiplied and the product divided exactly by
    the negative ones, or ExactnessError.  At genus 0 the hook product
    divides D_w by the q-hook-length formula (Stanley, EC2, Cor. 7.21.5)."""
    powers = dict.fromkeys(range(1, w + 1), max(0, -e))
    for h in lam_hooks:
        powers[h] = powers.get(h, 0) + e
    product = _packed_product({i: p for i, p in powers.items() if p > 0},
                              width)
    negative = {i: -p for i, p in powers.items() if p < 0}
    if not negative:
        return product
    quotient, rest = divmod(product, _packed_product(negative, width))
    if rest:
        raise ExactnessError("hook product does not divide D_%d" % w)
    return quotient


def _over_denominator(poly, e, w):
    """poly / D_w^(-e) as a RationalFunction for e < 0, with
    D_w = prod over i <= w of (1 - q^i) = u^w H_(w); poly for e >= 0."""
    if e >= 0:
        return poly
    return RationalFunction(poly, (U ** w * hook_polynomial((w,))) ** -e)


class _Packed:
    """The packed arithmetic of weight-w values at u = X = 2^width, the one
    layout of the table and the identity check.  A weight-w value P, a
    Laurent polynomial with u-exponents in [-|e| w^2, |e| w^2], is the int
    X^(|e| w^2) P(X), digit_count(w) digits of width bits; evaluation is a
    ring homomorphism, so sums and products need no digits, and the digits
    are moved only by psi_s.  Values at weight w carry D_w^m,
    m = max(0, -e); the Gaussian binomials [w, k]^m = (D_w / (D_k
    D_(w-k)))^m, polynomials in q = u^2 with nonnegative coefficients that
    sum to C(w, k)^m, are built row by row by the q-Pascal rule
    [w, k] = [w-1, k-1] + q^k [w-1, k], shifts and adds with no division."""

    def __init__(self, e, width):
        self.e, self.m, self.width = abs(e), max(0, -e), width  # e is |e|
        self.plain, self.powered = [[1]], [[1]]

    def digit_count(self, w):
        return 2 * self.e * w * w + 1

    def binomials(self, w):
        "[w, k]^m for k = 0..w."
        while len(self.plain) <= w:
            last, v = self.plain[-1], len(self.plain)
            row = [1] + [last[k - 1] + (last[k] << (2 * k * self.width))
                         for k in range(1, v)] + [1]
            self.plain.append(row)
            self.powered.append(row if self.m == 1 else
                                [b ** self.m for b in row])
        return self.powered[w]

    def term(self, c, a, k, b, w):
        """c [w, k]^m a b for a of weight k and b of weight w - k: the
        product sits at offset |e| (k^2 + (w-k)^2), so a shift of
        2 |e| k (w-k) digits aligns it with weight w, and the Gaussian
        binomial puts it over D_w^m."""
        product = a * b
        if self.m:
            product *= self.binomials(w)[k]
        return (c * product) << (2 * self.e * k * (w - k) * self.width)

    def adams(self, c, a, w, s):
        """c (D_t / psi_s(D_w))^m psi_s(a), t = s w, for a of weight w:
        the digits of a re-spread at stride s, aligned to weight t, then
        m steps p -= p << 2iB per i <= t that s does not divide."""
        t, e, width = s * w, self.e, self.width
        out = _spread(a, self.digit_count(w), width, width, s) \
            << (e * (t * t - s * w * w) * width)
        if self.m:
            out = _packed_product(dict.fromkeys(
                (i for i in range(1, t + 1) if i % s), self.m), width, out)
        return c * out


class _Norms:
    """_Packed's arithmetic on l1 norms: each operation returns a bound on
    the l1 norm of what _Packed's returns, from bounds on its inputs.  The
    Gaussian binomial [w, k] has l1 norm C(w, k) and each factor (1 - q^i)
    norm 2.  totals[w] bounds each D_w^m A_j(w), and peak every value
    whose digits are re-spread."""

    def __init__(self, e, r, top):
        self.m = max(0, -e)
        self.totals = _group_totals(e, r, top)
        self.peak = max(self.totals)

    def term(self, c, a, k, b, w):
        return abs(c) * comb(w, k) ** self.m * a * b

    def adams(self, c, a, w, s):
        self.peak = max(self.peak, a)
        return abs(c) * a << (self.m * (s * w - w))


def _log_step(ring, a, c, w):
    """c_w = w A_w - sum_{0<k<w} c_k A_(w-k) in the ring's arithmetic, from
    the series a and the log coefficients c[k], k < w; zero factors are
    skipped.  On _Packed it gives the table's D_w^m c_w, on _Norms a bound
    on its l1 norm."""
    return w * a[w] + sum(ring.term(-1, c[k], k, a[w - k], w)
                          for k in range(1, w) if c[k] and a[w - k])


def _adams_terms(ring, logs, n, step):
    """sum over d | n, d = 1 mod step, of mu(d) (D_n / psi_d(D_w))^m
    psi_d(logs[w]), w = n/d, in the ring's arithmetic: on _Packed from the
    packed D_w^m logs, on _Norms a bound on its l1 norm from theirs."""
    return sum(ring.adams(moebius(d), logs[n // d], n // d, d)
               for d in range(1, n + 1, step) if n % d == 0 and moebius(d))


def _byte_width(bound, spare):
    "The least whole number of bytes B, in bits, with bound < 2^(B - spare)."
    return (bound.bit_length() + spare + 7) // 8 * 8


_LEDGERS = {}


def _width(e, r, top):
    """Bits per packed digit that hold every digit the formula side unpacks
    or re-spreads at weights w <= top.  On _Norms, _adams_terms over every
    d | w of the _log_step bounds times 2^r >= sum |b_j| (the totals and
    every component) bounds each sum that _adams_sum unpacks and, by its
    d = 1 term, each value that log_at stores.  No bound at weight w
    depends on top, so one ledger per (e, r) keeps the log bounds and the
    running maximum of the sum bounds, and a call only extends it.  A whole
    number of bytes, so that digits unpack as byte fields."""
    c, peak = _LEDGERS.setdefault((e, r), ([0], [0]))
    if top >= len(c):
        norms = _Norms(e, r, top)
        for w in range(len(c), top + 1):
            c.append(_log_step(norms, norms.totals, c, w))
            peak.append(max(peak[-1], _adams_terms(norms, c, w, 1) << r))
    return _byte_width(peak[top], 1)


class _LogTable:
    """The partition series A_j and their log coefficients c^(j)_w, for
    j = 0..r, at one (e, r, conv), times D_w^m, m = max(0, -e): e = g - 1 for
    a real curve of genus g, e = 2g - 2 and r = 0 for the complex curve.

    Each T^w coefficient is a Kronecker-packed int in the layout of
    self.packed (_Packed): the coefficient of u^(i - |e| w^2) is digit i,
    and |e| w^2 bounds the u-exponents at weight w.  At e = 0 every
    coefficient is a plain int, with one digit, and the width stays 0.
    Both series grow one weight at a time, in any request order, and the
    logs follow by _log_step on self.packed.  A growth to weight top whose
    proved width _width(e, r, top) exceeds the held one first re-spaces
    every stored entry to it, in a new _Packed; no entry is rebuilt, and
    the width that _check_cost prices is the width the table holds.
    """

    def __init__(self, e, r, conv):
        self.e, self.r, self.conv = e, r, conv
        self.m = max(0, -e)
        self.packed = _Packed(e, 0)
        self.series = [[0] for _ in range(r + 1)]
        self.logs = [[0] for _ in range(r + 1)]

    def _grow_series(self, top):
        """D_w^m A_j(w) for every w <= top: sum over |lam| = w of a+^j
        a-^(r-j) D_w^m H^e, the hook part by _hook_factor.  lam and its
        conjugate have the same hooks, so both conventions build the same
        product; the convention sets only its offset."""
        e, r = self.e, self.r
        if top < len(self.series[0]):
            return
        _check_cost(top, e, r)
        width = _width(e, r, top) if e else 0
        if width > self.packed.width:
            old, self.packed = self.packed, _Packed(e, width)
            for entries in self.series + self.logs:
                for v in range(1, len(entries)):
                    entries[v] = _spread(entries[v], old.digit_count(v),
                                         old.width, width)
        for w in range(len(self.series[0]), top + 1):
            groups, products = {}, {}
            for lam in all_partitions(w):
                term = 1
                if e:
                    lam_hooks = tuple(hooks(lam))
                    product = products.get(lam_hooks)
                    if product is None:
                        product = products[lam_hooks] = _hook_factor(
                            lam_hooks, w, e, width)
                    paired = lam if self.conv == MATCHED else conjugate(lam)
                    term = product << ((abs(e) * w * w - e * (
                        w + 2 * n_lambda(paired))) * width)
                key = (a_plus(lam), a_minus(lam))
                groups[key] = groups.get(key, 0) + term
            for j, entries in enumerate(self.series):
                entries.append(sum(total * ap ** j * am ** (r - j)
                                   for (ap, am), total in groups.items()))

    def series_at(self, j, w):
        "Packed D_w^m A_j(w)."
        self._grow_series(w)
        return self.series[j][w]

    def log_at(self, j, top):
        "Packed D_w^m c^(j)_w, by _log_step on the table's series."
        self._grow_series(top)
        a, c = self.series[j], self.logs[j]
        for w in range(len(c), top + 1):
            c.append(_log_step(self.packed, a, c, w))
        return c[top]

    def combined(self, weights, w):
        "Packed sum_j b_j D_w^m c^(j)_w, for weights {j: b_j}."
        return sum(self.log_at(j, w) * b for j, b in weights.items())


_LOG_TABLES = {}
_ASSEMBLED = {}


def _log_table(e, r, conv):
    "The one packed table per (e, r, conv)."
    if (e, r, conv) not in _LOG_TABLES:
        _LOG_TABLES[e, r, conv] = _LogTable(e, r, conv)
    return _LOG_TABLES[e, r, conv]


def _real_table(surf, conv):
    "The packed table of the real curve surf."
    return _log_table(surf.g - 1, surf.r, conv)


def _component_weights(r, k):
    """b_j, the coefficients of x^j in x^r - 1 for the total (k None) and in
    (x+1)^(r-k) (x-1)^k for the component k, with the zeros dropped."""
    if k is None:
        return {r: 1, 0: -1}
    weights = {j: sum(comb(r - k, j - l) * comb(k, l) * (-1) ** (k - l)
                      for l in range(min(j, k) + 1)) for j in range(r + 1)}
    return {j: b for j, b in weights.items() if b}


def _adams_sum(table, weights, n, step):
    """The coefficients of D_n^m times sum over d | n, d = 1 mod step, of
    mu(d) psi_d(sum_j b_j c^(j)_(n/d)), of u^(i - |e| n^2) at index i, for
    weights {j: b_j}: step 2 sums the odd d of a real curve, step 1 every d
    of the complex curve.  _adams_terms sums on the table's _Packed, and
    the result is unpacked once; the weight-n sum (d = 1) comes first, and
    table.packed is read after it: growing the table may re-space it."""
    logs = {n // d: table.combined(weights, n // d)
            for d in range(1, n + 1, step) if n % d == 0}
    return _unpack(_adams_terms(table.packed, logs, n, step),
                   table.packed.digit_count(n), table.packed.width)


def _n_v_coefficients(n, surf, k, conv):
    """D_n^m n V_n as its list of coefficients, of u^(i - |e| n^2) at index
    i.  n V_n = sum over odd d | n of mu(d) psi_d(sum_j b_j c^(j)_(n/d)),
    with b_j the coefficients of x^j in x^r - 1 for the total (k None) and
    in (x+1)^(r-k) (x-1)^k for the component k; expanding log A_j over
    multisets of partitions gives the closed formula's multiset coefficients
    (-1)^(m-1) (m-1)!/prod mult!."""
    _check_request(n, conv)
    return _adams_sum(_real_table(surf, conv),
                      _component_weights(surf.r, k), n, 2)


def v_n(n, surf, conv=MATCHED):
    """The rank-n inner sum V_n, for the weights a+^r - a-^r; at genus 0 a
    rational function over D_n^m."""
    e = surf.g - 1
    n_v = HalfPowerPolynomial.from_dense(
        -abs(e) * n * n, _n_v_coefficients(n, surf, None, conv))
    return _over_denominator(n_v, e, n) * Fraction(1, n)


def check_component(k, surf):
    """Refuse a component index that is even (EvenK) or outside 1 <= k <= r
    (KOutOfRange); k None, the whole variety, passes."""
    if k is not None and k % 2 == 0:
        raise EvenK("component index k must be odd")
    if k is not None and not 1 <= k <= surf.r:
        raise KOutOfRange("need 1 <= k <= r = %d, got k = %d" % (surf.r, k))


def _divided(coeffs, n, m, what):
    """A coefficient list in u divided exactly by D_n^m, or NotPolynomial:
    m times per factor (1 - u^(2i)), i <= n, the strided prefix sum
    out[j] += out[j - 2i], exact iff the top 2i entries then vanish."""
    out = list(coeffs)
    for i in range(1, n + 1):
        for _ in range(m):
            for j in range(2 * i, len(out)):
                out[j] += out[j - 2 * i]
            if any(out[-2 * i:]):
                raise NotPolynomial("%s has a nontrivial denominator" % what)
            del out[-2 * i:]
    return out


def _prefactored(table, coeffs, n, power, divisor, what):
    """(q-1)^power (-q^(1/2))^(e n^2) X / divisor, from the coefficient list
    of D_n^m X at the table's e and m: (-u)^(e n^2) moves index i to
    u^(i + (e - |e|) n^2), each q - 1 = u^2 - 1 takes each coefficient from
    the one two places below, and _divided takes D_n^m out."""
    e = table.e
    value = [(-1) ** (e * n * n % 2) * c for c in coeffs]
    for _ in range(power):
        value = [a - b for a, b in zip([0, 0] + value, value + [0, 0])]
    return _require_polynomial((e - abs(e)) * n * n,
                               _divided(value, n, table.m, what),
                               divisor, what)


def _assembled(n, surf, k, conv):
    """E_n (k None) or E_n^k: (q-1)(-q^(1/2))^(n^2 (g-1)) n V_n over 2n
    (k None) or 2^r n, built once per (n, g, r, k, conv) and process; the
    request is checked before the lookup."""
    check_component(k, surf)
    _check_request(n, conv)
    key = (n, surf.g, surf.r, k, conv)
    poly = _ASSEMBLED.get(key)
    if poly is None:
        poly = _ASSEMBLED[key] = _prefactored(
            _real_table(surf, conv), _n_v_coefficients(n, surf, k, conv), n,
            1, (2 if k is None else 2 ** surf.r) * n,
            "E_%d" % n if k is None else "E_%d^%d" % (n, k))
    return poly


def _require_polynomial(lo, coeffs, divisor, what):
    """sum over i of coeffs[i] u^(lo + i), over divisor, as a polynomial in q
    with int coefficients, or NotPolynomial."""
    if any(coeffs[1 - lo % 2::2]):
        raise NotPolynomial("%s has odd half powers" % what)
    if lo < 0 and any(coeffs[:-lo]):
        raise NotPolynomial("%s has negative exponents" % what)
    if any(c % divisor for c in coeffs):
        raise NotPolynomial("%s has a non-integer coefficient" % what)
    return HalfPowerPolynomial.from_dense(lo, [c // divisor for c in coeffs])


def e_poly(n, surf, conv=MATCHED):
    """E-polynomial of the rank-n variety, as a polynomial in q with int
    coefficients, for every surface (genus 0 included).

    Raises NotPolynomial if a denominator, a remainder or a half power
    survives, which signals a convention bug rather than bad input.
    """
    return _assembled(n, surf, None, conv)


def e_poly_component(n, surf, k, conv=MATCHED):
    "E-polynomial of one path component, by its odd sign count k; as e_poly."
    return _assembled(n, surf, k, conv)


def euler_char_component(n, surf, k, conv=MATCHED):
    """Euler characteristic: E_n^k divided exactly by (q-1)^g, at q = 1.

    With q = 1 + x, E_n^k = sum_j d_j x^j where d_j = sum_e c_e C(e/2, j)
    over the terms c_e q^(e/2).  (q-1)^g divides E_n^k exactly when
    d_j = 0 for every j < g, and the quotient at q = 1 is then the int d_g;
    otherwise NotDivisible.
    """
    terms = e_poly_component(n, surf, k, conv).terms.items()
    d = [sum(c * comb(e // 2, j) for e, c in terms)
         for j in range(surf.g + 1)]
    if any(d[:-1]):
        raise NotDivisible("(q-1)^%d does not divide E_%d^%d" % (surf.g, n, k))
    return d[-1]


def gen_function_check(n_max, surf, conv=MATCHED):
    """Compare the term-by-term sums against the plethystic product formula:
    sum_n V_n T^n = PLog(prod over s = 2^k <= n_max of
    psi_s(A_r / A_0)^(1/s)) up to T^n_max, with A_r and A_0 the partition
    series and psi_s the Adams map q -> q^s, T -> T^s.

    The right side (kronecker._product_side) is an exact integer at one
    point u = X = 2^B (Kronecker substitution), each rank M scaled by
    (M-1)! D_M^m and offset by X^(|e| M^2); it reads only the packed series
    D_w^m A_r(w) and D_w^m A_0(w), never the table's logs.  The same
    recurrences run on l1 norms (_Norms) bound the right side's digits and
    those of every value it re-spreads, and B is the least whole number of
    bytes with that bound below 2^(B-2).  Then every digit fits its field,
    _unpack reads each rank's coefficient list back exactly, and the
    verdict compares it with the left side's digit list, (M-1)! D_M^m M V_M
    from the log recurrence and the odd-divisor sum (_n_v_coefficients).
    The check's code is in kronecker, loaded on the first check.
    """
    from .kronecker import agrees
    _check_convention(conv)
    if n_max < 1:
        raise ValueError("truncation order must be positive")
    check_cost(n_max, surf, identity=True)
    lhs = [None] + [_n_v_coefficients(n, surf, None, conv)
                    for n in range(1, n_max + 1)]
    return agrees(_real_table(surf, conv), lhs, surf.r, n_max)


def complex_curve_e_poly(n, g):
    """E-polynomial of the complex-curve character variety, a sanity anchor.

    Extracted from the plethystic logarithm of the hook-polynomial series
    sum_lam H_lam^(2g-2) T^|lam| (the partition series with r = j = 0):
    (q-1)^2 q^(n^2 (g-1)) times its T^n coefficient, the Adams sum over
    every d | n of the table at e = 2g - 2, divided by n.  A remainder
    raises NotPolynomial.  The polynomial is wrapped as a RationalFunction
    with denominator 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if g < 0:
        raise ValueError("genus must be non-negative")
    table = _log_table(2 * g - 2, 0, MATCHED)
    return RationalFunction(_prefactored(
        table, _adams_sum(table, {0: 1}, n, 1), n, 2, n,
        "E_%d of the genus-%d complex curve" % (n, g)))
