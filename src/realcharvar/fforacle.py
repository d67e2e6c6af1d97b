"""Independent finite-field verification over GL_n(F_q), n <= 3.

Conjugacy classes are labelled by maps from monic irreducible polynomials to
partitions.  The class functions F (invariant symmetric forms) and N
(symmetric square roots) are built both from closed formulas and from brute
force, and combined at scalar classes to count points of the representation
variety.  Brute-force F and N count the invertible points of each class's
fixed subspace (of B -> A B A^T on the symmetric coordinates for F, of
B -> A B^T on all matrices for N), found by the module's one Gaussian
elimination mod q (_nullspace_mod).  One table-wide count (_fixed_counts)
sweeps each distinct subspace at one point per line, as det(l B) =
l^n det(B), and the subspaces of one dimension d together: their
(q^d - 1) / (q - 1) lines, in passes of at most _F_BLOCK points.  The
identity, whose subspace is the largest, is eliminated first, and a group
over the sweep budget is refused when it is first met.  Counts are compared
against the closed-form E-polynomials; mismatches are reported, never
suppressed.  The reference routes that only verify and the tests read
(classify, the commutator count C) live in ffreference.

F and N vanish off the self-inverse classes (c^-1 in c): A S A^T = S gives
A^T ~ A^-1, and A = B B^-T gives B^-1 A B = A^-T ~ A^-1.  A class is
self-inverse when inverse_label, which stars each polynomial of the label,
fixes its label.

A count sorts its atoms (F, or its determinant 1 and -1 parts F+ and F-,
then N), each built once per table (class_fn_atom).  At n <= 2 the count is
one character sum mod primes (characters.count), imported on the first such
count.  At n = 3 one atom is read at xi I, and two atoms give the class sum
(first * last)(xi I) = sum_c |c| first(c) last(xi c^-1) over the classes c
where first is nonzero, with the label of xi c^-1 read off c's.  More atoms
need a convolution on GL_3, which nothing here provides, so such a count is
refused (KernelMissing) before any table is built.  F's closed form
(f_closed) is one integer product at q, and formula_count evaluates the
E-polynomial at q in ints.

The kernel (n <= 2) is the reference route that the character sum replaced:
convolve pairs a class function with one that vanishes off the
self-inverse classes, through K[t, i, c2], the count of B in the i-th
self-inverse class with B^-1 g_t in class c2.  That class is closed under
inversion, so the kernel counts B g_t instead, over the self-inverse
entries of the element lookup, with no copy of the group and no inverses.

Matrices are int64 numpy arrays, and the class representatives and the
fixed-subspace points are (..., n, n) stacks of them.  numpy carries the
matrix layer, the fixed-subspace enumerations for F and N, the element
lookup and the kernel built from it (n <= 2), and the kernel contraction,
whose int64 range is checked before it runs; all class-function values are
exact Python integers.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

import numpy as np

from . import epoly
from .laurent import ExactnessError
from .partitions import all_partitions, centralizer_order, multiplicities


class UnsupportedRank(ValueError):
    "Class enumeration is implemented for n <= 3."


class GroupTooLarge(ValueError):
    "A requested sweep exceeds the feasibility envelope."


class KernelMissing(ValueError):
    """A convolution this module cannot evaluate: a rank-3 count of three or
    more atoms, a kernel at n > 2, or neither factor vanishing off the
    self-inverse classes."""


class NoPrimitiveRoot(ValueError):
    "The field has no primitive 2n-th root of unity."


_GROUP_BUDGET = 2_000_000      # elements swept in one pass
# fixed-subspace points per pass, over all the classes of a pass; the
# bench's oracle workload (2-CPU Xeon, 12 s runs) peaks above the 31.45 MB
# import floor by +3.5 MB at 1 << 14, +1.3 MB at 1 << 12 and +0.7 MB at
# both 1 << 10 and 1 << 8
_F_BLOCK = 1 << 10


def _refuse_over_budget(size, message, *args):
    """Refuse (GroupTooLarge) a sweep or table of size more than the budget,
    with message % args, which leads with a count, and "exceed the budget"."""
    if size > _GROUP_BUDGET:
        raise GroupTooLarge((message + " exceed the budget") % args)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m):
    """Miller-Rabin to the first twelve prime bases, which decides every
    m < 3.3 * 10^24 exactly: the field sizes q, and the primes p of the
    character sum (below 2^31)."""
    if m < 2:
        return False
    for a in _WITNESSES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class PrimeField:
    "Odd prime field F_q."

    q: int

    def __post_init__(self):
        if not _is_prime(self.q):
            raise ValueError("q = %d is not prime" % self.q)
        if self.q == 2:
            raise ValueError("the symmetric-form split needs odd characteristic")

    def inv(self, a):
        a %= self.q
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, -1, self.q)


# -- matrices over F_q ----------------------------------------------------
#
# det_mod and charpoly_mod take one matrix or an (..., n, n) int64 stack
# with n <= 3 and entries below q in absolute value, and reduce mod q once
# per Leibniz sum: each of its n! products stays below q^n, so the sum stays
# below n! q^n, and a q at which that would leave int64 is refused.

def _stack(A):
    "A as an int64 array whose last two axes are n x n, n <= 3."
    A = np.asarray(A, dtype=np.int64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or not 1 <= A.shape[-1] <= 3:
        raise UnsupportedRank("matrix helpers for n <= 3 only")
    return A


def _det(A, q):
    """The Leibniz sum over the n! <= 6 column permutations, mod q; refused
    (ExactnessError) where n! q^n leaves int64."""
    n = A.shape[-1]
    if factorial(n) * q ** n > _INT64_MAX:
        raise ExactnessError("a %d x %d determinant mod %d leaves int64"
                             % (n, n, q))
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        for i, j in enumerate(perm):
            term = term * A[..., i, j]
        total = total + term
    return total % q


def det_mod(A, q):
    "Determinant mod q of a matrix or of each matrix in a stack."
    return _det(_stack(A), q)


def charpoly_mod(A, q):
    """Characteristic polynomial mod q of a matrix or of each matrix in a
    stack, as (..., n + 1) ascending monic coefficients: the coefficient of
    t^(n-k) is (-1)^k times the sum of the k x k principal minors."""
    A = _stack(A)
    n = A.shape[-1]
    out = np.zeros(A.shape[:-2] + (n + 1,), dtype=np.int64)
    for k in range(n + 1):
        for rows in combinations(range(n), k):
            idx = np.array(rows, dtype=np.intp)
            out[..., n - k] += (-1) ** k * _det(A[..., idx[:, None], idx], q)
    return out % q


# -- monic polynomials over F_q (ascending coefficient tuples) ----------

def poly_mul(f, g, q):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return tuple(out)


def poly_pow(f, e, q):
    out = (1,)
    for _ in range(e):
        out = poly_mul(out, f, q)
    return out


def poly_star(f, field):
    "The polynomial whose roots are the inverse roots of f (monic)."
    q = field.q
    c0 = f[0] % q
    if c0 == 0:
        raise ValueError("star of a polynomial divisible by t")
    inv0 = field.inv(c0)
    rev = tuple(reversed(f))
    return tuple(c * inv0 % q for c in rev)


def poly_scale_roots(f, a, q):
    "The monic polynomial whose roots are a times those of f: f_i a^(d-i)."
    d = len(f) - 1
    return tuple(c * pow(a, d - i, q) % q for i, c in enumerate(f))


_STARS = {}     # q -> {f: poly_star(f)}


def inverse_label(label, field):
    "The label of the class of A^-1 for A in the class labelled label."
    stars = _STARS.setdefault(field.q, {})
    for f, _ in label:
        if f not in stars:
            stars[f] = poly_star(f, field)
    return tuple(sorted((stars[f], lam) for f, lam in label))


@lru_cache(maxsize=None)
def irreducibles(field, d):
    """Sorted monic irreducible polynomials of degree d, excluding t itself.

    Up to degree 3 a polynomial with a nonzero constant term is irreducible
    exactly when it is linear or has no root in F_q, that is, is no product
    (t - a) h with a != 0 and h monic of degree d - 1, h(0) != 0.  A sieve
    marks those products, fewer than q^d, at d >= 2 and keeps the rest.
    """
    if not 1 <= d <= 3:
        raise UnsupportedRank("irreducibles up to degree 3 only")
    q = field.q
    reducible = {poly_mul((q - a, 1), h + (1,), q) for a in range(1, q)
                 for h in product(range(q), repeat=d - 1) if d > 1 and h[0]}
    return tuple(c + (1,) for c in product(range(q), repeat=d)
                 if c[0] and c + (1,) not in reducible)


def companion(f, q):
    "Companion matrix of a monic polynomial, as nested int lists."
    d = len(f) - 1
    return ([[int(j == i + 1) for j in range(d)] for i in range(d - 1)]
            + [[-c % q for c in f[:-1]]])


def _nullspace_mod(M, q):
    """A basis of {x : M x = 0 mod q} as a (d, p) int64 array, one row per
    vector, for a (k, p) matrix M: Gauss-Jordan elimination mod q, then one
    vector per free column."""
    M = np.asarray(M, dtype=np.int64)
    rows = (M % q).tolist()
    p = M.shape[1]
    pivots = []
    for col in range(p):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for r in range(len(rows)):
            c = rows[r][col]
            if r != rank and c:
                rows[r] = [(x - c * y) % q for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    free = [col for col in range(p) if col not in pivots]
    basis = np.zeros((len(free), p), dtype=np.int64)
    for k, col in enumerate(free):
        basis[k, col] = 1
        for r, pcol in enumerate(pivots):
            basis[k, pcol] = -rows[r][col] % q
    return basis


def group_order(n, q):
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    return order


# -- conjugacy class tables ----------------------------------------------

def _check_class_count(n, q):
    """Refuse, from n and q alone, a class table of GL_n(F_q) with more
    classes than the sweep budget (GroupTooLarge): q - 1 classes at n = 1,
    q^2 - 1 at n = 2, q^3 - q at n = 3; above n = 3, UnsupportedRank."""
    if not 1 <= n <= 3:
        raise UnsupportedRank("class tables for n <= 3 only")
    classes = (q - 1, q * q - 1, q ** 3 - q)[n - 1]
    _refuse_over_budget(classes, "%d classes of GL_%d(F_%d)", classes, n, q)


class ClassTable:
    """Conjugacy classes of GL_n(F_q): labels, representatives, sizes.

    A label is a sorted tuple of (irreducible polynomial, partition) pairs
    with total weighted degree n.  The class equation is verified at
    construction time.
    """

    def __init__(self, n, field):
        _check_class_count(n, field.q)
        self.n = n
        self.field = field
        self.q = field.q
        self.group_order = group_order(n, field.q)
        pool = []
        for d in range(1, n + 1):
            pool.extend((f, d) for f in irreducibles(field, d))
        labels = []

        def rec(start, remaining, acc):
            # one level per label factor, so the depth is at most n; the
            # pool ascends in degree, so the first too-large d ends the loop
            if remaining == 0:
                labels.append(tuple(sorted(acc)))
                return
            for i in range(start, len(pool)):
                f, d = pool[i]
                if d > remaining:
                    break
                for w in range(1, remaining // d + 1):
                    for lam in all_partitions(w):
                        rec(i + 1, remaining - d * w, acc + [(f, lam)])

        rec(0, n, [])
        self.labels = tuple(sorted(labels))
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.reps = np.array([self._representative(lab) for lab in self.labels],
                             dtype=np.int64)
        self.sizes = tuple(self.group_order // self._centralizer(lab)
                           for lab in self.labels)
        if sum(self.sizes) != self.group_order:
            raise ExactnessError("class equation failed for n=%d, q=%d"
                                 % (n, field.q))
        self.dets = tuple(det_mod(self.reps, self.q).tolist())
        self._element_class = None
        self._self_inverse = None
        self._kernel = None
        self._characters = None
        self._atoms = {}

    def _representative(self, label):
        "Companion matrices of f^part, one per part of lam, on the diagonal."
        rep = [[0] * self.n for _ in range(self.n)]
        at = 0
        for f, lam in label:
            for part in lam:
                block = companion(poly_pow(f, part, self.q), self.q)
                for i, row in enumerate(block):
                    rep[at + i][at:at + len(row)] = row
                at += len(block)
        return rep

    def _centralizer(self, label):
        total = 1
        for f, lam in label:
            total *= centralizer_order(lam, self.q ** (len(f) - 1))
        return total

    def class_count(self):
        return len(self.labels)

    def scalar_class_index(self, a):
        "Index of the class of the scalar matrix a * identity."
        a %= self.q
        lam = (1,) * self.n
        label = ((((-a) % self.q, 1), lam),)
        return self.index[label]

    # -- element lookup and the kernel (n <= 2, numpy) ---------------------

    def element_class_array(self):
        """cls[encode(A)] = class index for every invertible A, -1 for a
        singular A; n <= 2; encode(A) reads A's entries as base-q digits.

        For n <= 2 the characteristic polynomial and whether A is scalar
        determine the class, so the lookup is keyed by that pair and filled
        from the class representatives.
        """
        if self._element_class is not None:
            return self._element_class
        if self.n > 2:
            raise KernelMissing("element lookup for n <= 2 only")
        q = self.q
        keys = _class_key(self.reps, q)
        if len(set(keys.tolist())) != len(keys):
            raise ExactnessError("(charpoly, scalar) does not separate the "
                                 "classes for n=%d, q=%d" % (self.n, q))
        by_key = np.full(2 * q ** self.n, -1, dtype=np.int32)
        by_key[keys] = np.arange(len(keys))
        every = _digits(self.n ** 2, q).reshape(-1, self.n, self.n)
        self._element_class = by_key[_class_key(every, q)]
        return self._element_class

    def self_inverse_classes(self):
        """Indices of the classes c with c^-1 in c, ascending: the labels
        that inverse_label fixes."""
        if self._self_inverse is None:
            self._self_inverse = np.flatnonzero(
                [inverse_label(lab, self.field) == lab for lab in self.labels])
        return self._self_inverse

    def kernel(self):
        """Convolution kernel K[t, i, c2] on the self-inverse classes S =
        self_inverse_classes(); n <= 2.

        K[t][i][c2] counts B in class S[i] with B^(-1) g_t in class c2.  S[i]
        is closed under B -> B^-1, so this is also the count of B in S[i]
        with B g_t in c2, and the rows come from element_class_array alone:
        its self-inverse entries, decoded from their positions, times each
        g_t.  An entry is at most |GL_2(F_q)|, below 2^31 within the sweep
        budget, so int32.
        """
        if self._kernel is not None:
            return self._kernel
        n, q = self.n, self.q
        S = self.self_inverse_classes()
        cls = self.element_class_array()
        C = len(self.labels)
        slot = np.full(C, -1, dtype=np.int64)
        slot[S] = np.arange(len(S))
        # drop the singular entries (-1) before slot reads them as the last
        # class, then keep the elements of S
        pos = np.flatnonzero(cls >= 0)
        i = slot[cls[pos]]
        pos, i = pos[i >= 0], i[i >= 0]
        B = _decode(pos, n * n, q).reshape(-1, n, n)
        K = np.zeros((C, len(S), C), dtype=np.int32)
        for t, g in enumerate(self.reps):
            # digits of B g_t by elementwise column products, which measured
            # faster here than a stacked int64 matmul
            enc = 0
            for r in range(n):
                for j in range(n):
                    entry = B[:, r, 0] * g[0, j]
                    for k in range(1, n):
                        entry += B[:, r, k] * g[k, j]
                    enc = enc * q + entry % q
            pair = i * C + cls[enc]
            K[t] = np.bincount(pair, minlength=len(S) * C).reshape(len(S), C)
        self._kernel = K
        return K


def _lines(count, q):
    """The number of lines through 0 of F_q^count, (q^count - 1) / (q - 1);
    more than the sweep budget are refused."""
    m = (q ** count - 1) // (q - 1)
    _refuse_over_budget(m, "%d lines at q = %d", m, q)
    return m


def _line_blocks(count, q, block):
    """One string of count base-q digits per line through 0 of F_q^count,
    as a lazy sequence of consecutive int64 arrays of at most block rows:
    the (q^count - 1) / (q - 1) strings whose first nonzero digit is 1, in
    increasing order.  Those with k digits after the 1 are the codes q^k,
    ..., 2 q^k - 1, and they follow the first (q^k - 1) / (q - 1) lines.
    More lines than the sweep budget are refused on the call, before any
    block is made."""
    m = _lines(count, q)
    power = q ** np.arange(count)
    first = (power - 1) // (q - 1)
    return (_decode(i + (power - first)[np.searchsorted(first, i, "right") - 1],
                    count, q)
            for lo in range(0, m, block)
            for i in [np.arange(lo, min(lo + block, m), dtype=np.int64)])


def _digits(count, q):
    """Every string of count base-q digits, in increasing order, as one
    (q^count, count) int64 array; reshaped to (-1, n, n) at count = n^2 it
    lists every n x n matrix in encode order.  More strings than the sweep
    budget are refused before any is made."""
    m = q ** count
    _refuse_over_budget(m, "%d digit strings at q = %d", m, q)
    return _decode(np.arange(m, dtype=np.int64), count, q)


def _decode(codes, count, q):
    """The count base-q digits of each code, most significant first, as a
    (len(codes), count) array; the inverse of encode at count = n^2."""
    return codes[:, None] // q ** np.arange(count - 1, -1, -1) % q


def _class_key(A, q):
    "2 * (charpoly below the leading 1, read base q) + is-scalar, per matrix."
    n = A.shape[-1]
    scalar = np.all(A == A[..., :1, :1] * np.eye(n, dtype=np.int64),
                    axis=(-2, -1))
    return 2 * (charpoly_mod(A, q)[..., :n] @ q ** np.arange(n)) + scalar


_TABLES = {}


def class_table(n, field):
    "Cached class table for (n, q)."
    key = (n, field.q)
    table = _TABLES.get(key)
    if table is None:
        table = ClassTable(n, field)
        _TABLES[key] = table
    return table


@dataclass(frozen=True, slots=True)
class ClassFunction:
    """Integer-valued class function on a fixed class table; equal when the
    table is the same object and the values agree."""

    table: "ClassTable"
    values: tuple

    def __post_init__(self):
        values = tuple(int(v) for v in self.values)
        if len(values) != self.table.class_count():
            raise ValueError("value count does not match the class count")
        object.__setattr__(self, "values", values)

    def support(self):
        return tuple(i for i, v in enumerate(self.values) if v)

    def group_sum(self):
        "Sum over all group elements (class sizes times values)."
        return sum(s * v for s, v in zip(self.table.sizes, self.values))


# -- the class function F: closed formula and brute force ----------------

def _cross_block_exponent(lam):
    "sum over block sizes i < j of i * m_i * m_j."
    mult = sorted(multiplicities(lam).items())
    return sum(i * m * n for a, (i, m) in enumerate(mult)
               for _, n in mult[a + 1:])


def f_closed(label, field):
    """F on a class from its closed formula, as an int at q: 0 off the
    symmetric labels, else a product over the support.  A dual pair (f, f*)
    gives the centralizer order at q^deg f.  A self-dual f gives q^(deg f *
    _cross_block_exponent(lam)) and, per block of size i and multiplicity
    m: at the linear f (root +-1), with h = ceil(m / 2), q^((i m^2 + m (i
    mod 2)) / 2 - h^2) prod_{j<=h} (q^(2j-1) - 1), or 0 at even i and odd m;
    at f of degree 2s (no self-dual f has odd degree above 1),
    q^(s i m^2 - s m(m+1)/2) prod_{j<=m} (q^(sj) + (-1)^j)."""
    q = field.q
    if inverse_label(label, field) != label:
        return 0
    value = 1
    for f, lam in label:
        fs, d_f = poly_star(f, field), len(f) - 1
        if f != fs:
            # the pair (f, f*) counts once, at its first member
            if f < fs:
                value *= centralizer_order(lam, q ** d_f)
            continue
        value *= q ** (d_f * _cross_block_exponent(lam))
        s = d_f // 2
        for i, m in multiplicities(lam).items():
            if d_f > 1:
                value *= q ** (s * i * m * m - s * m * (m + 1) // 2)
                for j in range(1, m + 1):
                    value *= q ** (s * j) + (-1) ** j
            elif i % 2 == 0 and m % 2:
                return 0
            else:
                h = (m + 1) // 2
                value *= q ** ((i * m * m + m * (i % 2)) // 2 - h * h)
                for j in range(1, h + 1):
                    value *= q ** (2 * j - 1) - 1
    return value


def class_fn_F_closed(table):
    "F from the closed case-by-case formula; 0 off the self-inverse classes."
    values = [0] * table.class_count()
    for c in table.self_inverse_classes().tolist():
        label = table.labels[c]
        v = f_closed(label, table.field)
        if type(v) is not int or v < 0:
            raise ExactnessError("F on %r is %s, not a count" % (label, v))
        values[c] = v
    return ClassFunction(table, values)


def _fixed_counts(table, units, image, rows):
    """The number of invertible points in the fixed subspace of each class
    in rows, listed over every class of the table (0 off rows).

    units is a (p, n, n) stack spanning the unknowns B, and image(A, B) the
    linear conditions on B, broadcast over stacks: one numpy expression
    gives those of every unit under every representative, and one
    _nullspace_mod per class its fixed subspace, of dimension d, in reduced
    row-echelon form, so equal subspaces share one sweep.  As det(l B) =
    l^n det(B), a subspace is swept at one point on each of its lines, and
    each hit counts q - 1 points.  The subspaces are grouped by d (d = 0
    counts 0), and each group's (q^d - 1) / (q - 1) lines are enumerated
    once for all of them, at most _F_BLOCK points per pass, so memory stays
    flat in q^d.  The identity, whose fixed subspace is the largest for F
    and N, is eliminated first, and a group over the sweep budget is
    refused (_lines) when it is first met, before any other elimination.
    """
    n, q = table.n, table.q
    one = table.scalar_class_index(1)
    rows = sorted(rows, key=lambda c: c != one)
    flat = units.reshape(len(units), -1)
    groups = {}
    for c, M in zip(rows, image(table.reps[rows, None], units)):
        span = _nullspace_mod(M.reshape(len(units), -1).T, q) @ flat
        if len(span) not in groups:
            _lines(len(span), q)
            groups[len(span)] = {}
        groups[len(span)].setdefault(span.tobytes(), (span, []))[1].append(c)
    passes = [(group, _line_blocks(d, q, max(1, _F_BLOCK // len(group))))
              for d, group in groups.items() if d]
    counts = [0] * table.class_count()
    for group, blocks in passes:
        spans = np.stack([span for span, _ in group.values()])
        for digits in blocks:
            # every subspace's points of this pass, one n x n matrix each
            B = digits @ spans
            B %= q
            hits = np.count_nonzero(_det(B.reshape(len(spans), -1, n, n), q),
                                    axis=1)
            for (_, classes), h in zip(group.values(), hits.tolist()):
                for c in classes:
                    counts[c] += h * (q - 1)
    return counts


def class_fn_F_brute(table):
    """F by brute force: count the invertible symmetric B with A B A^T = B.

    The unknowns are the n(n+1)/2 symmetric coordinates of B, and A B A^T - B
    is symmetric, so its upper triangle is every condition.  The identity
    fixes every symmetric form, so F is refused exactly where a sweep of
    every symmetric matrix would be.
    """
    n = table.n
    i, j = np.triu_indices(n)
    E = np.eye(n * n, dtype=np.int64).reshape(-1, n, n)
    return ClassFunction(table, _fixed_counts(
        table, E[i * n + j] | E[j * n + i],
        lambda A, B: (A @ B @ np.swapaxes(A, -1, -2) - B)[..., i, j],
        range(table.class_count())))


def class_fn_N(table):
    """N(A) counts the B with B B^-T = A, that is B = A B^T: the invertible
    points of the kernel of B -> B - A B^T, counted by _fixed_counts with no
    group sweep, on the determinant-1 classes only, as det(B B^-T) = 1."""
    n = table.n
    return ClassFunction(table, _fixed_counts(
        table, np.eye(n * n, dtype=np.int64).reshape(-1, n, n),
        lambda A, B: B - A @ np.swapaxes(B, -1, -2),
        [c for c, det in enumerate(table.dets) if det == 1]))


# -- convolution ---------------------------------------------------------

_INT64_MAX = 2 ** 63 - 1


def convolve(phi, psi, table):
    """Full convolution of two class functions through the kernel.

    Class functions commute under convolution, so a is the factor that
    vanishes off the self-inverse classes S (the smaller in absolute value
    if both do) and b the other: W[t, c2] = sum_i a(S_i) K[t, i, c2] in
    int64, where |W| <= max|a| |G| is checked first, then W is dotted with
    b's Python ints.
    """
    if phi.table is not table or psi.table is not table:
        raise ValueError("class functions live on a different table")
    S = table.self_inverse_classes()
    on_S = set(S.tolist())
    candidates = [f for f in (phi, psi) if on_S.issuperset(f.support())]
    if not candidates:
        raise KernelMissing("neither factor vanishes off the self-inverse "
                            "classes")
    a = min(candidates, key=lambda f: max(map(abs, f.values)))
    b = psi if a is phi else phi
    top = max(map(abs, a.values))
    if top * table.group_order > _INT64_MAX:
        raise ExactnessError("kernel step out of int64 range: max |value| "
                             "%d on a group of order %d"
                             % (top, table.group_order))
    a_S = np.array(a.values, dtype=np.int64)[S]
    # einsum contracts the int32 kernel without an int64 copy of it
    W = np.einsum("i,tic->tc", a_S, table.kernel())
    return ClassFunction(table, W.astype(object) @ np.array(b.values,
                                                            dtype=object))


def convolve_at(phi, psi, table, target):
    "(phi * psi)(representative of target), read off the full convolution."
    return convolve(phi, psi, table).values[target]


def class_fn_atom(table, atom):
    """The class function of a count atom, built once per table: F, its
    determinant 1 and -1 parts F+ and F-, or N."""
    if atom not in table._atoms:
        if atom == "F":
            table._atoms["F"] = class_fn_F_closed(table)
        elif atom == "N":
            table._atoms["N"] = class_fn_N(table)
        elif atom in ("F+", "F-"):
            det = 1 if atom == "F+" else table.q - 1
            F = class_fn_atom(table, "F").values
            table._atoms[atom] = ClassFunction(
                table, [v if d == det else 0 for v, d in zip(F, table.dets)])
        else:
            raise ValueError("unknown count atom %r" % (atom,))
    return table._atoms[atom]


# -- counting the representation variety ---------------------------------

def _has_order(x, order, q):
    """Whether x has multiplicative order exactly `order` mod q: x^order = 1
    and x^(order/p) != 1 for each prime p dividing order."""
    return pow(x, order, q) == 1 and all(
        pow(x, order // p, q) != 1 for p in range(2, order + 1)
        if order % p == 0 and _is_prime(p))


@lru_cache(maxsize=None)
def primitive_roots_of_unity(field, order):
    """Elements of F_q* of multiplicative order exactly `order`, sorted, by
    _has_order: one or two pow calls per element; cached per (field,
    order)."""
    return tuple(x for x in range(1, field.q)
                 if _has_order(x, order, field.q))


def count_representation_variety(n, field, surf, xi, k=None):
    """Exact count of the rank-n representation variety over F_q.

    Evaluates the convolution of r copies of F (for the component k: k of
    F-, the determinant -1 part, and r - k of F+) and g - r + 1 copies of N
    at xi I, for xi a primitive 2n-th root of unity.  At n <= 2 this is the
    character sum of characters.count; at n = 3 it is the one atom's value
    at xi I, or the class sum of two over the classes where the first is
    nonzero.  A bad k, a rank-3 count of more atoms (KernelMissing), a
    character sum or a table over the budget and then a xi of another order
    (NoPrimitiveRoot) are refused, from n, q and surf alone, before any
    search or table.
    """
    epoly.check_component(k, surf)
    atoms = (("F",) * surf.r if k is None
             else ("F-",) * k + ("F+",) * (surf.r - k))
    atoms = tuple(sorted(atoms + ("N",) * surf.s))
    if n == 3 and len(atoms) > 2:
        raise KernelMissing("a rank-3 count takes at most two atoms, not %d"
                            % len(atoms))
    if n <= 2:
        from . import characters
        characters.check_budget(n, field.q)
    _check_class_count(n, field.q)
    if not _has_order(xi % field.q, 2 * n, field.q):
        raise NoPrimitiveRoot("xi = %d is not a primitive %dth root mod %d"
                              % (xi, 2 * n, field.q))
    table = class_table(n, field)
    xi %= field.q
    if n <= 2:
        return characters.count(table, atoms, xi)
    last = class_fn_atom(table, atoms[-1]).values
    if len(atoms) == 1:
        return last[table.scalar_class_index(xi)]
    first = class_fn_atom(table, atoms[0])
    total = 0
    for c in first.support():
        # xi c^-1 has the label of c^-1 with every root times xi
        inverse = inverse_label(table.labels[c], field)
        label = tuple(sorted((poly_scale_roots(f, xi, field.q), lam)
                             for f, lam in inverse))
        total += table.sizes[c] * first.values[c] * last[table.index[label]]
    return total


def formula_count(n, field, surf, k=None, convention=epoly.MATCHED):
    "|GL_n(F_q)| times the closed-form E-polynomial at q, as an exact int."
    q = field.q
    poly = (epoly.e_poly_component(n, surf, k, convention)
            if k is not None else epoly.e_poly(n, surf, convention))
    return group_order(n, q) * poly.evaluate(q)


def compare_with_formula(n, field, surf, k=None, convention=epoly.MATCHED,
                         xi=None):
    """Count points of the variety, or of its component k, and compare
    against the closed formula.

    Returns a report dict; the equality flag is computed, never assumed.
    Both sides refuse a bad k through epoly.check_component before any
    class table is built.
    """
    formula = formula_count(n, field, surf, k, convention)
    if xi is None:
        roots = primitive_roots_of_unity(field, 2 * n)
        if not roots:
            raise NoPrimitiveRoot("no primitive %dth root mod %d"
                                  % (2 * n, field.q))
        xi = roots[0]
    counted = count_representation_variety(n, field, surf, xi, k)
    return {
        "n": n,
        "q": field.q,
        "g": surf.g,
        "r": surf.r,
        "k": k,
        "xi": xi,
        "counted": counted,
        "formula": formula,
        "convention": convention,
        "equal": counted == formula,
    }
