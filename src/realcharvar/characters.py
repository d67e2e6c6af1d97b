"""Point counts over GL_n(F_q), n <= 2, by a character sum mod p.

The irreducible characters chi of G diagonalize convolution of class
functions, chi * chi' = delta (|G| / chi(1)) chi, so k class functions
phi_1, ..., phi_k convolved and read at the central element xi I give

    sum_chi chi(xi I) (|G| / chi(1))^(k-1) prod_i <phi_i, chi>,

with <phi, chi> = |G|^-1 sum_c |c| phi(c) chi(c^-1): the Frobenius-type sum
of Hausel and Rodriguez-Villegas (Invent. Math. 174, 2008).  The atoms F,
F+, F- and N vanish off the self-inverse classes, where chi(c^-1) = chi(c),
so the sum reads the characters on those classes and on xi I only; it needs
no element lookup, no kernel and no convolution.  Every twisted
Frobenius-Schur indicator of GL_n(F_q) is 1 (Gow, Proc. LMS 47, 1983), so
<N, chi> = 1 and an N atom enters through k alone.

The table is generic in q (Fulton and Harris, Representation Theory, 5.2).
With zeta a generator of F_q[s]/(s^2 - eps), eps a non-residue, every
eigenvalue is a power of zeta, and a class carries the zeta-logs (e1, e2) of
its two eigenvalues (e2 = 0 at n = 1).  A character is a family and a pair
(a, b), and its value on a class of type t is

    cA omega^(a e1 + b e2) + cB omega^(b e1 + a e2),

with (cA, cB) read from _coefficients by family and type and omega of order
q^2 - 1.  These are sums of (q^2 - 1)-th roots of unity, so the sum is taken
in F_p for primes p = 1 mod (q^2 - 1), where omega is an element of that
order, and the count is recovered by the Chinese remainder theorem: it lies
in [0, B], B = prod_{i<k} group_sum(phi_i) max(phi_k), so primes are taken
until their product exceeds B, and one more prime must agree.  At each prime
the identity column must equal chi(1) and <N, chi> must be 1 for every chi.
"""

from math import isqrt

import numpy as np

from . import fforacle
from .algebra import ExactnessError

# class types, the column index of _coefficients
SCALAR, UNIPOTENT, SPLIT, ELLIPTIC = range(4)


def _coefficients(q):
    """(cA, cB) per family (alpha o det, Steinberg twist, principal series,
    cuspidal) and class type; the scalar cA is the degree."""
    return np.array([
        # scalar     unipotent  split    elliptic
        [[1, 0],     [1, 0],    [1, 0],  [1, 0]],
        [[q, 0],     [0, 0],    [1, 0],  [-1, 0]],
        [[q + 1, 0], [1, 0],    [1, 1],  [0, 0]],
        [[q - 1, 0], [-1, 0],   [0, 0],  [-1, -1]],
    ], dtype=np.int64)


def _characters(n, q):
    """(family, a, b) of every irreducible character.  alpha_i(x) =
    omega^(i log x), i < q - 1; at n = 2 the families are alpha o det (i, i),
    its Steinberg twist (i, i), the principal series of alpha_i != alpha_j
    (i, j) and the cuspidal characters of the pairs {j, q j} with q + 1 not
    dividing j (j, 0)."""
    r = range(q - 1)
    if n == 1:
        return [(0, i, 0) for i in r]
    m = q * q - 1
    return ([(0, i, i) for i in r] + [(1, i, i) for i in r]
            + [(2, i, j) for i in r for j in r if i < j]
            + [(3, j, 0) for j in range(1, m)
               if j % (q + 1) and j < j * q % m])


def _zeta_logs(q):
    """(log, eps): eps the least non-residue, and log[u q + v] the zeta-log
    of u + v s in F_q[s]/(s^2 - eps), from one enumeration of the powers of
    the first a + s of order q^2 - 1."""
    eps = next(e for e in range(2, q) if pow(e, (q - 1) // 2, q) == q - 1)
    m = q * q - 1
    for a in range(q):
        log = [-1] * (q * q)
        u, v = 1, 0
        for e in range(m):
            if log[u * q + v] >= 0:
                break                   # back at 1 early: a + s has order e
            log[u * q + v] = e
            u, v = (a * u + eps * v) % q, (u + a * v) % q
        else:
            return np.array(log, dtype=np.int64), eps
    raise ExactnessError("no a + s generates F_%d^2*" % q)


def _class_logs(table):
    "(type, e1, e2) of every class of the table, as int64 arrays."
    q = table.q
    log, eps = _zeta_logs(q)
    # the log of a root of t^2 - tr t + nm, irreducible, at tr q + nm
    u, v = np.divmod(np.arange(q * q), q)
    root = np.full(q * q, -1, dtype=np.int64)
    off = v != 0
    root[((2 * u % q) * q + (u * u - eps * v * v) % q)[off]] = log[off]
    out = []
    for label in table.labels:
        (f, lam), *rest = label
        if len(f) == 3:
            z = root[(-f[1] % q) * q + f[0]]
            out.append((ELLIPTIC, z, z * q % (q * q - 1)))
            continue
        x = log[(-f[0] % q) * q]
        if rest:
            out.append((SPLIT, x, log[(-rest[0][0][0] % q) * q]))
        elif table.n == 1:
            out.append((SCALAR, x, 0))
        else:
            out.append((UNIPOTENT if lam == (2,) else SCALAR, x, x))
    return np.array(out, dtype=np.int64).T


def _refuse_beyond_budget(characters, classes, q):
    "GroupTooLarge when characters on classes are more values than the budget."
    if characters * classes > fforacle._GROUP_BUDGET:
        raise fforacle.GroupTooLarge(
            "%d characters on %d classes at q = %d exceed the budget"
            % (characters, classes, q))


def check_budget(n, q):
    """Refuse (GroupTooLarge), from n <= 2 and odd q alone, a character sum
    over the budget: GL_1(F_q) has q - 1 characters on 2 self-inverse
    classes, GL_2(F_q) q^2 - 1 on q + 3 (four with one eigenvalue +-1,
    (q - 1)/2 split classes {a, 1/a}, (q - 1)/2 elliptic ones of norm 1)."""
    _refuse_beyond_budget(*((q - 1, 2) if n == 1 else (q * q - 1, q + 3)), q)


class CharacterTable:
    """The irreducible characters of one class table (n <= 2), on demand
    mod primes p = 1 mod q^2 - 1, with the gated residues of each prime."""

    def __init__(self, table):
        if table.n > 2:
            raise fforacle.UnsupportedRank("character tables for n <= 2 only")
        q = table.q
        self.table = table
        self.m = q * q - 1
        self.family, self.a, self.b = np.array(
            _characters(table.n, q), dtype=np.int64).T
        self.coef = _coefficients(q)
        self.degree = self.coef[self.family, SCALAR, 0]
        if sum(d * d for d in self.degree.tolist()) != table.group_order:
            raise ExactnessError("the squared degrees do not sum to |G| at "
                                 "q = %d" % q)
        self.kind, self.e1, self.e2 = _class_logs(table)
        self.self_inverse = table.self_inverse_classes()
        self._primes = []
        self._residues = {}
        self._group_sums = {}
        self._bounds = {}

    def primes(self):
        """The primes p = 1 mod q^2 - 1, descending from the largest below
        2^31 at which a dot product over the self-inverse classes of values
        below p stays in int64; found once per table."""
        yield from self._primes
        if self._primes:
            p = self._primes[-1]
        else:
            top = min(2 ** 31 - 1, isqrt(fforacle._INT64_MAX
                                         // len(self.self_inverse)) + 1)
            p = top - (top - 1) % self.m + self.m
        while True:
            p -= self.m
            if p <= self.m:
                raise ExactnessError("ran out of primes 1 mod %d" % self.m)
            if fforacle._is_prime(p):
                self._primes.append(p)
                yield p

    def omega_powers(self, p):
        """omega^e mod p for e < q^2 - 1, omega the first c^((p-1)/m), c >= 2,
        whose powers reach 1 only at e = m."""
        for c in range(2, p):
            omega = pow(c, (p - 1) // self.m, p)
            powers, x = [1], omega
            while x != 1:
                powers.append(x)
                x = x * omega % p
            if len(powers) == self.m:
                return np.array(powers, dtype=np.int64)
        raise ExactnessError("no element of order %d mod %d" % (self.m, p))

    def values(self, cols, p, powers):
        """chi(c) mod p for every character (rows) and every class index c in
        cols (columns), as an int64 array, from powers = omega_powers(p);
        refused beyond the sweep budget."""
        cols = np.asarray(cols, dtype=np.intp)
        _refuse_beyond_budget(len(self.a), len(cols), self.table.q)
        a, b = self.a[:, None], self.b[:, None]
        e1, e2 = self.e1[cols], self.e2[cols]
        coef = self.coef[self.family[:, None], self.kind[cols]] % p
        return (coef[..., 0] * powers[(a * e1 + b * e2) % self.m]
                + coef[..., 1] * powers[(b * e1 + a * e2) % self.m]) % p

    def group_sum(self, atom):
        "The group sum of an atom's class function, taken once."
        if atom not in self._group_sums:
            self._group_sums[atom] = fforacle.class_fn_atom(
                self.table, atom).group_sum()
        return self._group_sums[atom]

    def bound(self, atoms):
        """B = prod_{i<k} group_sum(phi_i) max(phi_k), which bounds the count
        of the atoms, taken once per atom tuple."""
        if atoms not in self._bounds:
            bound = max(fforacle.class_fn_atom(self.table, atoms[-1]).values)
            for atom in atoms[:-1]:
                bound *= self.group_sum(atom)
            self._bounds[atoms] = bound
        return self._bounds[atoms]

    def residues(self, p):
        "The gated residues at p, built once."
        if p not in self._residues:
            self._residues[p] = _Residues(self, p)
        return self._residues[p]


class _Residues:
    """What the character sum reads at one prime p: the characters on the
    self-inverse classes and on each target, |G| / chi(1), <phi, chi> per
    atom, and per atom tuple the weight (|G| / chi(1))^(k-1) prod_i
    <phi_i, chi> of each chi.  Raises ExactnessError unless the identity
    column is chi(1) and <N, chi> = 1 for every chi."""

    def __init__(self, chars, p):
        table = chars.table
        self.chars, self.p = chars, p
        self.powers = chars.omega_powers(p)
        S = chars.self_inverse
        self.on_S = chars.values(S, p, self.powers)
        one = np.flatnonzero(S == table.scalar_class_index(1))
        if (self.on_S[:, one[0]] != chars.degree % p).any():
            raise ExactnessError("the identity column is not chi(1) at "
                                 "q = %d, p = %d" % (table.q, p))
        self.ratio = table.group_order // chars.degree % p
        self._inner = {}
        self._target = {}
        self._weights = {}
        if (self.inner("N") != 1).any():
            raise ExactnessError("<N, chi> != 1 at q = %d, p = %d"
                                 % (table.q, p))

    def inner(self, atom):
        "<atom, chi> mod p for every chi, from the atom's self-inverse values."
        if atom not in self._inner:
            table, p, S = self.chars.table, self.p, self.chars.self_inverse
            fn = fforacle.class_fn_atom(table, atom)
            if not set(fn.support()).issubset(S.tolist()):
                raise ExactnessError("%s lives off the self-inverse classes"
                                     % atom)
            if len(S) * (p - 1) ** 2 > fforacle._INT64_MAX:
                raise ExactnessError("a dot product of %d residues mod %d "
                                     "leaves int64" % (len(S), p))
            w = np.array([table.sizes[c] * fn.values[c] % p for c in S],
                         dtype=np.int64)
            self._inner[atom] = (self.on_S @ w % p
                                 * pow(table.group_order, -1, p) % p)
        return self._inner[atom]

    def count(self, atoms, xi):
        "The character sum of the atoms at xi I, mod p."
        p = self.p
        if xi not in self._target:
            at = [self.chars.table.scalar_class_index(xi)]
            self._target[xi] = self.chars.values(at, p, self.powers)[:, 0]
        if atoms not in self._weights:
            w = np.ones_like(self.ratio)
            for _ in atoms[1:]:
                w = w * self.ratio % p
            for atom in atoms:
                if atom != "N":
                    w = w * self.inner(atom) % p
            self._weights[atoms] = w
        return int((self._target[xi] * self._weights[atoms] % p).sum()) % p


def count(table, atoms, xi):
    """The convolution of the atoms at xi I on a class table with n <= 2, by
    the character sum mod primes and the Chinese remainder theorem."""
    if table._characters is None:
        table._characters = CharacterTable(table)
    chars = table._characters
    bound = chars.bound(atoms)
    value, modulus = 0, 1
    for p in chars.primes():
        residue = chars.residues(p).count(atoms, xi)
        if modulus > bound:
            if value > bound or value % p != residue:
                raise ExactnessError("the character sum at p = %d disagrees "
                                     "with the CRT value %d" % (p, value))
            return value
        value += modulus * ((residue - value) * pow(modulus, -1, p) % p)
        modulus *= p
