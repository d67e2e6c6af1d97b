"""Reference routes of the finite-field oracle, read by verify and the
tests only: matrix polynomials and inverses mod q (Horner's rule and
Cayley-Hamilton), the group as arrays, labels by factoring the
characteristic polynomial and reading kernel ranks (classify), the
predicted degree of F, the convolution unit, and the commutator count C by
sweeping every pair of group elements."""

from functools import lru_cache

import numpy as np

from .algebra import ExactnessError
from .fforacle import (ClassFunction, GroupTooLarge, _decode,
                       _nullspace_mod, _stack, charpoly_mod, det_mod,
                       inverse_label)
from .partitions import conjugate, n_lambda, weight

_PAIR_BUDGET = 10_000_000      # pairs for the commutator brute force


class SingularMatrix(ValueError):
    "Only invertible matrices have a conjugacy label here."


def _encode(M, q):
    "Base-q digit string of the entries, row by row, of each matrix in a stack."
    n = M.shape[-1]
    return M.reshape(M.shape[:-2] + (n * n,)) @ q ** np.arange(n * n - 1, -1, -1)


def poly_eval(f, x, q):
    "f(x) mod q by Horner's rule; f is ascending coefficients."
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % q
    return acc


def poly_eval_matrix(f, A, q):
    """f(A) mod q by Horner's rule from f_d I, on a matrix or a stack; f is
    ascending coefficients, or an (..., d + 1) array with one row per
    matrix."""
    A = _stack(A)
    f = np.asarray(f, dtype=np.int64)
    eye = np.eye(A.shape[-1], dtype=np.int64)
    shape = np.broadcast_shapes(f.shape[:-1] + eye.shape, A.shape)
    acc = np.broadcast_to(f[..., -1, None, None] * eye % q, shape).copy()
    for k in range(f.shape[-1] - 2, -1, -1):
        acc = (acc @ A + f[..., k, None, None] * eye) % q
    return acc


@lru_cache(maxsize=None)
def _inverse_table(q):
    "inv[a] = a^-1 mod q for a != 0 (inv[0] = 0), read-only and shared."
    inv = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64)
    inv.flags.writeable = False
    return inv


def inverse_mod(A, q):
    """Inverse mod q of a matrix or of each matrix in a stack, by
    Cayley-Hamilton: for the characteristic polynomial t^n + ... + c_1 t +
    c_0, A^-1 = -c_0^-1 (A^(n-1) + ... + c_1).  Raises SingularMatrix if any
    matrix is singular (c_0 = 0)."""
    c = charpoly_mod(A, q)
    if np.any(c[..., 0] == 0):
        raise SingularMatrix("matrix is not invertible")
    scale = -_inverse_table(q)[c[..., 0]] % q
    return poly_eval_matrix(c[..., 1:], A, q) * scale[..., None, None] % q


def group_arrays(table):
    """(elements, inverses) of GL_n(F_q) as (m, n, n) int64 arrays, in
    _encode order; n <= 2: the element lookup's classified positions,
    decoded, built afresh for the reference sweeps."""
    n, q = table.n, table.q
    E = _decode(np.flatnonzero(table.element_class_array() >= 0), n * n,
                q).reshape(-1, n, n)
    return E, inverse_mod(E, q)


def poly_div_exact(f, g, q):
    "Divide monic f by monic g; remainder must vanish."
    rem = list(f)
    out = [0] * (len(f) - len(g) + 1)
    for i in range(len(f) - len(g), -1, -1):
        c = rem[i + len(g) - 1] % q
        out[i] = c
        if c:
            for j, b in enumerate(g):
                rem[i + j] = (rem[i + j] - c * b) % q
    if any(x % q for x in rem[:len(g) - 1]):
        raise ExactnessError("%r does not divide %r mod %d" % (g, f, q))
    return tuple(out)


def factor_monic(f, field):
    "Factor a monic polynomial of degree <= 3 with nonzero constant term."
    q = field.q
    factors = {}
    rest = f
    for a in range(1, q):
        lin = ((-a) % q, 1)
        while len(rest) > 1 and poly_eval(rest, a, q) == 0:
            factors[lin] = factors.get(lin, 0) + 1
            rest = poly_div_exact(rest, lin, q)
    if len(rest) > 1:
        # no roots left: degree 2 or 3 remainder is irreducible
        factors[rest] = factors.get(rest, 0) + 1
    return factors


def kernel_dim(M, q):
    "Dimension of the kernel mod q: the size of a _nullspace_mod basis."
    return len(_nullspace_mod(M, q))


def classify(A, table):
    """Conjugacy label of an invertible matrix: factor the characteristic
    polynomial, then recover each partition from kernel ranks of f(A)^j."""
    q = table.q
    if det_mod(A, q) == 0:
        raise SingularMatrix("matrix is not invertible")
    label = []
    charpoly = tuple(charpoly_mod(A, q).tolist())
    for f, e in factor_monic(charpoly, table.field).items():
        # e is the multiplicity of f in the charpoly, i.e. the weight of mu(f)
        d = len(f) - 1
        if e == 1:
            label.append((f, (1,)))
            continue
        M = poly_eval_matrix(f, A, q)
        prev = 0
        col_counts = []
        P = np.eye(len(A), dtype=np.int64)
        total = 0
        while total < e:
            P = P @ M % q
            k = kernel_dim(P, q)
            c = (k - prev) // d
            if c == 0:
                raise ExactnessError("rank profile stalled")
            col_counts.append(c)
            prev = k
            total += c
        lam = conjugate(tuple(col_counts))
        label.append((f, lam))
    label = tuple(sorted(label))
    if label not in table.index:
        raise ExactnessError("label %r missing from the table" % (label,))
    return label


def ell_odd(lam):
    "The number of odd parts of lam."
    return sum(1 for part in lam if part % 2 == 1)


def f_degree_prediction(label, field):
    "Predicted q-degree of F on a symmetric class (None off support)."
    if inverse_label(label, field) != label:
        return None
    twice = 0
    for f, lam in label:
        d_f = len(f) - 1
        if d_f == 1 and f[0] % field.q in (1, field.q - 1):
            twice += ell_odd(lam)
        twice += 2 * d_f * n_lambda(lam) + d_f * weight(lam)
    if twice % 2:
        raise ExactnessError("odd doubled degree %d for %r" % (twice, label))
    return twice // 2


def delta_identity(table):
    "The convolution unit: indicator of the identity class."
    values = [0] * table.class_count()
    values[table.scalar_class_index(1)] = 1
    return ClassFunction(table, values)


def _per_element(hits, table):
    "Per-class hit totals of a group sweep to the per-element class function."
    values = []
    for h, size in zip(hits, table.sizes):
        if h % size:
            raise ExactnessError("%d sweep hits on a class of size %d"
                                 % (h, size))
        values.append(h // size)
    return ClassFunction(table, values)


def class_fn_C_brute(table):
    "C by sweeping all commutator pairs (X, Y); feasible for tiny groups."
    if table.n != 2:
        raise GroupTooLarge("commutator brute force is for n = 2")
    if table.group_order ** 2 > _PAIR_BUDGET:
        raise GroupTooLarge("too many pairs at q = %d" % table.q)
    q = table.q
    E, Einv = group_arrays(table)
    cls = table.element_class_array()
    hits = np.zeros(table.class_count(), dtype=np.int64)
    for X, Xinv in zip(E, Einv):
        # X Y X^-1 Y^-1 for every Y at once
        comm = (X @ E % q) @ (Xinv @ Einv % q) % q
        hits += np.bincount(cls[_encode(comm, q)], minlength=len(hits))
    return _per_element(hits.tolist(), table)
