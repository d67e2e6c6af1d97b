import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest

from realcharvar import epoly, fforacle, ffreference, laurent
from realcharvar.laurent import ExactnessError, moebius
from realcharvar.epoly import (MATCHED, TRANSPOSED, EvenK, KOutOfRange,
                               SurfaceData)
from realcharvar.fforacle import (ClassFunction, ClassTable, GroupTooLarge,
                                  KernelMissing, NoPrimitiveRoot, PrimeField,
                                  UnsupportedRank, _digits, _nullspace_mod,
                                  charpoly_mod, class_fn_F_brute,
                                  class_fn_F_closed, class_fn_N,
                                  class_fn_atom, class_table,
                                  compare_with_formula, companion,
                                  convolve, convolve_at,
                                  count_representation_variety,
                                  det_mod, f_closed,
                                  formula_count, group_order, inverse_label,
                                  irreducibles, poly_star,
                                  primitive_roots_of_unity)
from realcharvar.ffreference import (SingularMatrix, _encode,
                                     _inverse_table, class_fn_C_brute,
                                     classify, delta_identity,
                                     f_degree_prediction, group_arrays,
                                     inverse_mod, kernel_dim,
                                     poly_eval, poly_eval_matrix)

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(2)
    assert F5.inv(2) == 3


def test_is_prime_matches_trial_division():
    def trial(m):
        return m >= 2 and all(m % d for d in range(2, int(m ** 0.5) + 1))

    assert [m for m in range(-2, 20000) if fforacle._is_prime(m)] == [
        m for m in range(-2, 20000) if trial(m)]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 13
    for m in (3215031751, 3474749660383, 341550071728321):
        assert not fforacle._is_prime(m)
    assert fforacle._is_prime(2 ** 31 - 1) and fforacle._is_prime(2 ** 61 - 1)


def test_matrix_helpers():
    A = ((1, 2), (0, 1))
    assert det_mod(A, 5) == 1
    Ai = inverse_mod(A, 5)
    assert (np.array(A) @ Ai % 5 == np.eye(2)).all()
    with pytest.raises(SingularMatrix):
        inverse_mod(((1, 1), (1, 1)), 5)
    B = ((1, 2, 0), (0, 1, 3), (1, 0, 2))
    assert det_mod(B, 7) == 1
    Bi = inverse_mod(B, 7)
    assert (np.array(B) @ Bi % 7 == np.eye(3)).all()


def test_poly_star():
    # roots of t - 2 invert to roots of t - 2^(-1)
    q = 5
    f = ((-2) % q, 1)
    fs = poly_star(f, F5)
    assert fs == ((-3) % q, 1)  # 2^(-1) = 3 mod 5
    # an irreducible quadratic fixed by star: t^2 + 1 over F_3
    assert poly_star((1, 0, 1), F3) == (1, 0, 1)


def test_inverse_label_is_the_class_of_the_inverse():
    for q in (3, 5, 7, 11, 13, 17):
        for n in (1, 2):
            table = class_table(n, PrimeField(q))
            inv = table.element_class_array()[
                _encode(inverse_mod(table.reps, q), q)]
            assert [table.index[inverse_label(lab, table.field)]
                    for lab in table.labels] == inv.tolist(), (n, q)
    for field in (F3, F5):
        table = class_table(3, field)
        for lab, rep in zip(table.labels, table.reps):
            assert inverse_label(lab, field) == classify(
                inverse_mod(rep, field.q), table)


def test_class_counts():
    assert class_table(1, F3).class_count() == 2
    assert class_table(2, F3).class_count() == 8
    t25 = class_table(2, F5)
    assert sum(t25.sizes) == 480
    assert t25.class_count() == 24
    with pytest.raises(UnsupportedRank):
        class_table(4, F3)


def test_class_equation():
    for q, field in ((3, F3), (5, F5), (7, F7)):
        for n in (1, 2, 3):
            table = class_table(n, field)
            assert sum(table.sizes) == group_order(n, q)


def test_classify_examples():
    t23 = class_table(2, F3)
    assert classify(np.eye(2, dtype=np.int64), t23) == (((2, 1), (1, 1)),)
    # companion matrix of an irreducible quadratic: regular semisimple
    comp = companion((1, 0, 1), 3)
    assert classify(comp, t23) == (((1, 0, 1), (1,)),)
    # a nontrivial unipotent Jordan block
    assert classify(((1, 1), (0, 1)), t23) == (((2, 1), (2,)),)
    with pytest.raises(SingularMatrix):
        classify(((1, 1), (1, 1)), t23)


def test_classify_roundtrip():
    for field in (F3, F5, F7):
        for n in (1, 2, 3):
            table = class_table(n, field)
            assert table.reps.shape == (table.class_count(), n, n)
            assert table.reps.dtype == np.int64
            for i, rep in enumerate(table.reps):
                assert table.index[classify(rep, table)] == i


def test_F_closed_equals_brute():
    for field in (F3, F5):
        for n in (1, 2, 3):
            table = class_table(n, field)
            closed = class_fn_F_closed(table)
            brute = class_fn_F_brute(table)
            assert closed == brute, (n, field.q)
            assert closed.group_sum() == 2 * table.group_order


def _symmetric_invertible_matrices(n, q):
    "All invertible symmetric n x n matrices over F_q as an (m, n, n) array."
    rows, cols = np.triu_indices(n)
    upper = _digits(len(rows), q)
    S = np.zeros((len(upper), n, n), dtype=np.int64)
    S[:, rows, cols] = upper
    S[:, cols, rows] = upper
    return S[det_mod(S, q) != 0]


def test_F_brute_equals_literal_sweep():
    # test every invertible symmetric S against every representative
    for field in (F3, F5):
        for n in (1, 2, 3):
            table = class_table(n, field)
            q = field.q
            sym = _symmetric_invertible_matrices(n, q)
            literal = [int(np.all(A @ sym @ A.T % q == sym, axis=(1, 2)).sum())
                       for A in table.reps]
            assert class_fn_F_brute(table).values == tuple(literal), (n, q)


def test_F_closed_equals_brute_at_gl3_f7():
    table = class_table(3, F7)
    closed = class_fn_F_closed(table)
    assert class_fn_F_brute(table) == closed
    assert closed.group_sum() == 2 * table.group_order


def test_digits_list_every_string_once_in_order(monkeypatch):
    # all 3^4 = 81 strings, in increasing order
    assert np.array_equal(_digits(4, 3),
                          np.array(list(product(range(3), repeat=4))))
    monkeypatch.setattr(fforacle, "_decode", _refused)
    monkeypatch.setattr(fforacle, "_GROUP_BUDGET", 80)
    with pytest.raises(GroupTooLarge, match="81 digit strings at q = 3"):
        _digits(4, 3)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_line_blocks_list_one_string_per_line(q):
    for d in range(1, 5):
        lines = (q ** d - 1) // (q - 1)
        for block in (1, 4, 10, 1 << 10):
            blocks = list(fforacle._line_blocks(d, q, block))
            assert all(0 < len(b) <= block for b in blocks)
            rows = np.concatenate(blocks)
            assert rows.shape == (lines, d), (d, block)
            # the first nonzero digit of every row is 1
            lead = (rows != 0).argmax(axis=1)
            assert (rows[np.arange(lines), lead] == 1).all()
            # no two rows are proportional: their q - 1 multiples are
            # every nonzero string, once each
            multiples = {tuple(v) for v in
                         (np.arange(1, q)[:, None, None] * rows % q)
                         .reshape(-1, d).tolist()}
            assert len(multiples) == q ** d - 1
            # in increasing order
            assert (np.diff(rows @ q ** np.arange(d - 1, -1, -1)) > 0).all()


def test_line_blocks_refuse_before_any_block(monkeypatch):
    monkeypatch.setattr(fforacle, "_decode", _refused)
    # GL_3(F_17): 1,508,598 lines of the 17^6 symmetric forms are admitted,
    # GL_3(F_19): 2,613,660 are not
    fforacle._line_blocks(6, 17, 1 << 10)
    with pytest.raises(GroupTooLarge, match="2613660 lines at q = 19"):
        fforacle._line_blocks(6, 19, 1 << 10)
    monkeypatch.setattr(fforacle, "_GROUP_BUDGET", 12)
    fforacle._line_blocks(2, 11, 4)
    with pytest.raises(GroupTooLarge, match="13 lines at q = 3"):
        fforacle._line_blocks(3, 3, 4)


@pytest.mark.parametrize("class_fn,q", [(class_fn_F_brute, 5),
                                        (class_fn_N, 3)])
def test_fixed_counts_sweep_each_distinct_subspace_once(monkeypatch,
                                                        class_fn, q):
    # the rows that reach _det are the (q^d - 1) / (q - 1) lines of each
    # distinct fixed subspace, found here by testing every point
    table = class_table(3, PrimeField(q))
    if class_fn is class_fn_F_brute:
        i, j = np.triu_indices(3)
        B = np.zeros((q ** 6, 3, 3), dtype=np.int64)
        B[:, i, j] = B[:, j, i] = _digits(6, q)
        rows = range(table.class_count())
        masks = {c: ((A @ B @ A.T - B) % q == 0).all(axis=(1, 2))
                 for c, A in enumerate(table.reps)}
    else:
        B = _digits(9, q).reshape(-1, 3, 3)
        rows = [c for c, det in enumerate(table.dets) if det == 1]
        masks = {c: ((B - A @ np.swapaxes(B, 1, 2)) % q == 0).all(axis=(1, 2))
                 for c, A in enumerate(table.reps) if c in rows}
    distinct = {masks[c].tobytes(): masks[c] for c in rows}
    # plus and minus the identity fix the same subspace
    assert len(distinct) < len(rows)
    want = sum((int(mask.sum()) - 1) // (q - 1) for mask in distinct.values())
    seen = []
    det = fforacle._det

    def spy(A, q):
        seen.append(int(np.prod(A.shape[:-2])))
        return det(A, q)

    monkeypatch.setattr(fforacle, "_det", spy)
    values = class_fn(table).values
    assert sum(seen) == want
    # and each count is the invertible points of the class's subspace
    invertible = det(B, q) != 0
    assert values == tuple(int((masks[c] & invertible).sum()) if c in masks
                           else 0 for c in range(table.class_count()))


def _python_det3(M, q):
    "The 3 x 3 determinant mod q by the rule of Sarrus, on nested lists."
    (a, b, c), (d, e, f), (g, h, i) = M
    return (a * e * i + b * f * g + c * d * h
            - c * e * g - b * d * i - a * f * h) % q


def test_F_brute_equals_a_plain_python_count_at_gl3_f3():
    # every one of the 3^6 symmetric B, in plain Python ints with no numpy
    # and no helper of the module: count the invertible B with A B A^T = B
    q = 3
    table = class_table(3, F3)
    forms = []
    for a, b, c, d, e, f in product(range(q), repeat=6):
        B = [[a, b, c], [b, d, e], [c, e, f]]
        if _python_det3(B, q):
            forms.append(B)
    want = []
    for A in table.reps.tolist():
        count = 0
        for B in forms:
            AB = [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
                  for i in range(3)]
            if all(sum(AB[i][k] * A[j][k] for k in range(3)) % q == B[i][j]
                   for i in range(3) for j in range(3)):
                count += 1
        want.append(count)
    assert class_fn_F_brute(table).values == tuple(want)


@pytest.mark.parametrize("class_fn", [class_fn_F_brute, class_fn_N])
@pytest.mark.parametrize("block", [100, 7])
def test_fixed_counts_do_not_depend_on_the_block_size(monkeypatch, class_fn,
                                                      block):
    # the identity of GL_3(F_3) fixes 3^6 = 729 points, which passes of 100
    # or 7 split with a short last pass; at GL_2(F_7) the 15 classes of F and
    # the 8 of N with a one-dimensional fixed space outnumber a pass of 7
    # points, so each such pass takes one digit string for all of them
    shapes = []
    det = fforacle._det

    def spy(A, q):
        shapes.append(A.shape[:-2])
        return det(A, q)

    for table in (class_table(3, F3), class_table(2, F7)):
        whole = class_fn(table).values
        with monkeypatch.context() as m:
            m.setattr(fforacle, "_F_BLOCK", block)
            m.setattr(fforacle, "_det", spy)
            assert class_fn(table).values == whole
    assert all(classes * strings <= block or strings == 1
               for classes, strings in shapes)
    assert any(classes > block for classes, _ in shapes) == (block == 7)


def test_F_brute_memory_is_flat_in_the_fixed_space():
    # the identity of GL_3(F_7) fixes all 7^6 symmetric forms; they are
    # counted in blocks, so the peak stays far below one 7^6-row array
    table = class_table(3, F7)
    tracemalloc.start()
    try:
        class_fn_F_brute(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


@pytest.mark.parametrize("class_fn", [class_fn_F_brute, class_fn_N])
def test_fixed_counts_peak_below_one_megabyte_at_gl3_f7(class_fn):
    # a pass holds at most _F_BLOCK points over all the classes it counts,
    # and the conditions of every unit under every representative are a few
    # hundred kilobytes at GL_3(F_7)
    table = class_table(3, F7)
    tracemalloc.start()
    try:
        class_fn(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def _spy_eliminations(monkeypatch):
    "The list of q that grows by one at each _nullspace_mod call."
    calls = []

    def spy(M, q):
        calls.append(q)
        return _nullspace_mod(M, q)

    monkeypatch.setattr(fforacle, "_nullspace_mod", spy)
    return calls


def test_F_brute_refuses_gl3_f19(monkeypatch):
    # the identity fixes all 19^6 symmetric forms, whose (19^6 - 1) / 18 =
    # 2,613,660 lines are over the sweep budget; the identity is eliminated
    # first and refused before any other class and before the first pass
    table = class_table(3, PrimeField(19))
    monkeypatch.setattr(fforacle, "_det", _refused)
    calls = _spy_eliminations(monkeypatch)
    with pytest.raises(GroupTooLarge, match="2613660 lines"):
        class_fn_F_brute(table)
    assert calls == [19]


def test_nullspace_mod_is_a_kernel_basis():
    rng = random.Random(20081)
    for q in (3, 5, 7):
        for _ in range(40):
            p = rng.randint(1, 4)
            M = np.array([[rng.randrange(q) for _ in range(p)]
                          for _ in range(rng.randint(1, 4))], dtype=np.int64)
            basis = _nullspace_mod(M, q)
            assert basis.shape == (kernel_dim(M, q), p)
            assert not (M @ basis.T % q).any()
            span = _digits(len(basis), q) @ basis % q
            assert len({tuple(v) for v in span.tolist()}) == q ** len(basis)
            kernel = _digits(p, q)
            in_kernel = int((~(kernel @ M.T % q).any(axis=1)).sum())
            assert in_kernel == q ** len(basis), (M.tolist(), q)


def test_oracle_path_does_not_load_numpy_ma():
    code = (
        "import sys\n"
        "from realcharvar import fforacle\n"
        "from realcharvar.epoly import SurfaceData\n"
        "assert fforacle.compare_with_formula(\n"
        "    2, fforacle.PrimeField(5), SurfaceData(1, 2))['equal']\n"
        "fforacle.class_fn_F_brute(\n"
        "    fforacle.class_table(3, fforacle.PrimeField(3)))\n"
        "assert 'numpy.ma' not in sys.modules\n")
    src = pathlib.Path(fforacle.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_F_identity_value():
    table = class_table(2, F3)
    idx = table.scalar_class_index(1)
    assert class_fn_F_closed(table).values[idx] == 18  # q^3 - q^2 at q=3


def test_F_supported_on_symmetric_labels():
    for field in (F3, F5):
        table = class_table(2, field)
        F = class_fn_F_closed(table)
        for label, v in zip(table.labels, F.values):
            assign = dict(label)
            symmetric = all(assign.get(poly_star(f, field)) == lam
                            for f, lam in label)
            if not symmetric:
                assert v == 0, label


def test_F_degree_prediction():
    # F has the predicted degree in q: at q >= 5 every nonzero value lies
    # strictly between q^pred / 2 and q^pred, which no other degree allows
    for field in (F5, F7):
        q = field.q
        for n in (1, 2, 3):
            for label in class_table(n, field).labels:
                value = f_closed(label, field)
                if value:
                    pred = f_degree_prediction(label, field)
                    assert q ** pred < 2 * value < 2 * q ** pred, (label, q)


def test_N_examples():
    t1 = class_table(1, F5)
    n1 = class_fn_N(t1)
    assert n1.values[t1.scalar_class_index(1)] == 4
    assert sum(n1.values) == 4  # supported on the identity only
    t23 = class_table(2, F3)
    n2 = class_fn_N(t23)
    assert n2.group_sum() == t23.group_order
    assert n2.values[t23.scalar_class_index(1)] == 18


def _n_sweep(table):
    "Reference N for n <= 2: the class of B B^-T over every B in the group."
    E, Einv = group_arrays(table)
    M = E @ np.swapaxes(Einv, -1, -2) % table.q
    hits = np.bincount(table.element_class_array()[
        _encode(M, table.q)], minlength=table.class_count())
    assert all(h % size == 0 for h, size in zip(hits.tolist(), table.sizes))
    return tuple(h // size for h, size in zip(hits.tolist(), table.sizes))


def test_N_equals_group_sweep():
    for q in (3, 5, 7, 11, 13, 17):
        for n in (1, 2):
            table = class_table(n, PrimeField(q))
            assert class_fn_N(table).values == _n_sweep(table), (n, q)


def test_N_at_rank3():
    # each B gives one A = B B^-T, and A is self-inverse with determinant 1
    for field in (F3, F5, F7):
        table = class_table(3, field)
        n_fn = class_fn_N(table)
        assert n_fn.group_sum() == table.group_order
        S = set(table.self_inverse_classes().tolist())
        assert all(c in S and table.dets[c] == 1 for c in n_fn.support())


def test_N_group_too_large(monkeypatch):
    # B = B^T at the identity: the 2,613,660 lines of the 19^6 symmetric B
    # exceed the sweep budget, refused after the identity's elimination
    # alone, before the first pass
    table = class_table(3, PrimeField(19))
    monkeypatch.setattr(fforacle, "_det", _refused)
    calls = _spy_eliminations(monkeypatch)
    with pytest.raises(GroupTooLarge, match="2613660 lines"):
        class_fn_N(table)
    assert calls == [19]


def test_convolution_unit_and_commutativity():
    table = class_table(2, F3)
    n_fn = class_fn_N(table)
    f_fn = class_fn_F_closed(table)
    delta = delta_identity(table)
    assert convolve(delta, n_fn, table) == n_fn
    assert convolve(n_fn, delta, table) == n_fn
    assert convolve(f_fn, n_fn, table) == convolve(n_fn, f_fn, table)


def test_N_squared_is_commutator_count():
    for field in (F3, F5):
        table = class_table(2, field)
        n_fn = class_fn_N(table)
        assert convolve(n_fn, n_fn, table) == class_fn_C_brute(table), field


def test_signed_split():
    table = class_table(2, F5)
    full = class_fn_F_closed(table)
    plus, minus = class_fn_atom(table, "F+"), class_fn_atom(table, "F-")
    assert [p + m for p, m in zip(plus.values, minus.values)] == list(full.values)
    for v, det in zip(plus.values, table.dets):
        if v:
            assert det == 1
    for v, det in zip(minus.values, table.dets):
        if v:
            assert det == 4


def test_primitive_roots():
    assert primitive_roots_of_unity(F5, 4) == (2, 3)
    assert primitive_roots_of_unity(PrimeField(13), 4) == (5, 8)
    assert primitive_roots_of_unity(F7, 4) == ()
    assert primitive_roots_of_unity(F7, 2) == (6,)
    # cached per (field, order): an equal field reads the same tuple
    assert primitive_roots_of_unity(PrimeField(5), 4) is (
        primitive_roots_of_unity(F5, 4))


def test_primitive_roots_match_the_order_definition():
    """Roots found by the prime divisors of their order are the elements
    whose least k >= 1 with x^k = 1 is that order, for every odd prime
    q < 200."""
    for q in range(3, 200, 2):
        if not fforacle._is_prime(q):
            continue
        orders = [None] + [next(k for k in range(1, q) if pow(x, k, q) == 1)
                           for x in range(1, q)]
        for order in (2, 4, 6):
            assert primitive_roots_of_unity(PrimeField(q), order) == tuple(
                x for x in range(1, q) if orders[x] == order), (q, order)


def test_class_table_refused_from_q_before_any_sieve(monkeypatch):
    """GL_3(F_q) has q^3 - q classes: the table is refused from n and q
    before irreducibles sieves anything, from q = 127 at the real budget
    (2,048,256 classes; GL_3(F_113) has 1,442,784) and at q = 11 (1,320)
    under a budget of 1000.  A count is refused so too, before xi's order
    is checked."""
    monkeypatch.setattr(fforacle, "irreducibles", _refused)
    monkeypatch.setattr(fforacle, "_TABLES", {})
    fforacle._check_class_count(3, 113)
    with pytest.raises(GroupTooLarge, match=r"^2048256 classes of "
                       r"GL_3\(F_127\) exceed the budget$"):
        class_table(3, PrimeField(127))
    with pytest.raises(GroupTooLarge, match=r"^2048256 classes"):
        count_representation_variety(3, PrimeField(127), SurfaceData(0, 1), 1)
    monkeypatch.setattr(fforacle, "_GROUP_BUDGET", 1000)
    with pytest.raises(GroupTooLarge, match=r"^1320 classes of GL_3\(F_11\)"):
        class_table(3, PrimeField(11))


def test_rank2_count_refused_before_the_root_check():
    """GL_2(F_4001)'s character sum is over the budget, known from q alone,
    so a count there is refused at once, without a search of F_q*."""
    field = PrimeField(4001)
    xi = next(x for x in range(2, 4001) if x * x % 4001 == 4000)
    start = time.perf_counter()
    with pytest.raises(GroupTooLarge, match="characters on"):
        count_representation_variety(2, field, SurfaceData(2, 1), xi)
    assert time.perf_counter() - start < 0.5


def test_count_rank1():
    for q in (3, 5, 7, 11):
        field = PrimeField(q)
        for g in range(0, 4):
            for r in range(1, g + 2):
                surf = SurfaceData(g, r)
                counted = count_representation_variety(1, field, surf, q - 1)
                assert counted == 2 ** (r - 1) * (q - 1) ** (g + 1)
                assert counted == formula_count(1, field, surf)


def test_count_rank1_direct_enumeration():
    # literal tuple sweep over (A, b, x) at q=3, g=1, r=1 (s=1): the defining
    # equations in GL_1 are A b A^T = b and A * x (x^T)^(-1) = xi = -1
    q = 3
    units = (1, 2)
    direct = 0
    for a in units:
        for b in units:
            for x in units:
                form_ok = (a * b * a) % q == b % q
                prod_ok = (a * x * pow(x, q - 2, q)) % q == q - 1
                if form_ok and prod_ok:
                    direct += 1
    got = count_representation_variety(1, PrimeField(q), SurfaceData(1, 1), q - 1)
    assert direct == got == 4


def _mul2(A, B, q):
    "Product of two 2 x 2 tuple matrices mod q."
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) % q
                       for j in range(2)) for i in range(2))


def _inv2(B, q):
    "Inverse of an invertible 2 x 2 tuple matrix mod q."
    (a, b), (c, d) = B
    s = pow(a * d - b * c, q - 2, q)
    return ((d * s % q, -b * s % q), (-c * s % q, a * s % q))


def test_count_rank2_element_level_sweep():
    # validate the whole pipeline against a literal element-level count over
    # GL_2(F_5): no class tables, no kernels, just the defining equations
    q = 5
    els = [((a, b), (c, d)) for a in range(q) for b in range(q)
           for c in range(q) for d in range(q) if (a * d - b * c) % q]
    sym = [B for B in els if B[0][1] == B[1][0]]

    def mul(A, B):
        return _mul2(A, B, q)

    def inv(B):
        return _inv2(B, q)

    def tr(B):
        return ((B[0][0], B[1][0]), (B[0][1], B[1][1]))

    F_el = {A: sum(1 for B in sym if mul(mul(A, B), tr(A)) == B) for A in els}
    N_el = {A: 0 for A in els}
    for B in els:
        N_el[mul(B, inv(tr(B)))] += 1

    xi_id = ((2, 0), (0, 2))
    # genus 1, one circle: F * N at xi
    direct1 = sum(F_el[A] * N_el[mul(inv(A), xi_id)] for A in els)
    assert direct1 == count_representation_variety(
        2, F5, SurfaceData(1, 1), 2) == 480 * 4
    # genus 2, one circle: F * N * N at xi
    nn = {A: 0 for A in els}
    for B in els:
        nb = N_el[B]
        if nb:
            Bi = inv(B)
            for A in els:
                if N_el[A]:
                    nn_key = mul(B, A)
                    nn[nn_key] += nb * N_el[A]
    direct2 = sum(F_el[A] * nn[mul(inv(A), xi_id)] for A in els)
    assert direct2 == count_representation_variety(
        2, F5, SurfaceData(2, 1), 2) == 480 * 1984


def test_count_rank2_main_value():
    surf = SurfaceData(2, 1)
    counted = count_representation_variety(2, F5, surf, 2)
    assert counted == 480 * 1984
    assert counted == count_representation_variety(2, F5, surf, 3)
    assert counted % group_order(2, 5) == 0


def test_count_rank2_bad_root():
    surf = SurfaceData(2, 1)
    with pytest.raises(NoPrimitiveRoot):
        count_representation_variety(2, F5, surf, 4)  # order 2, not 4
    with pytest.raises(NoPrimitiveRoot):
        count_representation_variety(2, F7, surf, 3)  # 4 does not divide 6


def test_count_rank2_components():
    for g, r in ((2, 1), (2, 2), (2, 3), (3, 2)):
        surf = SurfaceData(g, r)
        total = compare_with_formula(2, F5, surf)
        assert total["equal"], total
        acc = 0
        for k in range(1, r + 1, 2):
            rep = compare_with_formula(2, F5, surf, k=k)
            assert rep["equal"], rep
            acc += comb(r, k) * rep["counted"]
        assert acc == total["counted"]


def test_sign_tuples_decompose_total():
    # g=2, r=2: the two sign tuples (+,-) and (-,+) both lie in the
    # component k = 1, and the two copies of it sum to the full count
    surf = SurfaceData(2, 2)
    total = count_representation_variety(2, F5, surf, 2)
    c1 = count_representation_variety(2, F5, surf, 2, k=1)
    assert 2 * c1 == total


def test_sign_tuple_validation():
    surf = SurfaceData(2, 2)
    with pytest.raises(ValueError):
        count_representation_variety(2, F5, surf, 2, k=0)  # product +1
    with pytest.raises(ValueError):
        count_representation_variety(2, F5, surf, 2, k=3)  # more than r


def test_count_refuses_a_bad_k_before_building_a_table(monkeypatch):
    monkeypatch.setattr(fforacle, "_TABLES", {})
    surf = SurfaceData(2, 2)
    with pytest.raises(EvenK):
        count_representation_variety(2, F5, surf, 2, k=2)
    with pytest.raises(KOutOfRange, match="need 1 <= k <= r = 2, got k = 3"):
        count_representation_variety(2, F5, surf, 2, k=3)
    assert fforacle._TABLES == {}


def test_transposed_convention_fails():
    flags = []
    for g, r in ((2, 2), (2, 3), (3, 2)):
        rep = compare_with_formula(2, F5, SurfaceData(g, r),
                                   convention=TRANSPOSED)
        flags.append(rep["equal"])
    assert not all(flags)
    # and matched agrees on the same cases
    for g, r in ((2, 2), (2, 3), (3, 2)):
        assert compare_with_formula(2, F5, SurfaceData(g, r),
                                    convention=MATCHED)["equal"]


def test_compare_with_formula_leaves_k_to_epoly(monkeypatch):
    # epoly refuses a bad k before the oracle builds anything
    monkeypatch.setattr(fforacle, "_TABLES", {})
    surf = SurfaceData(2, 2)
    with pytest.raises(EvenK):
        compare_with_formula(2, F5, surf, k=2)
    with pytest.raises(KOutOfRange, match="need 1 <= k <= r = 2, got k = 3"):
        compare_with_formula(2, F5, surf, k=3)
    assert fforacle._TABLES == {}


def test_report_fields():
    rep = compare_with_formula(2, F5, SurfaceData(2, 1))
    assert set(rep) == {"n", "q", "g", "r", "k", "xi", "counted", "formula",
                        "convention", "equal"}
    assert rep["xi"] == 2 and rep["k"] is None
    assert rep["counted"] == rep["formula"] == 480 * 1984


def _all_invertible(n, q):
    "Every invertible n x n matrix over F_q as an (m, n, n) int64 stack."
    A = np.array(list(product(range(q), repeat=n * n)),
                 dtype=np.int64).reshape(-1, n, n)
    return A[det_mod(A, q) != 0]


def test_element_class_array_agrees_with_classify():
    for n, field in ((1, F7), (2, F3), (2, F5), (2, F7)):
        table = class_table(n, field)
        cls = table.element_class_array()
        q = field.q
        for A in _all_invertible(n, q):
            code = 0
            for x in A.ravel().tolist():
                code = code * q + x
            assert cls[code] == table.index[classify(A, table)], A
        assert (cls >= 0).sum() == group_order(n, q)


def test_inverse_mod_on_whole_groups():
    for n, q in ((1, 7), (2, 5), (3, 3)):
        A = _all_invertible(n, q)
        assert len(A) == group_order(n, q)
        product_ = np.einsum("mij,mjk->mik", A, inverse_mod(A, q)) % q
        assert (product_ == np.eye(n, dtype=np.int64)).all()
    assert inverse_mod(((3,),), 5).tolist() == [[2]]
    # the cached F_q inverse table is shared, so it must be read-only
    assert _inverse_table(5) is _inverse_table(5)
    assert not _inverse_table(5).flags.writeable
    with pytest.raises(SingularMatrix):
        inverse_mod(np.array([[[1, 0], [0, 1]], [[1, 1], [1, 1]]]), 5)
    with pytest.raises(UnsupportedRank):
        inverse_mod(np.eye(4, dtype=np.int64), 5)


def test_charpoly_mod_cayley_hamilton():
    q = 3
    els = _all_invertible(3, q)
    polys = charpoly_mod(els, q)
    assert (polys[:, -1] == 1).all()
    assert not poly_eval_matrix(polys, els, q).any()


def _refused(*args, **kwargs):
    raise AssertionError("a refused helper was called")


def _cofactor_det(A):
    """Reference determinant of a stack, exact in int64: cofactors on row 0,
    written out on the entries, with no submatrix copies."""
    a = [[A[..., i, j] for j in range(A.shape[-1])] for i in range(A.shape[-1])]
    if len(a) == 1:
        return a[0][0]
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def _det_per_product(A, q):
    "Reference Leibniz sum that reduces mod q after every product."
    n = A.shape[-1]
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        for i, j in enumerate(perm):
            term = term * A[..., i, j] % q
        total = total + term
    return total % q


def test_det_reduces_once_and_refuses_leaving_int64():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for q in (3, 5, 17):
            A = rng.integers(0, q, size=(500, n, n), dtype=np.int64)
            assert (fforacle._det(A, q) == _det_per_product(A, q)).all()
    # 3! q^3 fits in int64 at q = 2^20 and not at 2^21; at the edge the
    # one reduction agrees with exact Python ints
    q = 2 ** 20 - 3
    A = rng.integers(q - 40, q, size=(200, 3, 3), dtype=np.int64)
    exact = _det_per_product(A.astype(object), q).astype(np.int64)
    assert (fforacle._det(A, q) == exact).all()
    assert (charpoly_mod(A, q)[:, 0] == -exact % q).all()
    with pytest.raises(ExactnessError, match="leaves int64"):
        fforacle._det(A, 2 ** 21)
    with pytest.raises(ExactnessError, match="leaves int64"):
        det_mod(np.eye(2, dtype=np.int64), 2 ** 32)


def test_matrix_layer_copies_no_minors(monkeypatch):
    # with numpy.delete refused, det_mod matches the cofactor reference on
    # every matrix, charpoly_mod(A) matches det(x - A) at x = 0, ..., n - 1
    # (n points fix a monic polynomial of degree n), and inverse_mod
    # inverts every element of the group
    monkeypatch.setattr(fforacle.np, "delete", _refused)
    for q in (3, 5):
        for n in (1, 2, 3):
            eye = np.eye(n, dtype=np.int64)
            group = 0
            for lo in range(0, q ** (n * n), 1 << 16):
                codes = np.arange(lo, min(lo + (1 << 16), q ** (n * n)))
                digits = fforacle._decode(codes, n * n, q)
                A = digits.reshape(-1, n, n)
                det = det_mod(A, q)
                assert (det == _cofactor_det(A) % q).all(), (n, q)
                c = charpoly_mod(A, q)
                for x in range(n):
                    at_x = c @ x ** np.arange(n + 1)
                    assert (at_x % q == _cofactor_det(x * eye - A) % q).all()
                E = A[det != 0]
                group += len(E)
                assert (E @ inverse_mod(E, q) % q == eye).all(), (n, q)
            assert group == group_order(n, q)
            with pytest.raises(SingularMatrix):
                inverse_mod(np.zeros((n, n), dtype=np.int64), q)


def test_group_arrays_decode_the_class_lookup(monkeypatch):
    for field in (F3, F5):
        q = field.q
        table = ClassTable(2, field)
        table.element_class_array()
        want = _all_invertible(2, q)
        with monkeypatch.context() as m:
            m.setattr(fforacle, "det_mod", _refused)
            E, Einv = group_arrays(table)
        assert (E == want).all() and len(E) == group_order(2, q)
        assert (np.diff(_encode(E, q)) > 0).all()
        product_ = np.einsum("mij,mjk->mik", E, Einv) % q
        assert (product_ == np.eye(2, dtype=np.int64)).all()


def _macwilliams(n, q):
    "Invertible symmetric n x n matrices over F_q, q odd (MacWilliams 1969)."
    count = q ** (n * (n + 1) // 2)
    for i in range(1, (n + 1) // 2 + 1):
        count = count * (q ** (2 * i - 1) - 1) // q ** (2 * i - 1)
    return count


def test_symmetric_invertible_count():
    for q in (3, 5):
        for n in (1, 2, 3):
            sym = _symmetric_invertible_matrices(n, q)
            assert len(sym) == _macwilliams(n, q), (n, q)
            assert (sym == np.swapaxes(sym, 1, 2)).all()


def test_irreducible_counts():
    for field in (F3, F5, F7):
        q = field.q
        for d in (1, 2, 3):
            # necklace count of monic irreducibles; t itself is excluded
            necklaces = sum(moebius(e) * q ** (d // e)
                            for e in range(1, d + 1) if d % e == 0) // d
            assert len(irreducibles(field, d)) == necklaces - (d == 1)
    with pytest.raises(UnsupportedRank):
        irreducibles(F3, 4)


def test_irreducibles_sieve_matches_the_root_test():
    # a monic f with f(0) != 0 and degree <= 3 is irreducible iff it is
    # linear or has no root
    for q in (3, 5, 7, 13):
        for d in (1, 2, 3):
            want = tuple(c + (1,) for c in product(range(q), repeat=d)
                         if c[0] and (d == 1 or all(
                             poly_eval(c + (1,), x, q) for x in range(1, q))))
            assert irreducibles(PrimeField(q), d) == want, (q, d)


# -- the kernel on the self-inverse classes ----------------------------------

def _element_classes(table):
    "Class index of every element of GL_2(F_q) by classify, keyed by tuple."
    return {tuple(map(tuple, A.tolist())): table.index[classify(A, table)]
            for A in _all_invertible(2, table.q)}


def _tuple_reps(table):
    return [tuple(map(tuple, g.tolist())) for g in table.reps]


def test_kernel_is_the_self_inverse_slice_of_the_dense_kernel():
    for field in (F3, F5):
        q = field.q
        table = class_table(2, field)
        cls = _element_classes(table)
        reps = _tuple_reps(table)
        C = table.class_count()
        S = [c for c, g in enumerate(reps) if cls[_inv2(g, q)] == c]
        assert table.self_inverse_classes().tolist() == S
        # dense[t, c1, c2] counts B in c1 with B^-1 g_t in c2
        dense = np.zeros((C, C, C), dtype=np.int64)
        for t, g in enumerate(reps):
            for B, c1 in cls.items():
                dense[t, c1, cls[_mul2(_inv2(B, q), g, q)]] += 1
        K = table.kernel()
        assert K.dtype == np.int32 and K.shape == (C, len(S), C)
        assert (K == dense[:, S, :]).all()


def _refuse(*args, **kwargs):
    raise AssertionError("the kernel must not sweep the group")


def test_kernel_reads_the_class_lookup(monkeypatch):
    # K comes from the element lookup alone: no group copy, determinant or
    # inverse, and still the self-inverse slice of the dense kernel
    for field in (F3, F5):
        q = field.q
        table = ClassTable(2, field)
        table.element_class_array()
        cls = _element_classes(table)
        reps = _tuple_reps(table)
        C = table.class_count()
        S = table.self_inverse_classes().tolist()
        dense = np.zeros((C, C, C), dtype=np.int64)
        for t, g in enumerate(reps):
            for B, c1 in cls.items():
                dense[t, c1, cls[_mul2(_inv2(B, q), g, q)]] += 1
        with monkeypatch.context() as m:
            m.setattr(ffreference, "group_arrays", _refuse)
            m.setattr(fforacle, "det_mod", _refuse)
            m.setattr(ffreference, "inverse_mod", _refuse)
            K = table.kernel()
        assert (K == dense[:, S, :]).all(), q
    # at GL_2(F_17) the peak is the 288 x 20 x 288 int32 kernel, 6.6 MB
    table = ClassTable(2, PrimeField(17))
    table.element_class_array()
    tracemalloc.start()
    try:
        K = table.kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.nbytes == 288 * 20 * 288 * 4
    assert peak < 9_000_000, peak


def test_convolve_matches_element_level_convolution():
    q = 3
    table = class_table(2, F3)
    cls = _element_classes(table)
    reps = _tuple_reps(table)
    rng = random.Random(5)
    dense = ClassFunction(table, [rng.randint(-50, 50) for _ in reps])
    n_fn, f_fn = class_fn_N(table), class_fn_F_closed(table)
    for phi, psi in ((n_fn, dense), (dense, f_fn), (f_fn, n_fn)):
        want = [sum(phi.values[c] * psi.values[cls[_mul2(_inv2(B, q), g, q)]]
                    for B, c in cls.items()) for g in reps]
        assert convolve(phi, psi, table).values == tuple(want)
        assert [convolve_at(phi, psi, table, t)
                for t in range(len(reps))] == want


def test_atoms_vanish_off_self_inverse_classes():
    for n, q in [(n, q) for n in (1, 2) for q in (3, 5, 7, 13, 17)] + [
            (3, 3), (3, 5), (3, 7)]:
        table = class_table(n, PrimeField(q))
        S = set(table.self_inverse_classes().tolist())
        for fn in (class_fn_F_closed(table), class_fn_atom(table, "F+"),
                   class_fn_atom(table, "F-"), class_fn_N(table)):
            assert set(fn.support()) <= S, (n, q)
    table = class_table(2, PrimeField(17))
    S = table.self_inverse_classes().tolist()
    assert len(S) == 20 and sum(table.sizes[c] for c in S) == 5202


def _indicator(table, c, value=1):
    return ClassFunction(table, [value if i == c else 0
                                 for i in range(table.class_count())])


def test_convolve_needs_a_factor_on_self_inverse_classes():
    table = class_table(2, F5)
    S = set(table.self_inverse_classes().tolist())
    off = [c for c in range(table.class_count()) if c not in S]
    phi, psi = _indicator(table, off[0]), _indicator(table, off[1])
    with pytest.raises(KernelMissing):
        convolve(phi, psi, table)
    with pytest.raises(KernelMissing):
        convolve_at(phi, psi, table, 0)


def test_kernel_step_refuses_int64_overflow():
    table = class_table(2, F5)
    S = set(table.self_inverse_classes().tolist())
    other = _indicator(table, min(c for c in range(table.class_count())
                                  if c not in S))
    one = table.scalar_class_index(1)
    top = (2 ** 63 - 1) // table.group_order
    # top * delta is the identity of convolution scaled by top: exact
    fits = _indicator(table, one, top)
    assert convolve(fits, other, table).values == tuple(
        top * v for v in other.values)
    big = _indicator(table, one, top + 1)
    with pytest.raises(ExactnessError):
        convolve(big, other, table)
    with pytest.raises(ExactnessError):
        convolve_at(other, big, table, 0)


def test_class_tables_at_larger_q():
    # the constructor checks the class equation; the label count of GL_n(F_q)
    # is q^n - q at n = 3 and q^2 - 1 at n = 2
    assert ClassTable(3, PrimeField(17)).class_count() == 17 ** 3 - 17 == 4896
    assert ClassTable(2, PrimeField(47)).class_count() == 47 ** 2 - 1 == 2208


def _rank2_count_requests():
    "Every (g, r), every odd k and every primitive 4th root at q = 5 and 13."
    reqs = []
    for q in (5, 13):
        field = PrimeField(q)
        for xi in primitive_roots_of_unity(field, 4):
            for g in range(4):
                for r in range(1, g + 2):
                    reqs.append((field, SurfaceData(g, r), xi, None))
                    reqs += [(field, SurfaceData(g, r), xi, k)
                             for k in range(1, r + 1, 2)]
    return reqs


def test_counts_do_not_depend_on_request_order(monkeypatch):
    builds = {}

    def spy(table):
        builds[table.q] = builds.get(table.q, 0) + 1
        return class_fn_F_closed(table)

    monkeypatch.setattr(fforacle, "class_fn_F_closed", spy)
    reqs = _rank2_count_requests()
    answers = []
    for order in (reqs, reqs[::-1]):
        fforacle._TABLES.clear()
        builds.clear()
        answers.append({req: count_representation_variety(2, *req)
                        for req in order})
        assert builds == {5: 1, 13: 1}
    fforacle._TABLES.clear()
    assert answers[0] == answers[1]


def test_rank3_refusals():
    # the count's last step is a class sum, so only a prefix of two or more
    # atoms (r + s >= 3) needs the kernel, which stops at n = 2
    field = PrimeField(7)
    xi = primitive_roots_of_unity(field, 6)[0]
    for g in range(4):
        for r in range(1, g + 2):
            surf = SurfaceData(g, r)
            for k in [None, *range(1, r + 1, 2)]:
                if r + surf.s >= 3:
                    with pytest.raises(KernelMissing):
                        count_representation_variety(3, field, surf, xi, k)
                else:
                    assert count_representation_variety(
                        3, field, surf, xi, k) == formula_count(
                            3, field, surf, k)


def test_rank3_refusal_builds_no_table(monkeypatch):
    # three atoms at n = 3 are refused before the 336-class table is built
    monkeypatch.setattr(fforacle, "_TABLES", {})
    with pytest.raises(KernelMissing, match="at most two atoms, not 3"):
        count_representation_variety(3, PrimeField(7), SurfaceData(2, 1), 3)
    assert fforacle._TABLES == {}


def _surfaces(g_max):
    "Every (g, r) with g <= g_max and every k: None and each odd k <= r."
    return [(SurfaceData(g, r), k) for g in range(g_max + 1)
            for r in range(1, g + 2) for k in [None, *range(1, r + 1, 2)]]


def test_rank3_counts_equal_the_formula():
    # an independent witness at odd rank: every count of at most two atoms
    # at GL_3(F_7), and the (1, 1) and (1, 2) counts at GL_3(F_13), where
    # N sweeps 402,234 lines; at GL_3(F_19) N's sweep is refused
    for q, surfaces in ((7, _surfaces(1)),
                        (13, [(SurfaceData(1, 1), None),
                              (SurfaceData(1, 1), 1),
                              (SurfaceData(1, 2), None),
                              (SurfaceData(1, 2), 1)])):
        field = PrimeField(q)
        for xi in primitive_roots_of_unity(field, 6):
            for surf, k in surfaces:
                count = count_representation_variety(3, field, surf, xi, k)
                assert count == formula_count(3, field, surf, k), (q, xi)
                rep = compare_with_formula(3, field, surf, k=k, xi=xi)
                assert rep["equal"] and rep["counted"] == count, rep
    with pytest.raises(GroupTooLarge):
        count_representation_variety(3, PrimeField(19), SurfaceData(1, 1), 8)


def test_counts_of_two_atoms_build_no_kernel(monkeypatch):
    for q in (5, 13):
        monkeypatch.setattr(fforacle, "_TABLES", {})
        field = PrimeField(q)
        for xi in primitive_roots_of_unity(field, 4):
            for surf, k in _surfaces(1):
                count = count_representation_variety(2, field, surf, xi, k)
                assert count == formula_count(2, field, surf, k), (q, xi)
        assert class_table(2, field)._kernel is None, q


def test_class_sum_matches_the_kernel():
    for n, q in product((1, 2), (3, 5, 13)):
        field = PrimeField(q)
        table = class_table(n, field)
        atom = {a: class_fn_atom(table, a) for a in ("F", "F+", "F-", "N")}
        for xi in primitive_roots_of_unity(field, 2 * n):
            target = table.scalar_class_index(xi)
            for surf, k in _surfaces(1):
                atoms = (["F"] * surf.r if k is None
                         else ["F-"] * k + ["F+"] * (surf.r - k))
                # one atom has the identity delta for its prefix
                *prefix, last = sorted(atoms + ["N"] * surf.s)
                first = atom[prefix[0]] if prefix else delta_identity(table)
                assert count_representation_variety(
                    n, field, surf, xi, k) == convolve_at(
                        first, atom[last], table, target), (n, q, xi, k)


class _NoFraction(Fraction):
    "A Fraction that cannot be built."

    def __new__(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")


def _atom_and_count_values():
    "F, F+, F-, N, formula_count and the counts at ranks 1-3, q in {5, 7}."
    out = []
    for q in (5, 7):
        field = PrimeField(q)
        for n in (1, 2, 3):
            table = class_table(n, field)
            out += [class_fn_atom(table, a).values
                    for a in ("F", "F+", "F-", "N")]
            for xi in primitive_roots_of_unity(field, 2 * n):
                for surf, k in _surfaces(1):
                    out += [formula_count(n, field, surf, k),
                            count_representation_variety(
                                n, field, surf, xi, k)]
    return out


def test_counts_build_no_fraction(monkeypatch):
    # F (closed), F+, F-, N, formula_count and the counts at ranks 1-3 run
    # in ints: rebuilt from empty caches with Fraction unusable, they give
    # their values again
    want = _atom_and_count_values()
    monkeypatch.setattr(laurent, "Fraction", _NoFraction)
    for module in (fforacle, epoly):
        monkeypatch.setattr(module, "Fraction", _NoFraction, raising=False)
    monkeypatch.setattr(fforacle, "_TABLES", {})
    monkeypatch.setattr(epoly, "_ASSEMBLED", {})
    monkeypatch.setattr(epoly, "_LOG_TABLES", {})
    assert _atom_and_count_values() == want


def test_oracle_builds_no_polynomial(monkeypatch):
    # the oracle counts on ints alone: with every HalfPowerPolynomial
    # construction refused and the class tables rebuilt, F, F+, F-, N and
    # the counts give their values again; formula_count reads the
    # E-polynomials assembled by the first pass
    want = _atom_and_count_values()
    HPP = laurent.HalfPowerPolynomial
    monkeypatch.setattr(HPP, "__init__", _refused)
    monkeypatch.setattr(HPP, "_raw", classmethod(_refused))
    with pytest.raises(AssertionError, match="refused"):
        HPP.q_power(1)
    monkeypatch.setattr(fforacle, "_TABLES", {})
    monkeypatch.setattr(fforacle, "_STARS", {})
    assert _atom_and_count_values() == want

