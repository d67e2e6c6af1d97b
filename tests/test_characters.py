"""The character route of the oracle (n <= 2): the generic table against the
orthogonality relations, the counts against the kernel's convolution chain,
and the gates that refuse a wrong table or a disagreeing prime."""

from collections import Counter
from itertools import islice, product
from math import isqrt

import numpy as np
import pytest

from realcharvar import characters, fforacle
from realcharvar.algebra import ExactnessError
from realcharvar.epoly import SurfaceData
from realcharvar.fforacle import (ClassFunction, ClassTable, GroupTooLarge,
                                  PrimeField, class_fn_N, class_table,
                                  compare_with_formula, convolve,
                                  count_representation_variety,
                                  formula_count, inverse_label,
                                  primitive_roots_of_unity)
from realcharvar.ffreference import delta_identity


def _matmul_mod(A, B, p):
    """A @ B mod p for residues below p < 2^31, exact in int64: A is split
    into 16-bit halves, so a dot product of up to 2^15 terms stays below
    2^62."""
    lo = A & 0xFFFF
    return ((A >> 16) @ B % p * 65536 + lo @ B) % p


def _full_table(n, q):
    "(table, chars, p, V, inv): every character on every class mod p."
    table = ClassTable(n, PrimeField(q))
    chars = characters.CharacterTable(table)
    p = next(chars.primes())
    V = chars.values(range(table.class_count()), p, chars.omega_powers(p))
    inv = [table.index[inverse_label(lab, table.field)]
           for lab in table.labels]
    return table, chars, p, V, inv


@pytest.mark.parametrize("n,q", list(product((1, 2), (3, 5, 7, 13, 17))))
def test_full_table_is_orthogonal(n, q):
    table, chars, p, V, inv = _full_table(n, q)
    C = table.class_count()
    assert V.shape == (C, C)
    sizes = np.array(table.sizes, dtype=np.int64)
    order = table.group_order
    # rows: sum_c |c| chi(c) chi'(c^-1) = |G| delta
    rows = _matmul_mod(V * sizes % p, V[:, inv].T.copy(), p)
    assert (rows == np.eye(C, dtype=np.int64) * (order % p)).all()
    # columns: sum_chi chi(c) chi(c'^-1) = delta |G| / |c|
    cols = _matmul_mod(V.T.copy(), V[:, inv], p)
    assert (cols == np.diag([order // s % p for s in table.sizes])).all()
    # <N, chi> = 1: N is the sum of the irreducible characters
    N = np.array(class_fn_N(table).values, dtype=np.int64)
    inner = _matmul_mod(V[:, inv], sizes * N % p, p) * pow(order, -1, p) % p
    assert (inner == 1).all()
    assert (V[:, table.scalar_class_index(1)] == chars.degree).all()
    if n == 2:
        assert sum(chars.degree.tolist()) == q * q * (q - 1)


def _chain(table, atoms, xi):
    "The atoms convolved through the kernel, one at a time, read at xi I."
    acc = delta_identity(table)
    for atom in atoms:
        acc = convolve(acc, fforacle.class_fn_atom(table, atom), table)
    return acc.values[table.scalar_class_index(xi)]


def test_counts_equal_the_kernel_chain():
    for n, q in product((1, 2), (3, 5, 13)):
        field = PrimeField(q)
        table = class_table(n, field)
        for xi in primitive_roots_of_unity(field, 2 * n):
            for g in range(4):
                for r in range(1, g + 2):
                    surf = SurfaceData(g, r)
                    for k in [None, *range(1, r + 1, 2)]:
                        atoms = (("F",) * r if k is None
                                 else ("F-",) * k + ("F+",) * (r - k))
                        atoms = tuple(sorted(atoms + ("N",) * surf.s))
                        assert count_representation_variety(
                            n, field, surf, xi, k) == _chain(
                                table, atoms, xi), (n, q, xi, g, r, k)


def _refused(*args, **kwargs):
    raise AssertionError("a count reached the kernel route")


def test_counts_use_no_lookup_kernel_or_convolution(monkeypatch):
    # and each atom's group sum, which bounds the count, is taken once per
    # table
    sums = Counter()
    group_sum = ClassFunction.group_sum

    def spy(fn):
        sums[fn.table.n, fn.table.q] += 1
        return group_sum(fn)

    monkeypatch.setattr(fforacle, "_TABLES", {})
    monkeypatch.setattr(ClassTable, "element_class_array", _refused)
    monkeypatch.setattr(ClassTable, "kernel", _refused)
    monkeypatch.setattr(fforacle, "convolve", _refused)
    monkeypatch.setattr(ClassFunction, "group_sum", spy)
    for n, q in ((1, 7), (2, 5), (2, 13), (2, 17)):
        field = PrimeField(q)
        for xi in primitive_roots_of_unity(field, 2 * n):
            for g in range(4):
                for r in range(1, g + 2):
                    surf = SurfaceData(g, r)
                    for k in [None, *range(1, r + 1, 2)]:
                        assert count_representation_variety(
                            n, field, surf, xi, k) == formula_count(
                                n, field, surf, k), (n, q, g, r, k)
        table = class_table(n, field)
        assert table._element_class is None and table._kernel is None
    assert len(sums) == 4 and max(sums.values()) <= 4


def test_compare_with_formula_beyond_the_kernel():
    # the kernel would take 90 MB at q = 29, and the element lookup of
    # GL_2(F_41) exceeds the sweep budget
    for q in (29, 41):
        field = PrimeField(q)
        for g in range(3):
            for r in range(1, g + 2):
                for k in [None, *range(1, r + 1, 2)]:
                    rep = compare_with_formula(2, field, SurfaceData(g, r),
                                               k=k)
                    assert rep["equal"], rep


def test_primes_fit_the_dot_product():
    for n, q in ((1, 3), (2, 5), (2, 17)):
        chars = characters.CharacterTable(ClassTable(n, PrimeField(q)))
        primes = list(islice(chars.primes(), 4))
        assert primes == sorted(primes, reverse=True)
        assert list(islice(chars.primes(), 5))[:4] == primes
        S = len(chars.self_inverse)
        for p in primes:
            assert p % (q * q - 1) == 1 and p < 2 ** 31
            assert S * (p - 1) ** 2 <= 2 ** 63 - 1
            assert all(p % d for d in range(2, isqrt(p) + 1))


def test_a_wrong_cuspidal_sign_fails_the_n_gate(monkeypatch):
    right = characters._coefficients

    def flipped(q):
        coef = right(q)
        coef[3, characters.ELLIPTIC] *= -1
        return coef

    monkeypatch.setattr(characters, "_coefficients", flipped)
    monkeypatch.setattr(fforacle, "_TABLES", {})
    with pytest.raises(ExactnessError, match="<N, chi> != 1"):
        count_representation_variety(2, PrimeField(5), SurfaceData(1, 1), 2)


def test_a_wrong_degree_fails_the_degree_sum(monkeypatch):
    right = characters._coefficients

    def shifted(q):
        coef = right(q)
        coef[1, characters.SCALAR, 0] += 1
        return coef

    monkeypatch.setattr(characters, "_coefficients", shifted)
    monkeypatch.setattr(fforacle, "_TABLES", {})
    with pytest.raises(ExactnessError, match="squared degrees"):
        count_representation_variety(2, PrimeField(5), SurfaceData(1, 1), 2)


def test_a_wrong_identity_log_fails_the_identity_gate(monkeypatch):
    right = characters._class_logs

    def moved(table):
        kind, e1, e2 = right(table)
        one = table.scalar_class_index(1)
        e1[one] = e2[one] = table.q + 1       # the log of a scalar != 1
        return kind, e1, e2

    monkeypatch.setattr(characters, "_class_logs", moved)
    monkeypatch.setattr(fforacle, "_TABLES", {})
    with pytest.raises(ExactnessError, match="identity column"):
        count_representation_variety(2, PrimeField(5), SurfaceData(1, 1), 2)


def test_a_disagreeing_prime_is_refused(monkeypatch):
    # the residue at the one prime beyond the bound must match the CRT value
    right = characters._Residues.count
    seen = []

    def off_at(last):
        def count(self, atoms, xi):
            seen.append(self.p)
            return (right(self, atoms, xi) + (len(seen) == last)) % self.p
        return count

    field, surf = PrimeField(5), SurfaceData(3, 1)
    monkeypatch.setattr(characters._Residues, "count", off_at(0))
    want = count_representation_variety(2, field, surf, 2)
    used = len(seen)
    assert used >= 2
    for last in range(1, used + 1):
        seen.clear()
        monkeypatch.setattr(characters._Residues, "count", off_at(last))
        with pytest.raises(ExactnessError):
            count_representation_variety(2, field, surf, 2)
    assert count_representation_variety(2, field, surf, 2) == want


def test_character_table_refused_beyond_the_budget(monkeypatch):
    monkeypatch.setattr(fforacle, "_GROUP_BUDGET", 1000)
    monkeypatch.setattr(fforacle, "_TABLES", {})
    # genus 0 has the one atom F, so the table is the first thing refused
    with pytest.raises(GroupTooLarge, match="characters"):
        count_representation_variety(2, PrimeField(17), SurfaceData(0, 1), 4)


def test_rank2_budget_is_refused_before_the_class_table(monkeypatch):
    """GL_2(F_137) has 18768 characters on 140 self-inverse classes, over
    the budget; that is known from q alone, so no class table is built."""
    built = []
    real = ClassTable.__init__

    def spy(self, n, field):
        built.append((n, field.q))
        real(self, n, field)

    monkeypatch.setattr(ClassTable, "__init__", spy)
    monkeypatch.setattr(fforacle, "_TABLES", {})
    field = PrimeField(137)
    xi = primitive_roots_of_unity(field, 4)[0]
    with pytest.raises(GroupTooLarge, match="^18768 characters on 140 "
                       "classes at q = 137 exceed the budget$"):
        count_representation_variety(2, field, SurfaceData(2, 1), xi)
    assert built == []


def _refusal(fn, *args):
    "The GroupTooLarge message of fn(*args), or None if it is not refused."
    try:
        fn(*args)
    except GroupTooLarge as exc:
        return str(exc)
    return None


def test_budget_rule_from_q_agrees_with_the_built_table(monkeypatch):
    """At the edge of a lowered budget, check_budget(n, q) and the guard of
    a built table's values refuse alike, with the same counts: q - 1 or
    q^2 - 1 characters on 2 or q + 3 self-inverse classes."""
    for n in (1, 2):
        for q in (3, 5, 7, 11, 13, 17):
            chars = characters.CharacterTable(class_table(n, PrimeField(q)))
            p = next(chars.primes())
            powers = chars.omega_powers(p)
            size = len(chars.degree) * len(chars.self_inverse)
            for budget in (size - 1, size):
                monkeypatch.setattr(fforacle, "_GROUP_BUDGET", budget)
                by_q = _refusal(characters.check_budget, n, q)
                by_table = _refusal(chars.values, chars.self_inverse, p,
                                    powers)
                assert by_q == by_table, (n, q, budget)
                assert (by_q is None) == (budget == size), (n, q, budget)
