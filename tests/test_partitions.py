from fractions import Fraction
from math import factorial

from realcharvar.ffreference import ell_odd
from realcharvar.laurent import ONE, Q, HalfPowerPolynomial
from realcharvar.partitions import (all_partitions, centralizer_order,
                                    conjugate, hooks, multiplicities,
                                    n_lambda, partition_count, weight)
from realcharvar.verify import sgn, union


def z_pi(pi):
    "Centralizer order of the cycle type pi in the symmetric group."
    z = 1
    for d, m in multiplicities(pi).items():
        z *= factorial(m) * d ** m
    return z


def test_all_partitions_small():
    assert all_partitions(0) == ((),)
    assert all_partitions(1) == ((1,),)
    assert all_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(all_partitions(8)) == 22


def test_all_partitions_descending_lex():
    for n in range(10):
        parts = all_partitions(n)
        assert parts == tuple(sorted(parts, reverse=True))
        assert len(set(parts)) == len(parts)
        assert all(weight(p) == n for p in parts)


def test_partition_count_pentagonal():
    for n in range(31):
        assert len(all_partitions(n)) == partition_count(n)
    assert partition_count(30) == 5604


def test_n_lambda():
    assert n_lambda((1, 1)) == 1
    assert n_lambda((2, 1)) == 1
    assert n_lambda((3, 2, 1)) == 4


def test_multiplicity_identities():
    # weight and the pair identity for the row statistic
    for n in range(11):
        for lam in all_partitions(n):
            mult = multiplicities(lam)
            assert sum(d * m for d, m in mult.items()) == weight(lam)
            pair = sum(d * mult[d] * mult[e]
                       for d in mult for e in mult if d < e)
            same = Fraction(sum(d * m * (m - 1) for d, m in mult.items()), 2)
            assert n_lambda(lam) == pair + same


def test_z_pi():
    assert z_pi((1, 1)) == 2
    assert z_pi((2,)) == 2
    assert z_pi((3, 1, 1)) == 6
    for n in range(1, 9):
        total = sum(Fraction(factorial(n), z_pi(p)) for p in all_partitions(n))
        assert total == factorial(n)


def test_hooks():
    assert hooks((1,)) == [1]
    assert hooks((2,)) == [2, 1]
    assert hooks((2, 1)) == [3, 1, 1]
    for n in range(9):
        for lam in all_partitions(n):
            assert hooks(lam) == hooks(conjugate(lam))
            assert n_lambda(lam) + n_lambda(conjugate(lam)) + weight(lam) \
                == sum(hooks(lam))


def test_conjugate_involution():
    assert conjugate((3, 1)) == (2, 1, 1)
    for n in range(10):
        for lam in all_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_union():
    assert union((3, 1), (2, 1)) == (3, 2, 1, 1)


def test_parity_counts():
    assert ell_odd((3, 2, 1)) == 2
    assert sgn((3, 2, 1)) == -1
    assert sgn((1, 1, 1)) == 1


def centralizer_order_poly(lam):
    """Reference: the centralizer order of a unipotent-type class with
    partition lam as a polynomial in q, q^(|lam| + 2 n_lam) * prod_d
    prod_{i<=m_d} (1 - q^-i)."""
    poly = HalfPowerPolynomial.q_power(weight(lam) + 2 * n_lambda(lam))
    for m in multiplicities(lam).values():
        for i in range(1, m + 1):
            poly = poly * (ONE - HalfPowerPolynomial.q_power(-i))
    return poly


def test_centralizer_order_poly():
    assert centralizer_order_poly((1,)) == Q - ONE
    # the full-multiplicity class centralizer is the whole group
    assert centralizer_order_poly((1, 1)).evaluate(Fraction(3)) == (9 - 1) * (9 - 3)
    assert centralizer_order_poly((2,)).evaluate(Fraction(3)) == 9 - 3
    assert centralizer_order((1, 1, 1), 5) == (125 - 1) * (125 - 5) * (125 - 25)


def test_centralizer_order_is_the_int_value_of_the_poly():
    for q in (2, 3, 4, 5, 7, 9, 17):
        for w in range(9):
            for lam in all_partitions(w):
                got = centralizer_order(lam, q)
                assert type(got) is int
                assert got == centralizer_order_poly(lam).evaluate(Fraction(q))


def test_class_equation_rank():
    # sum over classes of |G|/a_mu(q) = |G| for unipotent-type splittings:
    # spot-check GL_2: (1,1) scalar + (2,) regular unipotent type classes
    q = 7
    g2 = (q * q - 1) * (q * q - q)
    total = 0
    for lam in all_partitions(2):
        total += g2 // centralizer_order(lam, q)
    # two unipotent classes: sizes 1 (scalar has full centralizer) + q^2-1
    assert total == 1 + (q * q - 1)
