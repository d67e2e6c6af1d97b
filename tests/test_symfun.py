from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from realcharvar.partitions import all_partitions, multiplicities
from realcharvar.symfun import a_minus, a_plus
from realcharvar.verify import (WeightMismatch, a_minus_from_characters,
                                a_minus_from_pieri, a_plus_from_characters,
                                a_plus_from_pieri, c_d_via_genfun, c_pi, d_pi,
                                sn_character)


def _cycle_type(perm):
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def test_character_examples():
    assert sn_character((2,), (1, 1)) == 1
    assert sn_character((1, 1), (2,)) == -1
    assert sn_character((2, 1), (3,)) == -1


def test_character_standard_rep_brute_force():
    # trace of the 2-dimensional standard representation on a 3-cycle:
    # permutation-matrix trace (fixed points) minus the trivial summand
    traces = []
    for perm in permutations(range(3)):
        if _cycle_type(perm) == (3,):
            fixed = sum(1 for i in range(3) if perm[i] == i)
            traces.append(fixed - 1)
    assert traces and all(t == -1 for t in traces)
    assert sn_character((2, 1), (3,)) == -1


def test_character_weight_mismatch():
    with pytest.raises(WeightMismatch):
        sn_character((2,), (1, 1, 1))


def test_character_orthogonality():
    for n in range(1, 7):
        # class sizes n!/z_pi, counted over the permutations themselves
        sizes = Counter(_cycle_type(perm) for perm in permutations(range(n)))
        order = sum(sizes.values())
        for l1 in all_partitions(n):
            for l2 in all_partitions(n):
                total = sum(size * sn_character(l1, p) * sn_character(l2, p)
                            for p, size in sizes.items())
                assert total == (order if l1 == l2 else 0)


def test_character_degree_hook_formula():
    from math import factorial
    from realcharvar.partitions import hooks
    for n in range(1, 8):
        for lam in all_partitions(n):
            dim = factorial(n)
            for h in hooks(lam):
                dim //= h
            assert sn_character(lam, (1,) * n) == dim


def test_c_d_examples():
    assert c_pi((2,)) == Fraction(1, 2) and d_pi((2,)) == Fraction(1, 2)
    assert c_pi((1, 1)) == Fraction(5, 2) and d_pi((1, 1)) == Fraction(1, 2)
    assert c_pi(()) == 1 and d_pi(()) == 1
    assert c_pi((1,)) == 2 and d_pi((1,)) == 0
    assert c_pi((2, 2)) == Fraction(3, 8) and d_pi((2, 2)) == Fraction(3, 8)


def test_c_d_generating_products():
    cg, dg = c_d_via_genfun(8)
    assert cg[(1,)] == 2
    assert (1,) not in dg
    assert cg[()] == 1 and dg[()] == 1
    for w in range(9):
        for pi in all_partitions(w):
            assert cg.get(pi, Fraction(0)) == c_pi(pi), pi
            assert dg.get(pi, Fraction(0)) == d_pi(pi), pi


def test_c_d_block_multiplicativity():
    for w in range(1, 9):
        for pi in all_partitions(w):
            pc = Fraction(1)
            pd = Fraction(1)
            for v, m in multiplicities(pi).items():
                pc *= c_pi((v,) * m)
                pd *= d_pi((v,) * m)
            assert pc == c_pi(pi)
            assert pd == d_pi(pi)


def test_a_examples():
    assert a_plus((1, 1)) == 3 and a_minus((1, 1)) == 1
    assert a_plus((2,)) == 2 and a_minus((2,)) == 0
    assert a_plus(()) == 1 and a_minus(()) == 1
    for w in (1, 3, 5, 7, 9):
        for lam in all_partitions(w):
            assert a_minus(lam) == 0


def test_a_three_route_agreement():
    for w in range(9):
        for lam in all_partitions(w):
            ap = a_plus(lam)
            am = a_minus(lam)
            assert a_plus_from_characters(lam) == ap, lam
            assert a_minus_from_characters(lam) == am, lam
            assert a_plus_from_pieri(lam) == ap, lam
            assert a_minus_from_pieri(lam) == am, lam


def test_pieri_route_through_weight_12():
    # the horizontal-strip count is cheap, so it runs past the other routes
    for w in range(13):
        for lam in all_partitions(w):
            assert a_plus_from_pieri(lam) == a_plus(lam), lam
            assert a_minus_from_pieri(lam) == a_minus(lam), lam


def test_formula_path_modules_carry_production_routes_only():
    # the cross-check routes to a+ / a- live in verify, and the package
    # root exports the formulas' API and nothing of the reference layers
    import inspect
    import realcharvar
    from realcharvar import algebra, symfun
    defined = {name for name, obj in vars(symfun).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == symfun.__name__}
    assert defined == {"a_plus", "a_minus"}
    assert realcharvar.__all__ == [
        "HalfPowerPolynomial", "SurfaceData", "MATCHED", "TRANSPOSED",
        "e_poly", "e_poly_component", "euler_char_component",
        "gen_function_check", "complex_curve_e_poly"]
    assert all(hasattr(realcharvar, name) for name in realcharvar.__all__)
    assert not hasattr(algebra, "pleth_exp")
