"""Checks that guard exactness raise ExactnessError, a typed error that
python -O cannot strip, and the CLI reports it as one line."""

import ast
import pathlib
from fractions import Fraction

import pytest

import realcharvar
from realcharvar import cli, epoly, fforacle, ffreference
from realcharvar.algebra import ExactnessError, OddExponent, U
from realcharvar.verify import exact_int

F3 = fforacle.PrimeField(3)


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(pathlib.Path(realcharvar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_exact_int():
    assert issubclass(ExactnessError, ArithmeticError)
    value = exact_int(Fraction(6, 3), "six thirds")
    assert value == 2 and type(value) is int
    with pytest.raises(ExactnessError, match="one half is not an integer"):
        exact_int(Fraction(1, 2), "one half")


def test_values_at_q_must_be_counts(monkeypatch):
    # an odd u-exponent in the E-polynomial raises rather than rounding, and
    # an F value that is not a nonnegative int is refused
    monkeypatch.setattr(epoly, "e_poly", lambda n, surf, conv: U)
    with pytest.raises(OddExponent):
        fforacle.formula_count(1, F3, epoly.SurfaceData(1, 1))
    table = fforacle.class_table(1, F3)
    monkeypatch.setattr(fforacle, "f_closed", lambda label, field: -1)
    with pytest.raises(ExactnessError, match="-1, not a count"):
        fforacle.class_fn_F_closed(table)


def test_sweep_hits_must_divide_class_sizes():
    table = fforacle.class_table(2, F3)
    hits = [2 * size for size in table.sizes]
    assert ffreference._per_element(hits, table).values == (2,) * len(hits)
    hits[-1] += 1
    with pytest.raises(ExactnessError):
        ffreference._per_element(hits, table)


def test_poly_div_exact_needs_a_factor():
    # t + 1 does not divide t^2 + 1 over F_3
    with pytest.raises(ExactnessError):
        ffreference.poly_div_exact((1, 0, 1), (1, 1), 3)
    assert ffreference.poly_div_exact((2, 0, 1), (1, 1), 3) == (2, 1)


def test_cli_reports_exactness_error(monkeypatch, capsys):
    def inexact(n, surf, convention):
        return exact_int(Fraction(1, 2), "E_%d at q = 1" % n)

    def singular(n, surf, convention):
        return Fraction(n, 0)

    for fake, err in ((inexact, "ExactnessError: E_1 at q = 1 is not an "
                                "integer: 1/2\n"),
                      (singular, "ZeroDivisionError: Fraction(1, 0)\n")):
        monkeypatch.setattr(cli, "e_poly", fake)
        code = cli.main(["epoly", "--n", "1", "--g", "2", "--r", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == err
