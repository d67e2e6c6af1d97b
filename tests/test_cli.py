import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from realcharvar import cli, epoly
from realcharvar.algebra import HalfPowerPolynomial, ZERO
from realcharvar.cli import UsageError, main, parse_n_range
from realcharvar.epoly import (SurfaceData, e_poly, e_poly_component,
                               euler_char_component)


def run_cli(argv):
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_parse_n_range():
    assert list(parse_n_range("3")) == [3]
    assert list(parse_n_range("1-4")) == [1, 2, 3, 4]
    assert list(parse_n_range("2..3")) == [2, 3]
    for text in ("1-", "abc", "-", "1..x", "2-1", "0-3"):
        with pytest.raises(UsageError, match="bad rank range"):
            parse_n_range(text)
    with pytest.raises(UsageError, match="rank must be positive"):
        parse_n_range("0")


def test_epoly_json_example():
    code, out = run_cli(["epoly", "--n", "1", "--g", "2", "--r", "1",
                         "--format", "json"])
    assert code == 0
    records = json.loads(out)
    assert records[0]["poly"] == [[0, 1, 1], [2, -2, 1], [4, 1, 1]]
    assert records[0]["convention"] == "matched"


def test_epoly_json_roundtrip():
    code, out = run_cli(["epoly", "--n", "1-3", "--g", "2", "--r", "2",
                         "--format", "json"])
    assert code == 0
    surf = SurfaceData(2, 2)
    for rec in json.loads(out):
        poly = HalfPowerPolynomial.from_triples(rec["poly"])
        assert poly == e_poly(rec["n"], surf)


def test_epoly_deterministic():
    args = ["epoly", "--n", "1-3", "--g", "3", "--r", "2", "--format", "json"]
    assert run_cli(args) == run_cli(args)


def test_epoly_rank_17():
    code, out = run_cli(["epoly", "--n", "17", "--g", "1", "--r", "1",
                         "--format", "json"])
    assert code == 0
    assert json.loads(out)[0]["poly"] == [[0, -1, 1], [2, 1, 1]]  # q - 1


def _stdlib_json(doc):
    "The reference layout that the CLI's JSON writer reproduces."
    return json.dumps(doc, indent=2, default=HalfPowerPolynomial.to_triples)


def _records(g, r, k, ns):
    surf = SurfaceData(g, r)
    return [{"n": n, "g": g, "r": r, "k": k, "convention": "matched",
             "poly": (e_poly(n, surf) if k is None
                      else e_poly_component(n, surf, k))} for n in ns]


def test_json_writer_matches_the_stdlib_layout(monkeypatch):
    """The documents of epoly, component, euler and genfun are byte for
    byte what json.dumps(indent=2) writes: at genus 0 E_n = 0 for n > 1
    and is written as [], a Fraction coefficient as its numerator and
    denominator, "check": false, and empty lists and dicts inline."""
    euler = [{"n": n, "g": 2, "r": 3, "k": 3,
              "euler": str(euler_char_component(n, SurfaceData(2, 3), 3))}
             for n in (1, 2, 3)]
    docs = [_records(2, 2, None, range(1, 4)), _records(0, 1, None, (1, 2)),
            _records(0, 1, 1, (1, 3)), _records(1, 2, 1, (5,)), euler,
            {"check": False, "results": _records(3, 1, None, (1, 2))},
            {"check": True, "results": []}, [], {}, [[], {}, ZERO],
            [{"n": 1, "poly": HalfPowerPolynomial(
                {-3: Fraction(-3, 4), 0: 1, 4: Fraction(5, 2)})}],
            {"caf\u00e9 \"k\"": None, "x": "\u00e9\n"}]
    for doc in docs:
        assert cli._json(doc) == _stdlib_json(doc)
    # and each command writes its document through the writer
    for argv, doc in (
            (["epoly", "--n", "1-3", "--g", "2", "--r", "2"], docs[0]),
            (["epoly", "--n", "1-2", "--g", "0", "--r", "1"], docs[1]),
            (["component", "--n", "5", "--g", "1", "--r", "2", "--k", "1"],
             docs[3]),
            (["euler", "--n", "1-3", "--g", "2", "--r", "3", "--k", "3"],
             euler)):
        assert run_cli(argv + ["--format", "json"]) == (
            0, _stdlib_json(doc) + "\n")
    monkeypatch.setattr(cli, "gen_function_check", lambda *args: False)
    assert run_cli(["genfun", "--N", "2", "--g", "3", "--r", "1",
                    "--format", "json"]) == (1, _stdlib_json(docs[5]) + "\n")


def test_euler_reuses_the_component_of_the_same_request(monkeypatch):
    "component then euler at the same (n, g, r, k) assemble E_n^k once."
    calls = []
    adams_sum = epoly._adams_sum

    def spy(*args):
        calls.append(args[2])
        return adams_sum(*args)

    monkeypatch.setattr(epoly, "_ASSEMBLED", {})
    monkeypatch.setattr(epoly, "_adams_sum", spy)
    request = ["--n", "3", "--g", "2", "--r", "3", "--k", "1",
               "--format", "json"]
    code, out = run_cli(["component"] + request)
    assert code == 0 and calls == [3]
    code, out = run_cli(["euler"] + request)
    assert code == 0 and json.loads(out)[0]["euler"] == "-1"
    assert calls == [3]
    # a bad k is refused before the lookup, even with a value stored for it
    epoly._ASSEMBLED[3, 2, 3, 2, "matched"] = ZERO
    code, out = run_cli(["euler"] + request[:7] + ["2"])
    assert (code, out) == (1, "")


def test_euler_example():
    code, out = run_cli(["euler", "--n", "3", "--g", "2", "--r", "1",
                         "--k", "1"])
    assert code == 0
    assert out.strip() == "-1"


def test_component_csv():
    code, out = run_cli(["component", "--n", "2", "--g", "2", "--r", "3",
                         "--k", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,g,r,k,convention,poly"
    assert lines[1].startswith("2,2,3,1,matched,")


def test_latex_and_xy():
    code, out = run_cli(["epoly", "--n", "1", "--g", "1", "--r", "1",
                         "--format", "latex"])
    assert code == 0 and out.strip() == "E_{1} = q -1"
    code, out = run_cli(["epoly", "--n", "1", "--g", "1", "--r", "1",
                         "--format", "latex", "--xy"])
    assert code == 0 and out.strip() == "E_{1} = xy -1"


def test_verify_telescope_example():
    code, out = run_cli(["verify", "telescope", "--g", "1", "--r", "2",
                         "--N", "6"])
    assert code == 0
    assert "pass" in out and "2(q-1)" in out


def test_verify_telescope_genus0():
    code, out = run_cli(["verify", "telescope", "--g", "0", "--r", "1",
                         "--N", "5"])
    assert code == 0 and "pass" in out


def test_verify_telescope_default_families():
    code, out = run_cli(["verify", "telescope"])
    assert code == 0
    assert out == ("telescope PASS  g=0: (1,0,...,0); "
                   "g=1: q-1 and 2(q-1) up to rank 6\n")


def test_genfun_check_line():
    code, out = run_cli(["genfun", "--N", "3", "--g", "1", "--r", "1"])
    assert code == 0
    assert "log-product identity at N=3: pass" in out


def test_formula_commands_do_not_load_numpy():
    """Only verify needs the finite-field oracle and with it numpy; only
    genfun loads the identity check.  Neither the formula commands nor a
    rank-2 or rank-3 count load the reference routes of verify and
    ffreference."""
    import os
    import pathlib
    import subprocess
    import sys
    import realcharvar
    src = str(pathlib.Path(realcharvar.__file__).resolve().parents[1])
    script = (
        "import sys, contextlib, io\n"
        "import realcharvar.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['epoly', '--n', '1-2', '--g', '1', '--r', '1'],\n"
        "                 ['component', '--n', '2', '--g', '1', '--r', '1',\n"
        "                  '--k', '1'],\n"
        "                 ['euler', '--n', '2', '--g', '1', '--r', '1',\n"
        "                  '--k', '1']):\n"
        "        assert realcharvar.cli.main(argv) == 0\n"
        "    assert 'realcharvar.kronecker' not in sys.modules\n"
        "    argv = ['genfun', '--N', '2', '--g', '1', '--r', '1']\n"
        "    assert realcharvar.cli.main(argv) == 0\n"
        "assert 'realcharvar.kronecker' in sys.modules\n"
        "assert 'numpy' not in sys.modules\n"
        "from realcharvar import fforacle\n"
        "from realcharvar.epoly import SurfaceData\n"
        "for n, q, xi in ((2, 5, 2), (3, 7, 3)):\n"
        "    assert fforacle.compare_with_formula(\n"
        "        n, fforacle.PrimeField(q), SurfaceData(0, 1), xi=xi)['equal']\n"
        "assert 'realcharvar.verify' not in sys.modules\n"
        "assert 'realcharvar.ffreference' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_bad_component_index():
    code, out = run_cli(["component", "--n", "2", "--g", "2", "--r", "2",
                         "--k", "2"])
    assert code == 1


def test_bad_surface():
    code, out = run_cli(["epoly", "--n", "1", "--g", "1", "--r", "5"])
    assert code == 2


def test_unknown_suite():
    code, out = run_cli(["verify", "nonsense"])
    assert code == 2


def test_verify_single_suite():
    code, out = run_cli(["verify", "closed-forms"])
    assert code == 0
    assert "closed-forms" in out and "PASS" in out


def test_verify_oracle_reports_jsonl():
    code, out = run_cli(["verify", "oracle-main", "--reports"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("oracle-main PASS")
    payload = [json.loads(line) for line in lines[:-1]]
    assert all(rec["n"] == 2 for rec in payload)
    assert any(rec["convention"] == "transposed" and not rec["equal"]
               for rec in payload)
    assert all(rec["equal"] for rec in payload
               if rec["convention"] == "matched")


def test_verify_all_aggregates():
    code, out = run_cli(["verify", "all"])
    assert code == 0
    for name in ("closed-forms", "oracle-main", "oracle-rank1"):
        assert name in out
    assert "FAIL" not in out


def _call(argv):
    "Exit code, stdout and stderr of one main call; argparse exits count."
    import contextlib
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_reused():
    from realcharvar.cli import build_parser
    calls = (
        ["epoly", "--n", "1-2", "--g", "2", "--r", "1", "--format", "json"],
        ["component", "--n", "2", "--g", "2", "--r", "3"],  # no --k: usage
        ["euler", "--n", "3", "--g", "2", "--r", "1", "--k", "1"],
        ["epoly", "--n", "1", "--g", "1", "--r", "5"],      # bad surface
        ["genfun", "--N", "3", "--g", "1", "--r", "1"],
        ["component", "--n", "2", "--g", "2", "--r", "3", "--k", "1",
         "--format", "csv"],
    )
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_call(argv))
    build_parser.cache_clear()
    reused = [_call(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 0]
    assert "--k" in reused[1][2]


@pytest.mark.parametrize("exc,line", [
    (RecursionError("maximum recursion depth exceeded"),
     "RecursionError: maximum recursion depth exceeded"),
    (MemoryError(), "MemoryError"),
])
def test_resource_errors_are_one_line(monkeypatch, exc, line):
    from realcharvar import cli

    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "e_poly", fail)
    code, out, err = _call(["epoly", "--n", "2", "--g", "2", "--r", "1"])
    assert (code, out, err) == (1, "", line + "\n")


def test_an_interrupt_is_one_line(monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "e_poly", interrupt)
    assert _call(["epoly", "--n", "2", "--g", "2", "--r", "1"]) == (
        130, "", "error: interrupted\n")


def _module(argv, stdout):
    "python -m realcharvar argv, started with the given stdout."
    import realcharvar
    src = str(pathlib.Path(realcharvar.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "realcharvar"] + argv,
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("argv", [
    ["verify", "oracle-main", "--reports"],
    ["epoly", "--n", "1-3", "--g", "2", "--r", "1", "--format", "json"],
])
def test_a_pipe_closed_early_is_one_line(argv):
    # the reader closes the pipe before the command writes anything
    proc = _module(argv, subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err.startswith("error: output failed: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_is_one_line():
    with open("/dev/full", "w") as full:
        proc = _module(["epoly", "--n", "1-3", "--g", "2", "--r", "1"], full)
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err.startswith("error: output failed: ") and err.count("\n") == 1


def test_broken_oracle_invariant_is_one_line(monkeypatch):
    # a wrong centralizer order breaks the class equation of the first
    # table that verify builds; the CLI reports it without a traceback
    from realcharvar import fforacle
    monkeypatch.setattr(fforacle, "_TABLES", {})
    monkeypatch.setattr(fforacle, "centralizer_order", lambda lam, q: 1)
    code, out, err = _call(["verify", "oracle-algebra"])
    assert code == 1 and out == ""
    assert err.startswith("ExactnessError: class equation failed")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,start", [
    (["epoly", "--n", "40", "--g", "3", "--r", "2"],
     "CostLimit: rank 40 at g = 3: a packed coefficient would exceed"),
    (["epoly", "--n", "3", "--g", "200", "--r", "1"],
     "CostLimit: rank 3 at g = 200: a packed coefficient would exceed"),
    (["epoly", "--n", "1", "--g", "10000000", "--r", "10000001"],
     "CostLimit: rank 1 at g = 10000000: a packed coefficient would exceed"),
    (["epoly", "--n", "1-26", "--g", "0", "--r", "1"],
     "CostLimit: rank 26 at g = 0, r = 1: the predicted work exceeds"),
    (["euler", "--n", "1-1000000", "--g", "1", "--r", "1", "--k", "1"],
     "CostLimit: rank 1000000 at g = 1, r = 1: the predicted work exceeds"),
    (["genfun", "--N", "40", "--g", "2", "--r", "1"],
     "CostLimit: rank 40 at g = 2, r = 1: the predicted work exceeds"),
    (["genfun", "--N", "26", "--g", "0", "--r", "1"],
     "CostLimit: rank 26 at g = 0, r = 1: the predicted work exceeds"),
    (["genfun", "--N", "24", "--g", "4", "--r", "3"],
     "CostLimit: rank 24 at g = 4, r = 3: the predicted work exceeds"),
    (["verify", "telescope", "--g", "0", "--r", "1", "--N", "26"],
     "CostLimit: rank 26 at g = 0, r = 1: the predicted work exceeds"),
])
def test_costly_requests_are_refused_before_any_rank(argv, start):
    started = time.perf_counter()
    code, out, err = _call(argv)
    assert time.perf_counter() - started < 1
    assert (code, out) == (1, "")
    assert err.startswith(start) and err.count("\n") == 1


def test_a_huge_rank_range_is_refused_without_listing_its_ranks():
    import tracemalloc
    started = time.perf_counter()
    code, out, err = _call(["epoly", "--n", "1-100000000", "--g", "1",
                            "--r", "1"])
    assert time.perf_counter() - started < 1
    assert (code, out) == (1, "")
    assert err.startswith("CostLimit: rank 100000000 at g = 1, r = 1")
    assert err.count("\n") == 1
    tracemalloc.start()
    try:
        ranks = parse_n_range("1-100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks[-1] == 100000000 and peak < 2 ** 20


@pytest.mark.parametrize("argv", [
    ["verify", "telescope", "--g", "1", "--r", "1", "--N", "0"],
    ["verify", "telescope", "--g", "0", "--r", "1", "--N", "-1"],
    ["verify", "telescope", "--g", "1", "--r", "1", "--N", "-2"],
    ["verify", "telescope", "--N", "0"],
    ["verify", "telescope", "--r", "7"],
    ["verify", "telescope", "--g", "0", "--r", "2"],
    ["verify", "telescope", "--g", "1", "--r", "0"],
    ["epoly", "--n", "1-", "--g", "1", "--r", "1"],
    ["epoly", "--n", "abc", "--g", "1", "--r", "1"],
    ["component", "--n", "1..x", "--g", "1", "--r", "1", "--k", "1"],
    ["genfun", "--N", "0", "--g", "1", "--r", "1"],
    ["genfun", "--N", "-3", "--g", "1", "--r", "1"],
    ["verify", "closed-forms", "--N", "3"],
    ["verify", "all", "--g", "9"],
    ["verify", "oracle-rank1", "--reports"],
    ["verify", "telescope", "--reports"],
])
def test_malformed_numbers_are_usage_errors(argv):
    code, out, err = _call(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_genfun_refuses_a_nonpositive_order_before_pricing_it(monkeypatch):
    priced = []
    monkeypatch.setattr(cli, "check_cost",
                        lambda *args, **kw: priced.append(args))
    for argv in (["genfun", "--N", "0", "--g", "1", "--r", "1"],
                 ["genfun", "--N", "-3", "--g", "1", "--r", "5"]):
        assert _call(argv) == (
            2, "", "error: truncation order N must be positive\n")
    assert priced == []

