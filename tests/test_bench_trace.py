"""The benchmark's traced mode (bench/worker.py with trace 1) wraps package
functions and methods by name and reads the kernel's nbytes.  This drives a
traced worker with one three-atom rank-2 count (a character sum, which
builds no kernel), one CLI call and one product-identity check, and builds
the kernel and runs the rational reference of the identity, which no
request reaches, under the worker's tracing; so a refactor that breaks the
wrapping fails here rather than in a benchmark run."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_worker_serves_a_count_and_a_cli_call(tmp_path):
    spans = tmp_path / "spans.json"
    requests = [
        {"op": "count", "args": [2, 5, 2, 1, 2], "id": 0},
        {"op": "cli", "args": ["epoly", "--n", "2", "--g", "1", "--r", "1"],
         "id": 1},
        {"op": "exit"},
    ]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(ROOT / "src"),
         "1", str(spans)],
        input="".join(json.dumps(req) + "\n" for req in requests),
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    ready, count, cli, done = map(json.loads, proc.stdout.splitlines())
    assert ready["ready"] and "maxrss_kb" in done
    assert count == {"id": 0, "value": 480 * 1984}
    assert cli["value"]["exit"] == 0
    assert cli["value"]["stdout"].startswith("E_2(q; g=1, r=1, matched) = ")
    counters = json.loads(spans.read_text())["counters"]
    assert counters["fforacle.kernel.bytes"] == 0
    assert counters["cli.output_bytes"] == len(cli["value"]["stdout"].encode())


REFERENCE_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import worker
from realcharvar import epoly, verify
tracer = worker.Tracer()
worker.install_tracing(tracer)
verdict = verify.gen_function_reference(4, epoly.SurfaceData(0, 1))
print(json.dumps({"verdict": verdict, "counters": tracer.counters,
                  "spans": [tracer.names[span[1]] for span in tracer.spans]}))
"""


def test_traced_worker_sees_the_rational_arithmetic(tmp_path):
    """The rational reference of the product identity runs through the
    wrapped product, gcd, log and plethystic log; a traced genus-0 identity
    check request, on packed ints, runs through none of the gcd and log."""
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_SCRIPT, str(ROOT / "src"),
         str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["verdict"] is True
    for name in ("algebra.poly_mul", "algebra.poly_gcd", "algebra.pleth_log",
                 "algebra.formal_log"):
        assert name in traced["spans"], name
    assert traced["counters"]["algebra.poly_mul.coeff_products"] > 0

    spans = tmp_path / "spans.json"
    requests = [{"op": "gen_function_check", "args": [4, 0, 1], "id": 0},
                {"op": "exit"}]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(ROOT / "src"),
         "1", str(spans)],
        input="".join(json.dumps(req) + "\n" for req in requests),
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[1]) == {"id": 0, "value": True}
    trace = json.loads(spans.read_text())
    calls = {trace["names"][span[1]] for span in trace["spans"]}
    assert "epoly.gen_function_check" in calls
    assert not calls & {"algebra.poly_gcd", "algebra.pleth_log"}


KERNEL_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import worker
from realcharvar import fforacle
tracer = worker.Tracer()
worker.install_tracing(tracer)
K = fforacle.class_table(2, fforacle.PrimeField(5)).kernel()
print(json.dumps({"nbytes": K.nbytes, "counters": tracer.counters,
                  "spans": [tracer.names[span[1]] for span in tracer.spans]}))
"""


def test_traced_kernel_records_its_bytes_and_span():
    proc = subprocess.run(
        [sys.executable, "-c", KERNEL_SCRIPT, str(ROOT / "src"),
         str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["counters"]["fforacle.kernel.bytes"] == traced["nbytes"] \
        == 18432
    assert "fforacle.kernel" in traced["spans"]
