"""The benchmark's traced mode (bench/worker.py with trace 1) wraps package
functions and methods by name and reads the kernel's nbytes.  This drives a
traced worker with one three-atom rank-2 count (a character sum, which
builds no kernel) and one CLI call, and builds the kernel, which no count
reaches, under the worker's tracing; so a refactor that breaks the wrapping
fails here rather than in a benchmark run."""

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


def test_traced_worker_sees_the_rational_arithmetic(tmp_path):
    "A genus-0 product identity runs through the wrapped product and gcd."
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
    calls = {}
    for span in trace["spans"]:
        name = trace["names"][span[1]]
        calls[name] = calls.get(name, 0) + 1
    assert calls.get("algebra.poly_mul", 0) > 0
    assert calls.get("algebra.poly_gcd", 0) > 0
    assert calls.get("algebra.pleth_log", 0) > 0
    assert calls.get("algebra.formal_log", 0) > 0
    assert trace["counters"]["algebra.poly_mul.coeff_products"] > 0


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
