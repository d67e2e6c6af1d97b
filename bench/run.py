"""Cold-start benchmark of realcharvar: rank tables, the generating-function
identity and the finite-field oracle.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ranks|genfun|oracle --seed N \
        --seconds S --trace 0|1

Each pass starts a fresh single-threaded worker (worker.py), so every cache
starts empty, and sends it the workload's requests one at a time (a closed
loop with one client).  Every reply is checked (checks.py).  Passes repeat
until the next one would overrun --seconds.  With --trace 0 the last line
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it reports
the per-layer metrics, from traced passes alternated with untraced ones.
See README.md in this directory for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

from checks import Pass, self_test

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5          # extra workers started only to time set-up
PASS_TIMEOUT = 150        # seconds before a stuck worker is killed
ENV_NOTE = ("CPU frequency is not pinned and cores are not isolated here; "
            "wall and CPU time of one pass vary by about 10-15% run to run")


# -- workloads: requests made from the seed ----------------------------------

def _cli(cmd, n, g, r, k=None):
    args = [cmd, "--n", str(n), "--g", str(g), "--r", str(r)]
    if k is not None:
        args += ["--k", str(k)]
    return {"op": "cli", "args": args + ["--format", "json"],
            "meta": {"n": n, "g": g, "r": r, "k": k}}


# genus, top rank, choices of r; every choice gives the same odd-k set
RANKS_SURFACES = ((4, 9, (3, 4)), (1, 14, (1, 2)))


def ranks_surface(g, n_max, r):
    reqs = []
    for n in range(1, n_max + 1):
        reqs.append(_cli("epoly", n, g, r))
        for k in range(1, r + 1, 2):
            reqs += [_cli("component", n, g, r, k), _cli("euler", n, g, r, k)]
    return reqs


def ranks(rng):
    return [req for g, n_max, rs in RANKS_SURFACES
            for req in ranks_surface(g, n_max, rng.choice(rs))]


GENFUN_IDENTITY = ((0, 6), (2, 10), (3, 8), (4, 7))     # (g, N)
GENFUN_COMPLEX = ((8, 2), (7, 3))                       # (n, g)


def genfun(rng):
    reqs = [{"op": "gen_function_check", "args": [N, g, rng.randint(1, g + 1)]}
            for g, N in GENFUN_IDENTITY]
    return reqs + [{"op": "complex_curve_e_poly", "args": [n, g]}
                   for n, g in GENFUN_COMPLEX]


def _surfaces(g_max):
    return [(g, r) for g in range(g_max + 1) for r in range(1, g + 2)]


def oracle(rng):
    reqs = [{"op": "count", "args": [1, q, g, r, q - 1]}
            for q in (3, 5, 7, 11, 13) for g, r in _surfaces(3)]
    for q in (5, 13, 17):            # q = 1 mod 4, so primitive 4th roots exist
        roots = [x for x in range(2, q) if x * x % q == q - 1]
        rng.shuffle(roots)
        for g, r in _surfaces(3):
            for k in [None] + list(range(1, r + 1, 2)):
                reqs.append({"op": "compare",
                             "args": [2, q, g, r, k, "matched", roots[0]]})
            if r >= 2:
                reqs.append({"op": "compare",
                             "args": [2, q, g, r, None, "transposed", roots[0]]})
            reqs += [{"op": "count", "args": [2, q, g, r, xi]} for xi in roots]
    for q in (3, 5):
        reqs += [{"op": op, "args": [3, q]}
                 for op in ("class_table", "F_closed", "F_brute")]
    return reqs


WORKLOADS = {"ranks": ranks, "genfun": genfun, "oracle": oracle}


def make_requests(workload, seed):
    rng = random.Random(seed)
    reqs = WORKLOADS[workload](rng)
    rng.shuffle(reqs)
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs


# -- one worker process --------------------------------------------------------

def _start_worker(trace, spans_path):
    # no bytecode is written, so the worker touches no file outside the
    # checkout and every worker of a run starts from the same files
    env = dict(os.environ, REALCHARVAR_ORACLE_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), SRC,
         "1" if trace else "0", spans_path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        cwd=ROOT)


def _ask(proc, message):
    "Send one request and wait for its answer; None if the worker is gone."
    try:
        proc.stdin.write(json.dumps(message) + "\n")
        proc.stdin.flush()
    except (BrokenPipeError, OSError):
        return None
    line = proc.stdout.readline()
    return json.loads(line) if line else None


def run_worker(requests, digests, trace, spans_path):
    """One cold pass.  Returns set-up time, wall time from the first request
    to the last checked result, the checker, and the worker's exit answer."""
    started = time.monotonic()
    proc = _start_worker(trace, spans_path)
    watchdog = threading.Timer(PASS_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.monotonic() - started
        if not line:
            raise SystemExit("the worker did not start")
        ready = json.loads(line)
        check = Pass(digests)
        first = time.monotonic()
        for req in requests:
            reply = _ask(proc, {"id": req["id"], "op": req["op"],
                                "args": req["args"]})
            check.check(req, reply)
        check.finish()
        wall = time.monotonic() - first
        end = _ask(proc, {"op": "exit"})
        proc.wait(timeout=PASS_TIMEOUT)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return {"setup": setup, "wall": wall, "check": check, "ready": ready,
            "end": end, "traced": trace}


# -- traces ------------------------------------------------------------------

def layer_stats(path):
    "Self time and call count per span name, plus the worker's counters."
    with open(path) as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    children = defaultdict(float)
    for _sid, _nid, parent, _req, start, end in spans:
        children[parent] += end - start
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for sid, nid, _parent, _req, start, end in spans:
        self_s[names[nid]] += end - start - children[sid]
        calls[names[nid]] += 1
    return {"self_s": self_s, "calls": calls, "counters": data["counters"]}


def per_layer_metrics(spec, traced, untraced, problems):
    stats = [layer_stats(p["spans"]) for p in traced]
    counts = [(s["calls"], s["counters"]) for s in stats]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between traced passes")
    first = stats[0]
    out = {}
    for metric in spec:
        name = metric["name"]
        if name == "trace.overhead_s":
            value = (statistics.median(p["wall"] for p in traced)
                     - statistics.median(p["wall"] for p in untraced))
        elif name.endswith(".self_s"):
            value = statistics.median(s["self_s"][name[:-7]] for s in stats)
        elif name.endswith(".calls"):
            value = first["calls"][name[:-6]]
        else:
            value = first["counters"][name]
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


# -- the run -----------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _environment(seed, ready):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "realcharvar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {"seed": seed, "python": ready["python"], "numpy": ready["numpy"],
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "source_sha256": source.hexdigest(),
            "REALCHARVAR_ORACLE_THREADS": "1", "note": ENV_NOTE}


def measure(requests, digests, seconds, trace, tag):
    "Passes until the next would overrun `seconds`; set-up probes first."
    started = time.monotonic()
    probes = [] if trace else [run_worker([], digests, False, "")
                               for _ in range(SETUP_PROBES)]
    passes, longest = [], 0.0
    while True:
        traced = trace and len(passes) % 2 == 0
        spans = os.path.join(OUT, "%s-pass%d-spans.json" % (tag, len(passes)))
        t = time.monotonic()
        result = run_worker(requests, digests, traced, spans)
        result["spans"] = spans
        passes.append(result)
        longest = max(longest, time.monotonic() - t)
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.monotonic() - started + longest > seconds:
            return probes, passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "realcharvar", "__init__.py")):
        print("error: no realcharvar sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH, "digests.json")) as fh:
        digests = json.load(fh)
    broken = self_test(digests)
    if broken:
        print("error: %s" % broken, file=sys.stderr)
        return 1
    print("self-test: a wrong polynomial is counted as failed")

    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    requests = make_requests(args.workload, args.seed)
    probes, passes = measure(requests, digests, args.seconds, bool(args.trace), tag)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = len(requests) * len(passes)
    failed = sum(len(p["check"].failed) for p in passes)
    problems = [msg for p in passes for msg in p["check"].problems]
    walls = [p["wall"] for p in untraced]
    setups = [p["setup"] for p in probes + untraced]
    rss = [p["end"]["maxrss_kb"] / 1024 for p in untraced if p["end"]]
    summary = {
        "wall_s": (statistics.median(walls), "s", walls),
        "setup_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (statistics.median(rss or [0.0]), "MB", rss),
    }
    if args.trace:
        metrics = per_layer_metrics(spec["per_layer"], traced, untraced, problems)
    else:
        metrics = {m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    env = _environment(args.seed, passes[0]["ready"])
    print("workload %s: %d requests per pass, %d passes (%d traced), "
          "seed %d" % (args.workload, len(requests), len(passes), len(traced),
                       args.seed))
    for name, (value, unit, samples) in summary.items():
        q1, q3 = _quartiles(samples) if samples else (value, value)
        print("  %-12s %10.4f %-3s  quartiles %.4f .. %.4f  (n=%d)"
              % (name, value, unit, q1, q3, len(samples)))
    print("  %-12s %10.4f      %d failed of %d attempted"
          % ("failed_frac", failed / attempted, failed, attempted))
    for msg in problems:
        print("  problem: %s" % msg)
    print("  env: %s" % json.dumps(env))
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "env": env, "requests": len(requests),
              "passes": len(passes), "traced_passes": len(traced),
              "problems": problems,
              "samples": {k: v[2] for k, v in summary.items()},
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
