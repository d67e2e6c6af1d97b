"""Benchmark worker: one cold process that serves requests in a closed loop.

Started by run.py as ``python3 worker.py <src-dir> <trace 0|1> <spans-file>``.
It imports realcharvar from <src-dir>, prints a ``ready`` line, then reads one
JSON request per line on stdin and answers each with one JSON line on stdout.
The ``exit`` request ends the process; its answer carries the peak resident
memory, and in traced mode the worker first writes its spans to <spans-file>.

Tracing wraps the package's public functions from outside (module attributes
and class methods), so the package itself is not edited.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def load_package(src):
    init = os.path.join(src, "realcharvar", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("worker: no realcharvar package under %s" % src)
    sys.path.insert(0, src)
    import numpy
    import realcharvar
    import realcharvar.cli
    import realcharvar.fforacle
    here = os.path.realpath(os.path.dirname(realcharvar.__file__))
    if here != os.path.realpath(os.path.dirname(init)):
        raise SystemExit("worker: imported realcharvar from %s, not %s"
                         % (here, src))
    return numpy


# -- tracing ---------------------------------------------------------------

class Tracer:
    """Spans (id, name, parent, request, start, end) kept in memory.

    Span 0 is the implicit root; a request's own span has parent 0, and each
    wrapped call nested inside it names the innermost open span as parent.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.stack = [0]
        self.request = 0
        self.next_id = 1
        self.counters = {}

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, pre=None, post=None):
        """Return fn wrapped in a span; pre(args) runs before the call and
        its value is handed to post(args, result, state) after the span."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            state = pre(args) if pre is not None else None
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, nid, parent, self.request, start, end))
            if post is not None:
                post(args, result, state)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh)


def _nonsingular_symmetric(n, q):
    "Invertible symmetric n x n matrices over F_q, q odd (MacWilliams 1969)."
    count = q ** (n * (n + 1) // 2)
    den = 1
    for i in range(1, (n + 1) // 2 + 1):
        count *= q ** (2 * i - 1) - 1
        den *= q ** (2 * i - 1)
    return count // den


def install_tracing(tracer):
    """Wrap the functions named in the per-layer metrics.

    Every module of the package that imported one of them by name gets the
    wrapper too, so calls between modules are seen as well.  Returns a
    function that records the hook-polynomial cache statistics at the end.
    """
    from realcharvar import algebra, cli, epoly, fforacle, partitions, symfun
    HPP = algebra.HalfPowerPolynomial
    hook_cache_info = epoly.hook_polynomial.cache_info
    replaced = {}
    tracer.counters = dict.fromkeys((
        "partitions.enumerated", "epoly.multisets",
        "algebra.poly_mul.coeff_products", "fforacle.classes",
        "fforacle.kernel.bytes", "fforacle.kernel.swept",
        "fforacle.class_fn_N.swept", "fforacle.class_fn_F_brute.swept",
        "cli.output_bytes"), 0)

    def patch_function(module, attr, name, pre=None, post=None):
        fn = getattr(module, attr)
        replaced[id(fn)] = (fn, tracer.wrap(name, fn, pre, post))

    def patch_method(cls, attrs, name, pre=None, post=None):
        fn = cls.__dict__[attrs[0]]
        wrapped = tracer.wrap(name, fn, pre, post)
        for attr in attrs:
            setattr(cls, attr, wrapped)

    partitions_cache_info = partitions.all_partitions.cache_info

    def count_new_partitions(args, result, misses_before):
        if partitions_cache_info().misses > misses_before:
            tracer.add("partitions.enumerated", len(result))

    patch_function(partitions, "all_partitions", "partitions.all_partitions",
                   lambda args: partitions_cache_info().misses,
                   count_new_partitions)
    patch_function(symfun, "a_plus", "symfun.a_coeff")
    patch_function(symfun, "a_minus", "symfun.a_coeff")
    patch_function(epoly, "partition_multisets", "epoly.partition_multisets",
                   post=lambda args, result, state:
                   tracer.add("epoly.multisets", len(result)))
    for attr in ("hook_polynomial", "v_n", "e_poly", "e_poly_component",
                 "euler_char_component", "gen_function_check",
                 "complex_curve_e_poly"):
        patch_function(epoly, attr, "epoly." + attr)

    def count_products(args, result, state):
        a, b = args
        tracer.add("algebra.poly_mul.coeff_products",
                   len(a.terms) * (len(b.terms) if isinstance(b, HPP) else 1))

    patch_method(HPP, ("__mul__", "__rmul__"), "algebra.poly_mul",
                 post=count_products)
    for attr in ("poly_gcd", "poly_divmod", "formal_log", "formal_exp",
                 "pleth_log"):
        patch_function(algebra, attr, "algebra." + attr)
    patch_method(algebra.TruncatedSeries, ("inverse",), "algebra.series_inverse")

    def count_new_table(args, result, before):
        if before:
            tracer.add("fforacle.classes", result.class_count())

    patch_function(fforacle, "class_table", "fforacle.class_table",
                   lambda args: (args[0], args[1].q) not in fforacle._TABLES,
                   count_new_table)
    patch_method(fforacle.ClassTable, ("element_class_array",),
                 "fforacle.element_class_array")

    def count_kernel(args, result, before_missing):
        table = args[0]
        if before_missing:
            tracer.add("fforacle.kernel.bytes", result.nbytes)
            tracer.add("fforacle.kernel.swept",
                       table.class_count() * table.group_order)

    patch_method(fforacle.ClassTable, ("kernel",), "fforacle.kernel",
                 lambda args: args[0]._kernel is None, count_kernel)

    def count_n_sweep(args, result, state):
        table = args[0]
        if table.n == 2:
            tracer.add("fforacle.class_fn_N.swept", table.group_order)

    def count_f_sweep(args, result, state):
        table = args[0]
        tracer.add("fforacle.class_fn_F_brute.swept",
                   table.class_count() * _nonsingular_symmetric(table.n, table.q))

    patch_function(fforacle, "class_fn_N", "fforacle.class_fn_N",
                   post=count_n_sweep)
    patch_function(fforacle, "class_fn_F_closed", "fforacle.class_fn_F_closed")
    patch_function(fforacle, "class_fn_F_brute", "fforacle.class_fn_F_brute",
                   post=count_f_sweep)
    for attr in ("convolve_at", "formula_count"):
        patch_function(fforacle, attr, "fforacle." + attr)
    patch_function(cli, "main", "cli.main")

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "realcharvar"
                                     or name.startswith("realcharvar."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    def record_hook_cache():
        info = hook_cache_info()
        lookups = info.hits + info.misses
        tracer.counters["epoly.hook_polynomial.built"] = info.misses
        tracer.counters["epoly.hook_polynomial.hit_ratio"] = (
            info.hits / lookups if lookups else 0.0)

    return record_hook_cache


# -- requests --------------------------------------------------------------

def request_handlers():
    from realcharvar import cli, epoly, fforacle
    surface = epoly.SurfaceData

    def run_cli(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def count(n, q, g, r, xi):
        return fforacle.count_representation_variety(
            n, fforacle.PrimeField(q), surface(g, r), xi)

    def compare(n, q, g, r, k, convention, xi):
        return fforacle.compare_with_formula(
            n, fforacle.PrimeField(q), surface(g, r), k, convention, xi)

    def table(n, q):
        return fforacle.class_table(n, fforacle.PrimeField(q))

    def class_table(n, q):
        return {"classes": table(n, q).class_count(),
                "sizes": list(table(n, q).sizes)}

    return {
        "cli": run_cli,
        "gen_function_check": lambda N, g, r: epoly.gen_function_check(
            N, surface(g, r)),
        "complex_curve_e_poly": lambda n, g: epoly.complex_curve_e_poly(
            n, g).to_pair(),
        "count": count,
        "compare": compare,
        "class_table": class_table,
        "F_closed": lambda n, q: list(
            fforacle.class_fn_F_closed(table(n, q)).values),
        "F_brute": lambda n, q: list(
            fforacle.class_fn_F_brute(table(n, q)).values),
    }


def main(argv):
    src, trace, spans_path = argv[1], argv[2] == "1", argv[3]
    reply = sys.stdout
    numpy = load_package(src)
    handlers = request_handlers()
    if trace:
        tracer = Tracer()
        record_hook_cache = install_tracing(tracer)
        handlers = {op: tracer.wrap("request", fn)
                    for op, fn in handlers.items()}
    reply.write(json.dumps({"ready": True, "python": platform.python_version(),
                            "numpy": numpy.__version__}) + "\n")
    reply.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "exit":
            if trace:
                record_hook_cache()
                tracer.dump(spans_path)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply.write(json.dumps({"maxrss_kb": rss_kb}) + "\n")
            reply.flush()
            return 0
        if trace:
            tracer.request = req["id"]
        try:
            value = handlers[req["op"]](*req["args"])
            answer = {"id": req["id"], "value": value}
        except Exception as exc:  # any failure is reported, never fatal
            answer = {"id": req["id"], "error": "%s: %s"
                      % (type(exc).__name__, exc)}
        if trace and req["op"] == "cli" and "value" in answer:
            tracer.add("cli.output_bytes",
                       len(answer["value"]["stdout"].encode()))
        reply.write(json.dumps(answer) + "\n")
        reply.flush()
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
