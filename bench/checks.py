"""Output checks for the benchmark workloads.

Every check is computed from the outputs the worker returned, with plain
integer arithmetic written here, never by calling the code under test.  A
request fails when it raised, when one of its own checks fails, or when a
check that ties it to other requests of the same pass fails.
"""

import hashlib
import json
from collections import defaultdict
from fractions import Fraction
from math import comb


def moebius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def gl_order(n, q):
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    return order


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _q_poly(triples):
    """{q-exponent: integer} from exchange triples, or None unless every
    coefficient is an integer and every power of q is whole and >= 0."""
    poly = {}
    for e, num, den in triples:
        if den != 1 or e % 2 or e < 0:
            return None
        poly[e // 2] = num
    return poly


def _value_at_one_after_dividing(poly, g):
    "E(q) / (q-1)^g at q = 1, or None when (q-1)^g does not divide E."
    taylor = [sum(c * comb(e, j) for e, c in poly.items()) for j in range(g + 1)]
    return taylor[g] if not any(taylor[:g]) else None


def _rank2_closed_form(q, g, r):
    "The paper's worked rank-2 formula, evaluated at q."
    q = Fraction(q)
    inner = ((q ** 3 - q) ** (g - 1) * 2 ** r
             + (q ** 2 - 1) ** (g - 1) * (3 ** r - 1)
             - (q ** 2 - q) ** (g - 1) * 2 ** (2 * r - 1))
    return (q - 1) ** g * inner / 2


class Pass:
    "Replies of one pass and the ids of the requests that failed."

    def __init__(self, digests):
        self.digests = digests
        self.failed = set()
        self.problems = []
        self.ranks = defaultdict(dict)      # (n, g, r) -> {(cmd, k): (id, value)}
        self.rank2 = defaultdict(dict)      # (q, g, r) -> {xi or ("k", k): (id, count)}
        self.transposed = {}                # id -> refuted
        self.f_data = defaultdict(dict)     # (n, q) -> {part: (id, value)}

    def fail(self, ids, why):
        ids = [ids] if isinstance(ids, int) else list(ids)
        self.failed.update(ids)
        if len(self.problems) < 20:
            self.problems.append("requests %s: %s" % (sorted(ids), why))

    def check(self, req, reply):
        "Check one reply as soon as it arrives."
        if reply is None or "error" in reply:
            self.fail(req["id"], reply["error"] if reply else "no reply")
            return
        try:
            getattr(self, "_" + req["op"].lower())(req, reply["value"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            self.fail(req["id"], "malformed output: %r" % (exc,))

    def finish(self):
        "Checks that span several requests; run once after the last reply."
        self._ranks_cross()
        self._oracle_cross()
        return self.failed

    # -- ranks: the CLI documents ------------------------------------------

    def _cli(self, req, value):
        rid, meta = req["id"], req["meta"]
        key = " ".join(req["args"])
        if value["exit"] != 0 or value["stderr"]:
            return self.fail(rid, "exit %r: %s" % (value["exit"], value["stderr"]))
        if sha256(value["stdout"]) != self.digests.get(key):
            return self.fail(rid, "digest of %r differs" % key)
        (doc,) = json.loads(value["stdout"])
        n, g, r, k = meta["n"], meta["g"], meta["r"], meta["k"]
        if (doc["n"], doc["g"], doc["r"], doc["k"]) != (n, g, r, k):
            return self.fail(rid, "document is for other parameters")
        cmd = req["args"][0]
        if cmd == "euler":
            euler = Fraction(doc["euler"])
            want = moebius(n) * n ** (g - 2) if n % 2 else 0
            if euler.denominator != 1 or (g >= 2 and euler != want):
                return self.fail(rid, "Euler characteristic %s" % euler)
            self.ranks[(n, g, r)][(cmd, k)] = (rid, int(euler))
            return
        poly = _q_poly(doc["poly"])
        if poly is None:
            return self.fail(rid, "not an integer polynomial in q")
        if cmd == "epoly" and g == 1 and poly != {0: -2 ** (r - 1),
                                                  1: 2 ** (r - 1)}:
            return self.fail(rid, "E_n at g=1 is not 2^(r-1)(q-1)")
        self.ranks[(n, g, r)][(cmd, k)] = (rid, poly)

    def _ranks_cross(self):
        for (n, g, r), got in self.ranks.items():
            comps = {k: got[("component", k)] for k in range(1, r + 1, 2)
                     if ("component", k) in got}
            comp_ids = [i for i, _ in comps.values()]
            comp_polys = [p for _, p in comps.values()]
            if ("epoly", None) in got and len(comps) == (r + 1) // 2:
                rid, total = got[("epoly", None)]
                summed = defaultdict(int)
                for k, (_, poly) in comps.items():
                    for e, c in poly.items():
                        summed[e] += comb(r, k) * c
                if {e: c for e, c in summed.items() if c} != total:
                    self.fail([rid] + comp_ids, "sum_k C(r,k) E_n^k != E_n "
                              "at n=%d g=%d r=%d" % (n, g, r))
            if n % 2 and any(p != comp_polys[0] for p in comp_polys):
                self.fail(comp_ids, "odd rank %d depends on k at g=%d r=%d"
                          % (n, g, r))
            for k, (cid, poly) in comps.items():
                if ("euler", k) in got:
                    eid, euler = got[("euler", k)]
                    if _value_at_one_after_dividing(poly, g) != euler:
                        self.fail([cid, eid], "Euler characteristic of "
                                  "E_%d^%d differs from the component" % (n, k))

    # -- genfun: the identity and the complex-curve anchors ----------------

    def _gen_function_check(self, req, value):
        if value is not True:
            self.fail(req["id"], "identity returned %r" % (value,))

    def _complex_curve_e_poly(self, req, value):
        key = "complex_curve_e_poly %d %d" % tuple(req["args"])
        if sha256(json.dumps(value)) != self.digests.get(key):
            self.fail(req["id"], "digest of %r differs" % key)
        elif value[1] != [[0, 1, 1]] or _q_poly(value[0]) is None:
            self.fail(req["id"], "not an integer polynomial in q")

    # -- oracle: finite-field counts ---------------------------------------

    def _count(self, req, value):
        n, q, g, r, xi = req["args"]
        if n == 1 and value != 2 ** (r - 1) * (q - 1) ** (g + 1):
            return self.fail(req["id"], "rank-1 count %r" % (value,))
        if n == 2:
            self.rank2[(q, g, r)][xi] = (req["id"], value)

    def _compare(self, req, value):
        n, q, g, r, k, convention, xi = req["args"]
        rid = req["id"]
        fields = ("n", "q", "g", "r", "k", "convention", "xi")
        if tuple(value[f] for f in fields) != (n, q, g, r, k, convention, xi):
            return self.fail(rid, "report is for other parameters")
        counted, formula = value["counted"], value["formula"]
        if value["equal"] != (counted == formula):
            return self.fail(rid, "equal flag contradicts the counts")
        if convention == "transposed":
            self.transposed[rid] = counted != formula
            return
        if counted != formula:
            return self.fail(rid, "count %d != formula %d" % (counted, formula))
        if k is None and counted != _rank2_closed_form(q, g, r) * gl_order(2, q):
            return self.fail(rid, "count %d differs from the closed form" % counted)
        self.rank2[(q, g, r)][("k", k)] = (rid, counted)

    def _class_table(self, req, value):
        n, q = req["args"]
        if len(value["sizes"]) != value["classes"] or \
                sum(value["sizes"]) != gl_order(n, q):
            return self.fail(req["id"], "class equation fails")
        self.f_data[(n, q)]["sizes"] = (req["id"], value["sizes"])

    def _f_closed(self, req, value):
        self.f_data[tuple(req["args"])]["closed"] = (req["id"], value)

    def _f_brute(self, req, value):
        self.f_data[tuple(req["args"])]["brute"] = (req["id"], value)

    def _oracle_cross(self):
        if self.transposed and not any(self.transposed.values()):
            self.fail(self.transposed, "transposed convention never refuted")
        for (q, g, r), got in self.rank2.items():
            ids = [i for i, _ in got.values()]
            total = got.get(("k", None))
            at_roots = {c for key, (_, c) in got.items() if isinstance(key, int)}
            comps = [(key[1], c) for key, (_, c) in got.items()
                     if isinstance(key, tuple) and key[1] is not None]
            if len(at_roots | ({total[1]} if total else set())) > 1:
                self.fail(ids, "count depends on xi at q=%d g=%d r=%d" % (q, g, r))
            if total and len(comps) == (r + 1) // 2 and sum(
                    comb(r, k) * c for k, c in comps) != total[1]:
                self.fail(ids, "components do not sum at q=%d g=%d r=%d"
                          % (q, g, r))
        for (n, q), got in self.f_data.items():
            ids = [i for i, _ in got.values()]
            if "closed" in got and "brute" in got and \
                    got["closed"][1] != got["brute"][1]:
                self.fail(ids, "F closed != F brute at n=%d q=%d" % (n, q))
            if "closed" in got and "sizes" in got and sum(
                    s * f for s, f in zip(got["sizes"][1], got["closed"][1])
            ) != 2 * gl_order(n, q):
                self.fail(ids, "mean of F is not 2 at n=%d q=%d" % (n, q))


def self_test(digests):
    """Feed a correct and a deliberately wrong CLI document through the
    checks; return an error message unless only the wrong one fails."""
    argv = ["epoly", "--n", "2", "--g", "1", "--r", "1", "--format", "json"]
    req = {"id": 0, "op": "cli", "args": argv,
           "meta": {"n": 2, "g": 1, "r": 1, "k": None}}

    def document(poly):
        record = {"n": 2, "g": 1, "r": 1, "k": None, "convention": "matched",
                  "poly": poly}
        return json.dumps([record], indent=2) + "\n"

    verdicts = []
    for poly in ([[0, -1, 1], [2, 1, 1]], [[0, -1, 1], [2, 2, 1]]):
        run = Pass(digests)
        run.check(req, {"value": {"exit": 0, "stderr": "",
                                  "stdout": document(poly)}})
        verdicts.append(bool(run.finish()))
    if verdicts != [False, True]:
        return ("self-test: correct document failed=%s, wrong document "
                "failed=%s" % tuple(verdicts))
    return None
