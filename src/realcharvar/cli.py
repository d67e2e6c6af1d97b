"""Batch command line: E-polynomials, components, Euler characteristics,
generating-function tables, and the verification suites.

Output is deterministic: identical requests produce byte-identical documents.
All numbers are exact integers or rationals, never floats.
"""

import argparse
import csv
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .algebra import HalfPowerPolynomial, format_poly, format_poly_latex
from .epoly import (CONVENTIONS, MATCHED, SurfaceData, check_cost, e_poly,
                    e_poly_component, euler_char_component,
                    gen_function_check)


class UsageError(ValueError):
    pass


def parse_n_range(text):
    """A rank or rank range, "3", "1-4", or "1..4", as a range: the ranks
    are not listed, so that the cost limit sees the top rank first."""
    text = text.strip()
    bounds = [text]
    for sep in ("..", "-"):
        if sep in text[1:]:
            bounds = text.split(sep, 1)
            break
    try:
        lo, hi = int(bounds[0]), int(bounds[-1])
    except ValueError:
        raise UsageError("bad rank range %r" % text) from None
    if len(bounds) == 1 and lo < 1:
        raise UsageError("rank must be positive")
    if lo < 1 or hi < lo:
        raise UsageError("bad rank range %r" % text)
    return range(lo, hi + 1)


def _surface(g, r, top):
    """The surface, with the top rank checked against the cost limit before
    any rank is computed."""
    try:
        surf = SurfaceData(g, r)
    except ValueError as exc:
        raise UsageError(str(exc))
    check_cost(top, surf)
    return surf


def _poly_records(args, surf, ns):
    "One record per rank n: E_n, or the component E_n^k when args.k is set."
    k, conv = args.k, args.convention
    return [{
        "n": n,
        "g": args.g,
        "r": args.r,
        "k": k,
        "convention": conv,
        "poly": (e_poly(n, surf, conv) if k is None
                 else e_poly_component(n, surf, k, conv)),
    } for n in ns]


def _json(value, pad="\n"):
    """value as json.dumps(value, indent=2,
    default=HalfPowerPolynomial.to_triples) lays it out, for dicts with str
    keys, lists, polynomials and scalars; pad is the newline and indent of
    value's closing bracket.  A polynomial's triples [exponent, numerator,
    denominator] are written straight from its terms, one %-format each."""
    inner = pad + "  "
    if isinstance(value, HalfPowerPolynomial):
        triple = "[%s%%d,%s%%d,%s%%d%s]" % ((inner + "  ",) * 3 + (inner,))
        items = [triple % (e, c.numerator, c.denominator)
                 for e, c in sorted(value.terms.items())]
    elif isinstance(value, list):
        items = [_json(v, inner) for v in value]
    elif isinstance(value, dict):
        items = [encode_basestring_ascii(key) + ": " + _json(v, inner)
                 for key, v in value.items()]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _render_records(records, fmt, xy, out):
    if fmt == "json":
        out.write(_json(records) + "\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "g", "r", "k", "convention", "poly"])
        for rec in records:
            writer.writerow([rec["n"], rec["g"], rec["r"],
                             "" if rec["k"] is None else rec["k"],
                             rec["convention"],
                             json.dumps(rec["poly"].to_triples())])
        return
    for rec in records:
        if fmt == "latex":
            sup = "" if rec["k"] is None else "^{(%d)}" % rec["k"]
            line = "E_{%d}%s = %s\n" % (rec["n"], sup,
                                        format_poly_latex(rec["poly"]))
        else:
            sup = "" if rec["k"] is None else "^(%d)" % rec["k"]
            line = ("E_%d%s(q; g=%d, r=%d, %s) = %s\n"
                    % (rec["n"], sup, rec["g"], rec["r"], rec["convention"],
                       format_poly(rec["poly"])))
        out.write(line.replace("q", "xy") if xy else line)


def cmd_epoly(args, out):
    "E_n, or with --k the component E_n^k, for each rank of --n."
    ns = parse_n_range(args.n)
    surf = _surface(args.g, args.r, ns[-1])
    _render_records(_poly_records(args, surf, ns), args.format, args.xy, out)
    return 0


def cmd_euler(args, out):
    ns = parse_n_range(args.n)
    surf = _surface(args.g, args.r, ns[-1])
    values = [(n, euler_char_component(n, surf, args.k, args.convention))
              for n in ns]
    if args.format == "json":
        out.write(_json([{"n": n, "g": args.g, "r": args.r, "k": args.k,
                          "euler": str(v)} for n, v in values]) + "\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "g", "r", "k", "euler"])
        for n, v in values:
            writer.writerow([n, args.g, args.r, args.k, v])
    else:
        for n, v in values:
            out.write("%d\n" % v)
    return 0


def cmd_genfun(args, out):
    if args.N < 1:
        raise UsageError("truncation order N must be positive")
    surf = _surface(args.g, args.r, args.N)
    check_cost(args.N, surf, identity=True)
    records = _poly_records(args, surf, range(1, args.N + 1))
    ok = gen_function_check(args.N, surf, args.convention)
    if args.format == "json":
        out.write(_json({"check": ok, "results": records}) + "\n")
    else:
        _render_records(records, args.format, args.xy, out)
        if args.format == "text":
            out.write("log-product identity at N=%d: %s\n"
                      % (args.N, "pass" if ok else "FAIL"))
    return 0 if ok else 1


def _verify_telescope(args, out):
    "One degenerate family with explicit parameters, or both by default."
    from .verify import (TelescopeRange, criterion_genus_specializations,
                         telescope_check)
    if args.g is None:
        if args.r is not None or args.N is not None:
            raise UsageError("verify telescope: --r and --N need --g")
        ok, detail = criterion_genus_specializations()
        out.write("telescope %s  %s\n" % ("PASS" if ok else "FAIL", detail))
        return 0 if ok else 1
    g, r = args.g, args.r if args.r is not None else 1
    n_max = 6 if args.N is None else args.N
    _surface(g, r, n_max)
    try:
        ok, expect = telescope_check(g, r, n_max)
    except TelescopeRange as exc:
        raise UsageError(str(exc))
    out.write("telescope g=%d r=%d N=%d: %s (%s)\n"
              % (g, r, n_max, "pass" if ok else "FAIL", expect))
    return 0 if ok else 1


def cmd_verify(args, out):
    # verify loads the finite-field oracle and numpy, which the formula
    # commands do without
    from .verify import CRITERIA, criterion_oracle_main, run_criteria
    known = {name for name, _, _, _ in CRITERIA}
    if args.suite not in known | {"telescope", "all"}:
        raise UsageError("unknown suite %r; choose from %s, telescope, all"
                         % (args.suite, ", ".join(sorted(known))))
    if args.reports and args.suite != "oracle-main":
        raise UsageError("verify %s: --reports is for oracle-main only"
                         % args.suite)
    if args.suite != "telescope" and (args.g, args.r, args.N) != (None,) * 3:
        raise UsageError("verify %s: --g, --r and --N are for telescope only"
                         % args.suite)
    if args.suite == "telescope":
        return _verify_telescope(args, out)
    if args.reports:
        reports = []
        ok, detail = criterion_oracle_main(collect=reports)
        for rep in reports:
            out.write(json.dumps(rep) + "\n")
        out.write("oracle-main %s  %s\n" % ("PASS" if ok else "FAIL", detail))
        return 0 if ok else 1
    ok = run_criteria(None if args.suite == "all" else {args.suite}, out=out)
    return 0 if ok else 1


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every main call reuses it."""
    parser = argparse.ArgumentParser(
        prog="realcharvar",
        description="Exact E-polynomials of real-curve character varieties "
                    "with a finite-field counting oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_k=False, with_n=True):
        if with_n:
            p.add_argument("--n", required=True,
                           help='rank or rank range, e.g. "2" or "1-4"')
        p.add_argument("--g", type=int, required=True, help="genus")
        p.add_argument("--r", type=int, required=True,
                       help="number of fixed circles (1 <= r <= g+1)")
        if with_k:
            p.add_argument("--k", type=int, required=True,
                           help="odd component index, k <= r")
        else:
            p.set_defaults(k=None)
        p.add_argument("--convention", choices=CONVENTIONS, default=MATCHED)
        p.add_argument("--format", choices=("text", "json", "csv", "latex"),
                       default="text")
        p.add_argument("--xy", action="store_true",
                       help="render q as xy (rendering only)")

    p = sub.add_parser("epoly", help="E-polynomial of the full variety")
    common(p)
    p.set_defaults(func=cmd_epoly)

    p = sub.add_parser("component", help="E-polynomial of one component")
    common(p, with_k=True)
    p.set_defaults(func=cmd_epoly)

    p = sub.add_parser("euler", help="Euler characteristic of a component")
    common(p, with_k=True)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("genfun", help="table of E-polynomials up to rank N "
                                      "plus the log-product identity check")
    p.add_argument("--N", type=int, required=True, help="truncation order")
    common(p, with_n=False)
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="suite name, telescope, or all")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--reports", action="store_true",
                   help="emit oracle comparison reports as JSON lines "
                        "(oracle-main)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, RecursionError, MemoryError) as exc:
        # one line, also where a traceback would follow: a request too deep
        # for the recursion limit or too large for the memory
        text = str(exc)
        print("%s: %s" % (type(exc).__name__, text) if text
              else type(exc).__name__, file=sys.stderr)
        return 1
    except OSError as exc:
        # output failed (a closed pipe, a full disk); after a broken pipe the
        # null device takes stdout's descriptor, so the exit flush is quiet
        if isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output failed: %s" % (exc.strerror or exc),
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
