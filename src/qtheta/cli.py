"""Command line front end: list, verify, eval and express-pm.

Exit codes: 0 success / all identities pass, 1 at least one identity
failed, 2 usage or evaluation error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import QThetaError
from . import dsl
from . import series as se
from .eliminator import express_pm
from .identities import load_registry
from .verifier import reports_to_json, verify_all


def _parse_params(text):
    binding = {}
    if not text:
        return binding
    for item in text.split(","):
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or len(name) != 1 or not name.islower():
            raise QThetaError("bad parameter assignment %r (want name=p/q)" % item)
        try:
            binding[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise QThetaError("bad parameter value %r (want name=p/q)" % item) from None
    return binding


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qtheta",
        description="Exact q-series engine and identity verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list the identity corpus")
    p.add_argument("--file", action="append", default=[], help="extra identity file")

    p = sub.add_parser("verify", help="verify identities at a requested order")
    p.add_argument("filter", nargs="?", default=None, help="glob on identity names")
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--file", action="append", default=[], help="extra identity file")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("eval", help="evaluate a DSL expression")
    p.add_argument("expr")
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--params", default="", help="comma list, e.g. a=2,b=1/3")

    p = sub.add_parser("express-pm", help="print P_m(a,b) as a theta combination")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--params", required=True, help="must bind a and b")
    p.add_argument("--order", type=int, default=20)
    return parser


def _cmd_list(args):
    for ident in load_registry(args.file):
        print("%-24s %s" % (ident.name, ident.source))
    return 0


def _cmd_verify(args, out):
    reports, summary = verify_all(args.order, args.trials, args.seed,
                                  args.filter, args.file)
    if args.json:
        out.write(reports_to_json(reports))
    else:
        for r in reports:
            eff = min((t.effective_precision for t in r.trials), default=0)
            if r.passed:
                out.write("PASS %-24s effective >= q^%d  (%d ms)\n"
                          % (r.identity, eff, r.millis))
            else:
                detail = ""
                for t in r.trials:
                    if t.error:
                        detail = "error: %s" % t.error
                        break
                    if t.first_bad:
                        detail = "first bad coefficient %s at q^%d" % (
                            t.first_bad[1], t.first_bad[0])
                        break
                out.write("FAIL %-24s %s\n" % (r.identity, detail))
        out.write("%d passed / %d failed (order %d, %d trials, seed %d)\n"
                  % (summary["passed"], summary["failed"],
                     args.order, args.trials, args.seed))
    return 0 if summary["failed"] == 0 else 1


def _cmd_eval(args, out):
    ast = dsl.parse(args.expr)
    binding = _parse_params(args.params)
    wp = args.order + 2 * dsl.neg_shift(ast) + 8
    value = dsl.evaluate(ast, binding, wp)
    if value.prec > args.order:
        value = se.truncate(value, args.order)
    out.write(str(value) + "\n")
    return 0


def _cmd_express_pm(args, out):
    binding = _parse_params(args.params)
    if "a" not in binding or "b" not in binding:
        raise QThetaError("express-pm needs --params with both a and b")
    combo = express_pm(args.m, binding["a"], binding["b"], args.order)
    out.write("P_%d(a, b) with a=%s, b=%s:\n" % (args.m, binding["a"], binding["b"]))
    for label, coeffs in (("a", combo.coeff_a), ("b", combo.coeff_b)):
        for k, c in enumerate(coeffs):
            where = "theta(%s%s)" % (label, "" if k == 0 else "/q^%d" % k)
            const = c.constant_value()
            shown = str(const) if const is not None else str(c)
            out.write("  %-14s %s\n" % (where + ":", shown))
    out.write("residual: zero to O(q^%d)\n" % combo.checked_prec)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "verify":
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    return _cmd_verify(args, fh)
            return _cmd_verify(args, sys.stdout)
        if args.command == "eval":
            return _cmd_eval(args, sys.stdout)
        if args.command == "express-pm":
            return _cmd_express_pm(args, sys.stdout)
    except QThetaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
