"""Command-line interface.

Subcommands: decide (exactness + certificate), reduce (the reduced
forms), residue (single residue extraction), factor, and corpus (batch
runner over case files).  Exit codes: 0 on success / all cases passing,
1 on a corpus decision mismatch, 2 on input errors, 3 on an internal
error (any other exception, reported in one line; in a corpus run, on
the line that raised it, after all lines have run).
"""

import argparse
import json
import sys
import time

from .core import BiPoly
from .deciders import decide_exact, operator_pair
from .errors import RatexactError
from .factorization import factor as factor_poly
from .orbits import QSHIFT_X, SHIFT_X
from .parsing import parse_ratfunc
from .printing import canonical_str
from .qmodes import plain, rational, root_of_unity, transcendental, y
from .reductions import (abramov_reduce_y, hermite_reduce_y,
                         phi_dy_reduced_form, pull_back,
                         tau_sigma_reduced_form, tau_reduced_root_of_unity)
from .residues import residue_dy, residue_sigma


def _add_qmode_args(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--q", metavar="RAT",
                   help="specialize q to a nonzero rational, e.g. 3/2")
    g.add_argument("--q-symbolic", action="store_true",
                   help="treat q as a transcendental parameter")
    g.add_argument("--root-of-unity", type=int, metavar="M",
                   help="set q to a primitive M-th root of unity")


def _mode_from_args(args):
    if getattr(args, "q", None) is not None:
        return rational(args.q)
    if getattr(args, "q_symbolic", False):
        return transcendental()
    if getattr(args, "root_of_unity", None) is not None:
        return root_of_unity(args.root_of_unity)
    return plain()


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _witness_json(w):
    out = {"kind": w.kind, "den": canonical_str(w.den)}
    if w.kind == "non_summable_residue":
        out["j"] = w.j
        out["residue"] = canonical_str(w.residue)
    return out


def _decision_json(dec, mode, timing_ms=None):
    out = {"exact": dec.exact, "pair": dec.pair.name,
           "qmode": mode.describe()}
    if dec.exact:
        g, h = dec.certificate
        out["g"] = canonical_str(g)
        out["h"] = canonical_str(h)
    else:
        out["witness"] = _witness_json(dec.witness)
    if timing_ms is not None:
        out["timing_ms"] = timing_ms
    return out


def _cmd_decide(args):
    mode = _mode_from_args(args)
    pair = operator_pair(args.pair, mode)
    f = parse_ratfunc(args.expr, mode)
    t0 = time.monotonic()
    dec = decide_exact(f, pair)
    elapsed = int((time.monotonic() - t0) * 1000)
    payload = _decision_json(dec, mode,
                             elapsed if args.timing else None)
    if args.json:
        print(_dump(payload))
        return 0
    if dec.exact:
        print("exact")
        print("g = %s" % payload["g"])
        print("h = %s" % payload["h"])
    else:
        print("not exact")
        w = payload["witness"]
        if w["kind"] == "mixed_denominator":
            print("witness: residual denominator %s involves x" % w["den"])
        else:
            print("witness: non-summable residue %s at %s^%d"
                  % (w["residue"], w["den"], w["j"]))
    return 0


def _terms_json(terms, mode):
    return [{"num": canonical_str(t.num),
             "den": canonical_str(t.den),
             "j": t.j} for t in terms]


def _cmd_reduce(args):
    mode = _mode_from_args(args)
    f = parse_ratfunc(args.expr, mode)
    if args.flavor in ("hermite", "abramov"):
        h, terms = (hermite_reduce_y if args.flavor == "hermite"
                    else abramov_reduce_y)(f)
        payload = {"h": canonical_str(h), "terms": _terms_json(terms, mode)}
    elif args.flavor in ("phi-dy", "tau-sy"):
        rf = (phi_dy_reduced_form(f, QSHIFT_X if mode.has_q else SHIFT_X)
              if args.flavor == "phi-dy" else tau_sigma_reduced_form(f))
        payload = {"g": canonical_str(rf.g), "h": canonical_str(rf.h),
                   "terms": _terms_json(rf.terms, mode)}
    else:  # tau-rou
        g, c = tau_reduced_root_of_unity(f)
        payload = {"g": canonical_str(g),
                   "trace_part": canonical_str(pull_back(c, mode.order))}
    payload["flavor"] = args.flavor
    payload["qmode"] = mode.describe()
    if args.json:
        print(_dump(payload))
    else:
        for k in sorted(payload):
            v = payload[k]
            if k == "terms":
                for t in v:
                    print("term: (%s) / (%s)^%d" % (t["num"], t["den"],
                                                    t["j"]))
            else:
                print("%s = %s" % (k, v))
    return 0


def _polynomial(text, mode, message):
    """The polynomial that text denotes, as a BiPoly, with its constant
    denominator (such as the 2 of y/2); RatexactError(message) when text
    is not a polynomial."""
    f = parse_ratfunc(text, mode)
    if not f.is_polynomial():
        raise RatexactError(message)
    return BiPoly.from_ring(f.numer, f.denom, mode)


def _cmd_residue(args):
    if args.mult < 1:
        raise RatexactError("--mult must be at least 1")
    if args.kind == "dy" and args.mult != 1:
        raise RatexactError("--mult applies to --kind sy")
    mode = _mode_from_args(args)
    f = parse_ratfunc(args.expr, mode)
    dp = _polynomial(args.at, mode, "--at must be a polynomial")
    if dp.free_of(y):  # no root in y, so no residue there
        raise RatexactError("--at must have positive degree in y")
    if args.kind == "dy":
        r = residue_dy(f, dp)
    else:
        r = residue_sigma(f, dp, args.mult)
    out = canonical_str(r)
    if args.json:
        print(_dump({"residue": out, "kind": args.kind,
                     "qmode": mode.describe()}))
    else:
        print(out)
    return 0


def _cmd_factor(args):
    mode = _mode_from_args(args)
    fac = factor_poly(_polynomial(args.expr, mode,
                                  "factor expects a polynomial"))
    payload = {"unit": canonical_str(BiPoly.ground(fac.unit, mode)),
               "factors": [[canonical_str(p), e]
                           for p, e in fac.factors],
               "qmode": mode.describe()}
    if args.json:
        print(_dump(payload))
    else:
        print("unit: %s" % payload["unit"])
        for base, e in payload["factors"]:
            print("(%s)^%d" % (base, e))
    return 0


def _parse_qmode_token(token):
    token = token.strip()
    if token == "none":
        return plain()
    if token == "symbolic":
        return transcendental()
    if token.startswith("zeta:"):
        return root_of_unity(token[5:])
    return rational(token)


def run_corpus_line(line):
    """Run one `pair | qmode | expr | expected [| witness-kind]` case.

    Returns (ok, detail-json-dict).  An exact answer's certificate has
    been verified by decide_exact, which raises RatexactError otherwise.
    Any other exception while deciding or printing is the outcome
    "internal-error", which never passes."""
    parts = [p.strip() for p in line.split("|")]
    if len(parts) not in (4, 5):
        raise RatexactError("malformed corpus line: %r" % line)
    pair_tok, mode_tok, expr, expected = parts[:4]
    want_witness = parts[4] if len(parts) == 5 else None
    mode = _parse_qmode_token(mode_tok)
    try:
        pair = operator_pair(pair_tok, mode)
        f = parse_ratfunc(expr, mode)
        dec = decide_exact(f, pair)
        detail = _decision_json(dec, mode)
    except RatexactError as exc:
        got = "error"
        detail = {"input": expr, "outcome": "error", "message": str(exc)}
        return got == expected, detail
    except Exception as exc:  # a fault of the program: never a pass
        return False, {"input": expr, "outcome": "internal-error",
                       "message": _fault(exc)}
    got = "exact" if dec.exact else "not-exact"
    detail["input"] = expr
    detail["outcome"] = got
    ok = got == expected
    if ok and want_witness and not dec.exact:
        ok = dec.witness.kind == want_witness
    return ok, detail


def _cmd_corpus(args):
    failures, internal = 0, False
    results = []
    with open(args.path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            ok, detail = run_corpus_line(line)
            results.append((lineno, ok, detail))
            if not ok:
                failures += 1
            internal = internal or detail["outcome"] == "internal-error"
    if args.json:
        print(_dump([{"line": n, "ok": ok, **d} for n, ok, d in results]))
    else:
        for n, ok, d in results:
            print("%-4s line %-4d %s -> %s"
                  % ("PASS" if ok else "FAIL", n, d.get("input", "?"),
                     d.get("outcome", "?")))
        print("%d/%d passed" % (len(results) - failures, len(results)))
    return 3 if internal else 1 if failures else 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ratexact",
        description="exactness of bivariate rational functions under "
                    "mixed operator pairs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide exactness, with certificate")
    p.add_argument("--pair", required=True,
                   choices=["dx-dy", "dqx-dy", "dqx-sy"])
    p.add_argument("--expr", required=True)
    _add_qmode_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="include timing_ms in JSON output")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("reduce", help="compute a reduced form")
    p.add_argument("--flavor", required=True,
                   choices=["hermite", "abramov", "phi-dy", "tau-sy",
                            "tau-rou"])
    p.add_argument("--expr", required=True)
    _add_qmode_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("residue", help="extract one residue")
    p.add_argument("--kind", required=True, choices=["dy", "sy"])
    p.add_argument("--at", required=True, metavar="POLY")
    p.add_argument("--mult", type=int, default=1)
    p.add_argument("--expr", required=True)
    _add_qmode_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_residue)

    p = sub.add_parser("factor", help="irreducible factorization")
    p.add_argument("--expr", required=True)
    _add_qmode_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("corpus", help="run a corpus case file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_corpus)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (RatexactError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s" % _fault(exc), file=sys.stderr)
        return 3


def _fault(exc):
    """`<Type>: <message>` of an unexpected exception, on one line."""
    return "%s: %s" % (type(exc).__name__, " ".join(str(exc).splitlines()))


if __name__ == "__main__":
    sys.exit(main())
