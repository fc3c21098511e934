"""Command line front end.

Subcommands: compute (one colored Jones polynomial), degrees (a degree
sequence), fit (quasi-polynomial fit of a sequence or a knot's degrees),
slopes (both fitted slope sets), verify (Slope Conjecture check, single
knot or the whole bundled table), report (verify plus the crossing-bound
and alternating checks).

Exit codes: 0 success, 1 a conjecture check came back refuted-in-window,
2 usage or data error, 3 resource limit hit.
"""

import argparse
import json
import sys

from . import quasifit
from . import verify as slopecheck
from .engine import EngineLimitError, degree_sequence
from .knots import Named, bundled_knot_table, load_slope_db, parse_knot

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _knot_spec(args):
    texts = [t for t in (getattr(args, "knot_pos", None), args.knot) if t]
    if not texts:
        raise ValueError("no knot given; pass a spec like torus:2,3 or "
                         "use --knot")
    if len(texts) == 2 and texts[0] != texts[1]:
        raise ValueError("conflicting knot specs %r and %r" % tuple(texts))
    return parse_knot(texts[0])


def _colors(args, spec):
    """The sample depth: --max-n, else the spec's default."""
    return args.max_n if args.max_n is not None else spec.default_colors()


def _print_fit(q, out):
    out.write("period: %d\n" % q.period)
    out.write("transient: %d\n" % q.transient)
    out.write("slopes: %s\n"
              % ", ".join(str(s) for s in quasifit.slopes(q)))
    out.write(q.describe() + "\n")
    if q.gf is not None:
        out.write("generating function: %s\n" % q.gf)


def cmd_compute(args):
    spec = _knot_spec(args)
    j = spec.polynomial(args.n, args.limit_mb)
    if args.json:
        print(json.dumps({"knot": spec.render(), "n": args.n,
                          "polynomial": str(j)}))
    else:
        print(j)
    return EXIT_OK


def cmd_degrees(args):
    spec = _knot_spec(args)
    n_max = _colors(args, spec)
    vals = degree_sequence(spec, args.kind, n_max, limit_mb=args.limit_mb)
    if args.json:
        print(json.dumps({"knot": spec.render(), "kind": args.kind,
                          "values": [str(v) for v in vals]}))
    else:
        print("# %s degrees of %s, colors 0..%d"
              % (args.kind, spec.render(), n_max))
        for v in vals:
            print(v)
    return EXIT_OK


def cmd_fit(args):
    if args.input:
        if args.knot or getattr(args, "knot_pos", None):
            raise ValueError("pass either --input or a knot spec, not both")
        seq = quasifit.load_sequence(args.input)
        source = args.input
    else:
        spec = _knot_spec(args)
        n_max = _colors(args, spec)
        seq = degree_sequence(spec, args.kind, n_max, limit_mb=args.limit_mb)
        source = "%s %s degrees" % (spec.render(), args.kind)
    q = quasifit.fit(seq, max_period=args.max_period,
                     max_transient=args.max_transient)
    witnesses = quasifit.integrality_check(q)
    if args.json:
        doc = slopecheck.quasi_dict(q, slopes=True)
        doc["source"] = source
        doc["samples"] = len(seq)
        doc["integrality"] = [[str(s), str(w)] for s, w in witnesses]
        print(json.dumps(doc))
    else:
        print("# fit of %s (%d samples)" % (source, len(seq)))
        _print_fit(q, sys.stdout)
    return EXIT_OK


def cmd_slopes(args):
    spec = _knot_spec(args)
    report = _verify_one(args, spec, None)
    if args.json:
        doc = report.to_dict()
        print(json.dumps({key: doc[key] for key in (
            "knot", "period", "delta_period", "js", "js_star",
            "jones_diameter")}))
    else:
        print("period: %d" % report.period)
        print("js: %s" % ", ".join(str(s) for s in report.js))
        print("js*: %s" % ", ".join(str(s) for s in report.js_star))
        print("jones diameter: %s" % report.jones_diameter)
    return EXIT_OK


def _verify_one(args, spec, db):
    return slopecheck.analyze(spec, _colors(args, spec),
                              max_period=args.max_period,
                              max_transient=args.max_transient,
                              limit_mb=args.limit_mb, db=db)


def cmd_verify(args):
    db = load_slope_db(args.slope_db) if args.slope_db else None
    if args.all:
        reports = [(key, _verify_one(args, Named(key), db))
                   for key in sorted(bundled_knot_table())]
        if args.json:
            print(json.dumps([rep.to_dict() for _, rep in reports]))
        else:
            counts = {"verified": 0, "refuted-in-window": 0, "no-data": 0}
            for key, rep in reports:
                counts[rep.conjecture_verdict] += 1
                print("%s: %s (period %d, js %s, js* %s)"
                      % (key, rep.conjecture_verdict, rep.period,
                         ", ".join(str(s) for s in rep.js),
                         ", ".join(str(s) for s in rep.js_star)))
            print("%d verified, %d refuted-in-window, %d no-data"
                  % (counts["verified"], counts["refuted-in-window"],
                     counts["no-data"]))
        refuted = any(rep.conjecture_verdict == "refuted-in-window"
                      for _, rep in reports)
        return EXIT_REFUTED if refuted else EXIT_OK
    spec = _knot_spec(args)
    rep = _verify_one(args, spec, db)
    if args.json:
        print(json.dumps(rep.to_dict()))
    else:
        print(rep.render())
    return (EXIT_REFUTED if rep.conjecture_verdict == "refuted-in-window"
            else EXIT_OK)


def cmd_report(args):
    db = load_slope_db(args.slope_db) if args.slope_db else None
    spec = _knot_spec(args)
    rep = _verify_one(args, spec, db)
    bounds = slopecheck.check_crossing_bounds(rep, spec.diagram_stats())
    alt_data = spec.alternating_data()
    alt = (slopecheck.check_alternating_theorems(alt_data, rep)
           if alt_data is not None else None)
    failed = (rep.conjecture_verdict == "refuted-in-window"
              or not bounds["holds"]
              or (alt is not None and not alt["holds"]))
    if args.json:
        doc = rep.to_dict()
        doc["crossing_bounds"] = {
            "holds": bounds["holds"],
            "max_side": [[str(s), str(b), ok]
                         for s, b, ok in bounds["max_side"]],
            "min_side": [[str(s), str(b), ok]
                         for s, b, ok in bounds["min_side"]],
            "diameter": [str(bounds["diameter"][0]),
                         str(bounds["diameter"][1]),
                         bounds["diameter"][2]],
        }
        if alt is not None:
            doc["alternating_checks"] = {
                "holds": alt["holds"],
                "problems": alt["problems"],
                "checkerboard_slopes": [str(s) for s in
                                        alt["checkerboard_slopes"]],
            }
        print(json.dumps(doc))
    else:
        print(rep.render())
        print("crossing bounds: %s"
              % ("hold" if bounds["holds"] else "VIOLATED"))
        for s, b, okk in bounds["max_side"]:
            print("  slope %s <= c+ = %s: %s" % (s, b, okk))
        for s, b, okk in bounds["min_side"]:
            print("  slope %s >= -c- = %s: %s" % (s, b, okk))
        d, c, okk = bounds["diameter"]
        print("  diameter %s <= c = %s: %s" % (d, c, okk))
        if alt is not None:
            print("alternating checks: %s"
                  % ("hold" if alt["holds"] else "FAILED"))
            for prob in alt["problems"]:
                print("  " + prob)
            print("  checkerboard slopes: %s, %s"
                  % alt["checkerboard_slopes"])
    return EXIT_REFUTED if failed else EXIT_OK


def _add_knot_args(p):
    p.add_argument("knot_pos", nargs="?", metavar="KNOT",
                   help="knot spec: torus:a,b | pretzel:-2,3,p | "
                        "alt:c+,c-,|A|,|B| | pd:[(a,b,c,d),...] | "
                        "name:KEY, with optional mirror: prefix")
    p.add_argument("--knot", help="knot spec (alternative to the "
                                  "positional argument)")


def _add_fit_args(p):
    p.add_argument("--max-period", type=int, default=16)
    p.add_argument("--max-transient", type=int, default=8)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="knotslopes",
        description="Colored Jones degrees, quasi-polynomial fits, and "
                    "Slope Conjecture checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="print one colored Jones polynomial")
    _add_knot_args(p)
    p.add_argument("--n", type=int, default=1, help="color (default 1)")

    q = sub.add_parser("degrees", help="print a degree sequence")
    _add_knot_args(q)
    q.add_argument("--max-n", type=int, default=None)
    q.add_argument("--kind", choices=["max", "min", "span", "sum"],
                   default="max")

    f = sub.add_parser("fit", help="fit a quadratic quasi-polynomial")
    _add_knot_args(f)
    f.add_argument("--input", help="sequence file (one value per line, "
                                   "# comments) instead of a knot")
    f.add_argument("--max-n", type=int, default=None)
    f.add_argument("--kind", choices=["max", "min", "span", "sum"],
                   default="max")
    _add_fit_args(f)

    s = sub.add_parser("slopes", help="fitted Jones slopes and period")
    _add_knot_args(s)
    s.add_argument("--max-n", type=int, default=None)
    _add_fit_args(s)

    v = sub.add_parser("verify", help="check the Slope Conjecture")
    _add_knot_args(v)
    v.add_argument("--all", action="store_true",
                   help="run over every knot in the bundled table")
    v.add_argument("--slope-db", help="boundary-slope table overriding "
                                      "the bundled one")
    v.add_argument("--max-n", type=int, default=None)
    _add_fit_args(v)

    r = sub.add_parser("report", help="verify plus crossing-bound and "
                                      "alternating checks")
    _add_knot_args(r)
    r.add_argument("--slope-db")
    r.add_argument("--max-n", type=int, default=None)
    _add_fit_args(r)

    for p_ in (p, q, f, s, v, r):
        p_.add_argument("--json", action="store_true",
                        help="machine-readable output")
        p_.add_argument("--limit-mb", type=int, default=None,
                        help="memory budget for the state sum")
    return ap


_DISPATCH = {
    "compute": cmd_compute,
    "degrees": cmd_degrees,
    "fit": cmd_fit,
    "slopes": cmd_slopes,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.limit_mb is not None and args.limit_mb < 0:
            raise ValueError("--limit-mb must be nonnegative, got %d"
                             % args.limit_mb)
        return _DISPATCH[args.command](args)
    except EngineLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
