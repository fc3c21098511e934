"""Command line front end.

Subcommands: compute (one colored Jones polynomial), degrees (a degree
sequence), fit (quasi-polynomial fit of a sequence or a knot's degrees),
slopes (both fitted slope sets), verify (Slope Conjecture check, single
knot or the whole bundled table), report (verify plus the crossing-bound
and alternating checks).

The parser is one loop over two tables: ``_COMMANDS`` gives each
subcommand its handler, help line and options, and ``_OPTIONS`` gives
each option its argparse keywords.  Every subcommand takes a knot spec
first and ``--json`` and ``--limit-mb`` last.  A handler returns
``(exit code, output)``, the output being the JSON document under
``--json`` and the text otherwise; ``main`` is the one place that prints
it, so an error while writing exits like any other error.

Exit codes: 0 success, 1 a conjecture check came back refuted-in-window,
2 usage or data error, 3 resource limit hit.
"""

import argparse
import json
import sys
from collections import Counter

from . import quasifit
from . import verify as slopecheck
from .engine import EngineLimitError, degree_sequence
from .knots import Named, bundled_knot_table, load_slope_db, parse_knot

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _knot_spec(args):
    texts = [t for t in (args.knot_pos, args.knot) if t]
    if not texts:
        raise ValueError("no knot given; pass a spec like torus:2,3 or "
                         "use --knot")
    if len(texts) == 2 and texts[0] != texts[1]:
        raise ValueError("conflicting knot specs %r and %r" % tuple(texts))
    return parse_knot(texts[0])


def _colors(args, spec):
    """The sample depth: --max-n, else the spec's default."""
    return args.max_n if args.max_n is not None else spec.default_colors()


def _join(values):
    return ", ".join(str(v) for v in values)


def _verify_one(args, spec, db):
    return slopecheck.analyze(spec, _colors(args, spec),
                              max_period=args.max_period,
                              max_transient=args.max_transient,
                              limit_mb=args.limit_mb, db=db)


def _exit(reports):
    refuted = any(rep.conjecture_verdict == "refuted-in-window"
                  for rep in reports)
    return EXIT_REFUTED if refuted else EXIT_OK


def cmd_compute(args):
    spec = _knot_spec(args)
    j = spec.polynomial(args.n, args.limit_mb)
    if args.json:
        return EXIT_OK, {"knot": spec.render(), "n": args.n,
                         "polynomial": str(j)}
    return EXIT_OK, str(j)


def _kind(args):
    """The degree kind: --kind, else max."""
    return args.kind or "max"


def cmd_degrees(args):
    spec = _knot_spec(args)
    n_max = _colors(args, spec)
    kind = _kind(args)
    vals = degree_sequence(spec, kind, n_max, limit_mb=args.limit_mb)
    if args.json:
        return EXIT_OK, {"knot": spec.render(), "kind": kind,
                         "values": [str(v) for v in vals]}
    head = "# %s degrees of %s, colors 0..%d" % (kind, spec.render(), n_max)
    return EXIT_OK, "\n".join([head] + [str(v) for v in vals])


def cmd_fit(args):
    if args.input:
        if args.knot or args.knot_pos:
            raise ValueError("pass either --input or a knot spec, not both")
        # a sequence file is fitted whole and as it is, so --max-n and
        # --kind would be ignored
        for option, value in (("--max-n", args.max_n), ("--kind", args.kind)):
            if value is not None:
                raise ValueError("pass either --input or %s, not both"
                                 % option)
        seq = quasifit.load_sequence(args.input)
        source = args.input
    else:
        spec = _knot_spec(args)
        n_max = _colors(args, spec)
        kind = _kind(args)
        seq = degree_sequence(spec, kind, n_max, limit_mb=args.limit_mb)
        source = "%s %s degrees" % (spec.render(), kind)
    q = quasifit.fit(seq, max_period=args.max_period,
                     max_transient=args.max_transient)
    witnesses = quasifit.integrality_check(q)
    if args.json:
        doc = slopecheck.quasi_dict(q, slopes=True)
        doc["source"] = source
        doc["samples"] = len(seq)
        doc["integrality"] = [[str(s), str(w)] for s, w in witnesses]
        return EXIT_OK, doc
    lines = ["# fit of %s (%d samples)" % (source, len(seq)),
             "period: %d" % q.period, "transient: %d" % q.transient,
             "slopes: %s" % _join(quasifit.slopes(q)), q.describe()]
    gf = q.gf
    if gf is not None:
        lines.append("generating function: %s" % gf)
    return EXIT_OK, "\n".join(lines)


def cmd_slopes(args):
    rep = _verify_one(args, _knot_spec(args), None)
    if args.json:
        doc = rep.to_dict()
        return EXIT_OK, {key: doc[key] for key in (
            "knot", "period", "delta_period", "js", "js_star",
            "jones_diameter")}
    return EXIT_OK, "\n".join([
        "period: %d" % rep.period, "js: %s" % _join(rep.js),
        "js*: %s" % _join(rep.js_star),
        "jones diameter: %s" % rep.jones_diameter])


def cmd_verify(args):
    if args.all and (args.knot or args.knot_pos):
        raise ValueError("pass either --all or a knot spec, not both")
    db = load_slope_db(args.slope_db) if args.slope_db else None
    if not args.all:
        rep = _verify_one(args, _knot_spec(args), db)
        return _exit([rep]), (rep.to_dict() if args.json else rep.render())
    keys = sorted(bundled_knot_table())
    reports = [_verify_one(args, Named(key), db) for key in keys]
    if args.json:
        return _exit(reports), [rep.to_dict() for rep in reports]
    lines = ["%s: %s (period %d, js %s, js* %s)"
             % (key, rep.conjecture_verdict, rep.period, _join(rep.js),
                _join(rep.js_star)) for key, rep in zip(keys, reports)]
    counts = Counter(rep.conjecture_verdict for rep in reports)
    lines.append("%d verified, %d refuted-in-window, %d no-data"
                 % (counts["verified"], counts["refuted-in-window"],
                    counts["no-data"]))
    return _exit(reports), "\n".join(lines)


def _bound(slope, bound, ok):
    return [str(slope), str(bound), ok]


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
    code = EXIT_REFUTED if failed else EXIT_OK
    if args.json:
        doc = rep.to_dict()
        doc["crossing_bounds"] = {
            "holds": bounds["holds"],
            "max_side": [_bound(*row) for row in bounds["max_side"]],
            "min_side": [_bound(*row) for row in bounds["min_side"]],
            "diameter": _bound(*bounds["diameter"]),
        }
        if alt is not None:
            doc["alternating_checks"] = {
                "holds": alt["holds"],
                "problems": alt["problems"],
                "checkerboard_slopes": [str(s) for s in
                                        alt["checkerboard_slopes"]],
            }
        return code, doc
    lines = [rep.render(), "crossing bounds: %s"
             % ("hold" if bounds["holds"] else "VIOLATED")]
    lines += ["  slope %s <= c+ = %s: %s" % row for row in bounds["max_side"]]
    lines += ["  slope %s >= -c- = %s: %s" % row
              for row in bounds["min_side"]]
    lines.append("  diameter %s <= c = %s: %s" % bounds["diameter"])
    if alt is not None:
        lines.append("alternating checks: %s"
                     % ("hold" if alt["holds"] else "FAILED"))
        lines += ["  " + prob for prob in alt["problems"]]
        lines.append("  checkerboard slopes: %s, %s"
                     % alt["checkerboard_slopes"])
    return code, "\n".join(lines)


def _integer_option(text):
    """An integer option value, read as ``quasifit._integer`` reads it."""
    try:
        return quasifit._integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_OPTIONS = {
    "knot_pos": dict(nargs="?", metavar="KNOT",
                     help="knot spec: torus:a,b | pretzel:-2,3,p | "
                          "alt:c+,c-,|A|,|B| | pd:[(a,b,c,d),...] | "
                          "name:KEY, with optional mirror: prefix"),
    "--knot": dict(help="knot spec (alternative to the positional argument)"),
    "--n": dict(type=_integer_option, default=1, help="color (default 1)"),
    "--input": dict(help="sequence file (one value per line, # comments) "
                         "instead of a knot"),
    "--all": dict(action="store_true",
                  help="run over every knot in the bundled table"),
    "--slope-db": dict(help="boundary-slope table overriding the bundled one"),
    "--max-n": dict(type=_integer_option),
    "--kind": dict(choices=["max", "min", "span", "sum"],
                   help="degree kind (default max)"),
    "--max-period": dict(type=_integer_option, default=quasifit.MAX_PERIOD),
    "--max-transient": dict(type=_integer_option,
                            default=quasifit.MAX_TRANSIENT),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--limit-mb": dict(type=_integer_option,
                       help="memory budget of the vertex model's state "
                       "sum in MiB (default 512): each stored frontier "
                       "state is charged a fixed overhead plus the bytes "
                       "of its packed polynomial, for the frontier a step "
                       "reads and the one it writes; checked every 1024 "
                       "new states, exit code 3 when exceeded"),
}

_WINDOW = ("--max-period", "--max-transient")
_COMMANDS = {
    "compute": (cmd_compute, "print one colored Jones polynomial", ("--n",)),
    "degrees": (cmd_degrees, "print a degree sequence", ("--max-n", "--kind")),
    "fit": (cmd_fit, "fit a quadratic quasi-polynomial",
            ("--input", "--max-n", "--kind") + _WINDOW),
    "slopes": (cmd_slopes, "fitted Jones slopes and period",
               ("--max-n",) + _WINDOW),
    "verify": (cmd_verify, "check the Slope Conjecture",
               ("--all", "--slope-db", "--max-n") + _WINDOW),
    "report": (cmd_report, "verify plus crossing-bound and alternating "
                           "checks", ("--slope-db", "--max-n") + _WINDOW),
}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="knotslopes",
        description="Colored Jones degrees, quasi-polynomial fits, and "
                    "Slope Conjecture checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option in ("knot_pos", "--knot", *options, "--json", "--limit-mb"):
            p.add_argument(option, **_OPTIONS[option])
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.limit_mb is not None and args.limit_mb < 0:
            raise ValueError("--limit-mb must be nonnegative, got %d"
                             % args.limit_mb)
        code, output = _COMMANDS[args.command][0](args)
        print(json.dumps(output) if args.json else output)
        return code
    except EngineLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
