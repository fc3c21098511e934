"""Slope Conjecture checking.

For a knot spec this assembles the degree sequences of its colored
Jones function, fits both ends, and compares twice the fitted slopes
against bundled boundary-slope data.  Separate checks cover the
crossing-number bounds on slopes and the predictions specific to
alternating knots (period one, slopes read off the signed crossing
counts, checkerboard surface slopes).
"""

from fractions import Fraction
from math import lcm

from . import closedforms, quasifit
from .knots import INFINITY

__all__ = [
    "SlopeReport", "analyze", "check_crossing_bounds",
    "check_alternating_theorems",
]

# Both slope sets enter the inclusion test doubled; the minimum-degree
# side uses the same factor as the maximum-degree side.
_DOUBLING_NOTE = ("inclusion test: 2*s for every fitted slope s, on both "
                  "the maximum- and minimum-degree sides")


def _sorted_slopes(slopes):
    finite = sorted(s for s in slopes if s is not INFINITY)
    if any(s is INFINITY for s in slopes):
        finite.append(INFINITY)
    return finite


def quasi_dict(q, slopes=False):
    """JSON form of a fitted quasi-polynomial; with ``slopes``, twice
    the leading coefficients sit before the generating function."""
    doc = {
        "period": q.period,
        "transient": q.transient,
        "classes": [[str(c) for c in trip] for trip in q.classes],
    }
    if slopes:
        doc["slopes"] = [str(s) for s in quasifit.slopes(q)]
    gf = q.gf
    doc["gf"] = None if gf is None else str(gf)
    return doc


class SlopeReport:
    """Everything the conjecture check produced for one knot.

    Fields: knot (the spec object), period (lcm of the two fitted
    periods), delta_period (period of the maximum-degree fit alone),
    js / js_star (sorted slope lists), jones_diameter,
    boundary_slopes (sorted list or None), conjecture_verdict (one of
    "verified", "refuted-in-window", "no-data"), evidence (fit data,
    sample range, notes, and the degree lists dmax and dmin).
    """

    def __init__(self, knot, period, delta_period, js, js_star,
                 jones_diameter, boundary_slopes, conjecture_verdict,
                 evidence):
        self.knot = knot
        self.period = period
        self.delta_period = delta_period
        self.js = js
        self.js_star = js_star
        self.jones_diameter = jones_diameter
        self.boundary_slopes = boundary_slopes
        self.conjecture_verdict = conjecture_verdict
        self.evidence = evidence

    def to_dict(self):
        return {
            "knot": self.knot.render(),
            "period": self.period,
            "delta_period": self.delta_period,
            "js": [str(s) for s in self.js],
            "js_star": [str(s) for s in self.js_star],
            "jones_diameter": str(self.jones_diameter),
            "boundary_slopes": (None if self.boundary_slopes is None
                                else [str(s) for s in self.boundary_slopes]),
            "conjecture_verdict": self.conjecture_verdict,
            "evidence": {
                "delta": quasi_dict(self.evidence["delta"]),
                "delta_star": quasi_dict(self.evidence["delta_star"]),
                "max_color": self.evidence["max_color"],
                "notes": list(self.evidence["notes"]),
            },
        }

    def render(self):
        lines = []
        lines.append("knot: %s" % self.knot.render())
        lines.append("period: %d (max-degree side alone: %d)"
                     % (self.period, self.delta_period))
        lines.append("jones slopes, max degree: %s"
                     % ", ".join(str(s) for s in self.js))
        lines.append("jones slopes, min degree: %s"
                     % ", ".join(str(s) for s in self.js_star))
        lines.append("jones diameter: %s" % self.jones_diameter)
        if self.boundary_slopes is None:
            lines.append("boundary slopes: unknown")
        else:
            lines.append("boundary slopes: %s"
                         % ", ".join(str(s) for s in self.boundary_slopes))
        lines.append("verdict: %s" % self.conjecture_verdict)
        for note in self.evidence["notes"]:
            lines.append("note: %s" % note)
        for side, key in (("delta", "delta"), ("delta*", "delta_star")):
            q = self.evidence[key]
            lines.append("%s fit (transient %d):" % (side, q.transient))
            for row in q.describe().splitlines():
                lines.append("  " + row)
        return "\n".join(lines)


def analyze(spec, n_max, max_period=quasifit.MAX_PERIOD,
            max_transient=quasifit.MAX_TRANSIENT, limit_mb=None, db=None):
    """Fit both degree sequences of a knot up to color n_max and check
    twice the slopes against the boundary-slope data."""
    dmax, dmin = spec.degrees(n_max, limit_mb)
    qmax = quasifit.fit(dmax, max_period=max_period,
                        max_transient=max_transient)
    qmin = quasifit.fit(dmin, max_period=max_period,
                        max_transient=max_transient)
    js = quasifit.slopes(qmax)
    js_star = quasifit.slopes(qmin)
    jones_diameter = max(abs(s - t) for s in js for t in js_star)
    notes = [_DOUBLING_NOTE]
    bs = spec.boundary_slopes(db)
    if bs is None:
        verdict = "no-data"
        notes.append("no boundary-slope data available for this knot")
        bs_sorted = None
    else:
        finite = {s for s in bs if s is not INFINITY}
        missing = [s for s in js if 2 * s not in finite]
        missing += [s for s in js_star if 2 * s not in finite]
        if missing:
            verdict = "refuted-in-window"
            notes.append("doubled slopes missing from the boundary-slope "
                         "set: %s" % ", ".join(str(2 * s) for s in missing))
        else:
            verdict = "verified"
        bs_sorted = _sorted_slopes(bs)
    evidence = {
        "dmax": dmax,
        "dmin": dmin,
        "delta": qmax,
        "delta_star": qmin,
        "max_color": n_max,
        "notes": notes,
    }
    return SlopeReport(spec, lcm(qmax.period, qmin.period), qmax.period,
                       js, js_star, jones_diameter, bs_sorted, verdict,
                       evidence)


def check_crossing_bounds(report, stats):
    """Check the diagram bounds on fitted slopes: every maximum-degree
    slope is at most c_plus, every minimum-degree slope is at least
    -c_minus, and the diameter is at most the crossing number."""
    max_side = [(s, stats.c_plus, s <= stats.c_plus) for s in report.js]
    min_side = [(s, -stats.c_minus, s >= -stats.c_minus)
                for s in report.js_star]
    c = stats.c_plus + stats.c_minus
    diameter = (report.jones_diameter, c, report.jones_diameter <= c)
    holds = (all(ok for _, _, ok in max_side)
             and all(ok for _, _, ok in min_side) and diameter[2])
    return {
        "holds": holds,
        "max_side": max_side,
        "min_side": min_side,
        "diameter": diameter,
    }


def check_alternating_theorems(data, report):
    """Check the alternating-knot predictions against ``report``, an
    ``analyze`` report on the knot's closed-form degrees: period one on
    both sides, slopes equal to the signed crossing counts, the degree
    sum and span identities on the degree lists in its evidence, and the
    checkerboard surface slopes 2*c_plus and -2*c_minus."""
    base = data.diagram_stats()
    problems = []
    if report.period != 1:
        problems.append("period %d instead of 1" % report.period)
    if report.js != [Fraction(base.c_plus)]:
        problems.append("js %s instead of {c+} = {%d}"
                        % (report.js, base.c_plus))
    if report.js_star != [Fraction(-base.c_minus)]:
        problems.append("js* %s instead of {-c-} = {%d}"
                        % (report.js_star, -base.c_minus))
    degrees = zip(report.evidence["dmax"], report.evidence["dmin"])
    for n, (d, ds) in enumerate(degrees):
        dm, dp = closedforms.alt_symmetrized(base, n)
        if d + ds != dm or d - ds != dp:
            problems.append("degree sum/span identities fail at n=%d" % n)
            break
    checkerboard = (2 * base.c_plus, -2 * base.c_minus)
    doubled = (2 * report.js[0], 2 * report.js_star[0])
    if (Fraction(checkerboard[0]), Fraction(checkerboard[1])) != doubled:
        problems.append("checkerboard slopes %s do not match doubled fitted "
                        "slopes %s" % (checkerboard, doubled))
    c = base.c_plus + base.c_minus
    if report.jones_diameter != c:
        problems.append("jones diameter %s differs from crossing number %s"
                        % (report.jones_diameter, c))
    return {
        "holds": not problems,
        "problems": problems,
        "checkerboard_slopes": checkerboard,
        "report": report,
    }
