"""Fitting quadratic quasi-polynomials to integer sequences, exactly.

A quasi-polynomial here is a function s(n) = c2(n) n^2 + c1(n) n + c0(n)
whose coefficients are periodic with some period, valid from some
transient index on.  Sequences of this shape have rational generating
functions whose poles are roots of unity of order at most three.

The fitter scans (transient, period) pairs and interpolates a quadratic
through the first three samples of each residue class, checked on every
later sample of the class.  Convolving the sequence with (1 - z^p)^3
turns an accepted candidate into a generating function; reduced to
lowest terms, that function fixes the reported period and transient and
must reproduce every sample.  A sequence whose third difference settles
into a period with a nonzero sum grows like n^3 and is refused.

All arithmetic uses Fractions; nothing is floated.
"""

from fractions import Fraction
from math import gcd

__all__ = [
    "QuasiPolynomial", "RationalGF", "cyclotomic", "difference",
    "detect_period", "partial_fractions", "fit", "slopes",
    "estimate_cluster_slopes", "integrality_check", "load_sequence",
]


# ---------------------------------------------------------------------------
# polynomials over Q as ascending coefficient lists


def _pstrip(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _pstrip(out)


def _pdivmod(a, b):
    b = _pstrip(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = _pstrip(list(a))
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        if not a[-1]:
            a.pop()
            continue
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i, cb in enumerate(b):
            a[k + i] -= c * cb
        a.pop()
    return _pstrip(q), _pstrip(a)


def _poly_str(p, var="z"):
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            pw = var if i == 1 else "%s^%d" % (var, i)
            term = ("-" if c < 0 else "") + mag + pw
            if c < 0 and abs(c) != 1:
                term = "-" + str(abs(c)) + pw
        if not parts:
            parts.append(term)
        else:
            if term.startswith("-"):
                parts.append("- " + term[1:])
            else:
                parts.append("+ " + term)
    return " ".join(parts)


_CYCLOTOMIC = {1: [Fraction(-1), Fraction(1)]}


def cyclotomic(d):
    """Coefficients of the d-th cyclotomic polynomial, ascending."""
    if d in _CYCLOTOMIC:
        return list(_CYCLOTOMIC[d])
    num = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    for e in range(1, d):
        if d % e == 0:
            num, rem = _pdivmod(num, cyclotomic(e))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    _CYCLOTOMIC[d] = num
    return list(num)


# ---------------------------------------------------------------------------
# rational generating functions with cyclotomic denominators


class RationalGF:
    """P(z) / prod_d F_d(z)^m_d where F_1 = 1 - z and F_d is the d-th
    cyclotomic polynomial for d > 1."""

    def __init__(self, numerator, denominator):
        self.num = _pstrip([Fraction(c) for c in numerator])
        self.den = {int(d): int(m) for d, m in denominator.items() if m}
        for d, m in self.den.items():
            if d < 1 or m < 0:
                raise ValueError("bad denominator factor %r^%r" % (d, m))

    def den_poly(self):
        out = [Fraction(1)]
        for d, m in sorted(self.den.items()):
            base = cyclotomic(d) if d > 1 else [Fraction(1), Fraction(-1)]
            for _ in range(m):
                out = _pmul(out, base)
        return out

    def reduced(self):
        """Cancel cyclotomic factors and (1 - z) out of the numerator."""
        num = list(self.num)
        if not any(num):
            return RationalGF([], {})
        den = dict(self.den)
        for d in sorted(den):
            base = cyclotomic(d) if d > 1 else [Fraction(1), Fraction(-1)]
            while den[d] > 0 and num:
                q, r = _pdivmod(num, base)
                if r:
                    break
                num = q
                den[d] -= 1
            if den[d] == 0:
                del den[d]
        return RationalGF(num, den)

    def series(self, count):
        """First ``count`` coefficients of the Taylor expansion at 0."""
        q = self.den_poly()
        if not q or q[0] == 0:
            raise ValueError("generating function has a pole at z = 0")
        inv0 = 1 / q[0]
        out = []
        for n in range(count):
            c = self.num[n] if n < len(self.num) else Fraction(0)
            for k in range(1, min(n, len(q) - 1) + 1):
                c -= q[k] * out[n - k]
            out.append(c * inv0)
        return out

    def period_lcm(self):
        out = 1
        for d in self.den:
            if d > 1:
                out = out * d // gcd(out, d)
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalGF):
            return NotImplemented
        left = _pmul(self.num, other.den_poly())
        right = _pmul(other.num, self.den_poly())
        return left == right

    def __hash__(self):
        r = self.reduced()
        return hash((tuple(r.num), tuple(sorted(r.den.items()))))

    def __str__(self):
        num = _poly_str(self.num)
        if not self.den:
            return num
        parts = []
        for d, m in sorted(self.den.items()):
            base = "(1 - z)" if d == 1 else "(%s)" % _poly_str(cyclotomic(d))
            parts.append(base + ("^%d" % m if m > 1 else ""))
        return "(%s) / (%s)" % (num, " ".join(parts))

    def __repr__(self):
        return "RationalGF(%r, %r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# quasi-polynomials


class QuasiPolynomial:
    """Piecewise quadratic model: classes[n % period] gives (c2, c1, c0),
    guaranteed to match the fitted data for n >= transient.

    fit() and partial_fractions() also attach the reduced generating
    function as ``gf``; otherwise it is None.
    """

    def __init__(self, period, transient, classes):
        if period < 1 or len(classes) != period:
            raise ValueError("need one coefficient triple per residue class")
        self.period = period
        self.transient = transient
        self.classes = [tuple(Fraction(c) for c in trip) for trip in classes]
        self.gf = None

    def evaluate(self, n):
        """The class formula at n.  Below the transient this extrapolates;
        the fitted data is only certified from the transient on."""
        c2, c1, c0 = self.classes[n % self.period]
        return c2 * n * n + c1 * n + c0

    def leading(self):
        """The sorted distinct values of the quadratic coefficient."""
        return sorted({trip[0] for trip in self.classes})

    def describe(self):
        lines = []
        for r, trip in enumerate(self.classes):
            terms = []
            for coeff, var in zip(trip, ("n^2", "n", "")):
                if not coeff:
                    continue
                sign = "- " if coeff < 0 else ("+ " if terms else "")
                mag = abs(coeff)
                if var and mag == 1:
                    terms.append(sign + var)
                else:
                    terms.append(sign + str(mag) + (" " + var if var else ""))
            lines.append("n = %d mod %d: %s"
                         % (r, self.period, " ".join(terms) or "0"))
        return "\n".join(lines)

    def __eq__(self, other):
        if not isinstance(other, QuasiPolynomial):
            return NotImplemented
        return (self.period, self.transient, self.classes) == \
               (other.period, other.transient, other.classes)

    def __repr__(self):
        return ("QuasiPolynomial(period=%d, transient=%d, classes=%r)"
                % (self.period, self.transient, self.classes))


# ---------------------------------------------------------------------------
# elementary sequence operations


def difference(seq, k=1):
    """k-th forward difference of a sequence; k elements shorter.

    k = 0 returns a copy.  Raises when the sequence has no room left to
    difference.
    """
    if k < 0:
        raise ValueError("difference order must be >= 0")
    out = list(seq)
    for _ in range(k):
        if len(out) < 2:
            raise ValueError("sequence too short for a %d-th difference" % k)
        out = [out[i + 1] - out[i] for i in range(len(out) - 1)]
    return out


def detect_period(seq, max_period=16, max_transient=8):
    """Smallest (transient, period) in lexicographic order making the
    sequence eventually periodic; returned as (period, transient).

    A candidate is only accepted when the data shows at least two full
    periods past the transient plus three more matching points:
    len(seq) >= transient + 2 * period + 3.
    """
    seq = list(seq)
    for t in range(max_transient + 1):
        for p in range(1, max_period + 1):
            if len(seq) < t + 2 * p + 3:
                continue
            if all(seq[n] == seq[n + p] for n in range(t, len(seq) - p)):
                return p, t
    raise ValueError("no period up to %d with transient up to %d fits "
                     "%d samples" % (max_period, max_transient, len(seq)))


def _cyclotomic_split(power_of, mult):
    """Denominator dict for (1 - z^p)^mult."""
    den = {1: mult}
    for d in range(2, power_of + 1):
        if power_of % d == 0:
            den[d] = mult
    return den


def _interpolate_quadratic(points):
    """Exact quadratic through three (n, value) points."""
    (x0, y0), (x1, y1), (x2, y2) = points
    c2 = (y0 / ((x0 - x1) * (x0 - x2)) + y1 / ((x1 - x0) * (x1 - x2))
          + y2 / ((x2 - x0) * (x2 - x1)))
    c1 = (-y0 * (x1 + x2) / ((x0 - x1) * (x0 - x2))
          - y1 * (x0 + x2) / ((x1 - x0) * (x1 - x2))
          - y2 * (x0 + x1) / ((x2 - x0) * (x2 - x1)))
    c0 = (y0 * x1 * x2 / ((x0 - x1) * (x0 - x2))
          + y1 * x0 * x2 / ((x1 - x0) * (x1 - x2))
          + y2 * x0 * x1 / ((x2 - x0) * (x2 - x1)))
    return c2, c1, c0


def partial_fractions(g):
    """Extract the quadratic quasi-polynomial a rational generating
    function represents.

    The function is reduced to lowest terms first.  Any pole of order
    above three means the coefficients grow faster than quadratically
    and is an error.  A numerator of degree at least the denominator's
    leaves a polynomial part, whose length is the transient of the
    result.
    """
    r = g.reduced()
    for d, m in r.den.items():
        if m > 3:
            raise ValueError(
                "pole of order %d at a root of z^%d = 1: coefficients "
                "are not quadratic" % (m, d))
    period = r.period_lcm()
    transient = max(0, len(r.num) - len(r.den_poly()) + 1)
    count = transient + 4 * period + 3
    sample = r.series(count)
    classes = []
    for res in range(period):
        ns = [n for n in range(transient, count) if n % period == res][:3]
        pts = [(Fraction(n), sample[n]) for n in ns]
        classes.append(_interpolate_quadratic(pts))
    quasi = QuasiPolynomial(period, transient, classes)
    for n in range(transient, count):
        if quasi.evaluate(n) != sample[n]:
            raise AssertionError("partial fractions disagree with the "
                                 "series at n=%d" % n)
    quasi.gf = r
    return quasi


# ---------------------------------------------------------------------------
# the fit


def _try_classes(seq, t, p):
    """Quadratic per residue class through the first three samples of
    each class at indices >= t, validated on every remaining sample.
    Returns the class list, or None if some class misses or lacks
    three samples."""
    classes = [None] * p
    for r in range(p):
        ns = [n for n in range(t, len(seq)) if n % p == r]
        if len(ns) < 3:
            return None
        pts = [(Fraction(n), seq[n]) for n in ns[:3]]
        c2, c1, c0 = _interpolate_quadratic(pts)
        for n in ns[3:]:
            if c2 * n * n + c1 * n + c0 != seq[n]:
                return None
        classes[r] = (c2, c1, c0)
    return classes


def _finish(seq, g):
    """Reduce a candidate generating function, re-check it against the
    whole sample, and extract the quasi-polynomial."""
    r = g.reduced()
    if r.series(len(seq)) != seq:
        raise ValueError("generating function does not reproduce the "
                         "sequence")
    quasi = partial_fractions(r)
    t, p = quasi.transient, quasi.period
    for res in range(p):
        if sum(1 for n in range(t, len(seq)) if n % p == res) < 3:
            raise ValueError(
                "not enough samples: period %d with transient %d needs "
                "three samples per residue class, got %d values"
                % (p, t, len(seq)))
    if _try_classes(seq, t, p) is None:
        raise ValueError("sequence not quasi-quadratic in window")
    for n in range(t, len(seq)):
        if quasi.evaluate(n) != seq[n]:
            raise ValueError("sequence not quasi-quadratic in window")
    integrality_check(quasi)
    return quasi


def _fit_classes(seq, max_period, max_transient):
    """Scan (transient, period) pairs, fit a quadratic per residue
    class, and rebuild the generating function by convolving the
    sequence with (1 - z^p)^3.

    Pairs that leave every class a fourth sample, so that some sample
    checks each class, are tried first; pairs whose thinnest class
    holds only its three interpolation points come after.  Both passes
    run in lexicographic (t, p) order."""
    pairs = [(t, p) for t in range(max_transient + 1)
             for p in range(1, max_period + 1) if (len(seq) - t) // p >= 3]
    pairs.sort(key=lambda tp: (len(seq) - tp[0]) // tp[1] < 4)
    for t, p in pairs:
        if _try_classes(seq, t, p) is None:
            continue
        den3 = _cyclotomic_split(p, 3)
        denpoly = RationalGF([1], den3).den_poly()
        conv = []
        for n in range(min(len(seq), t + 3 * p)):
            c = Fraction(0)
            for k in range(min(n, len(denpoly) - 1) + 1):
                c += denpoly[k] * seq[n - k]
            conv.append(c)
        try:
            return _finish(seq, RationalGF(conv, den3))
        except ValueError:
            continue
    if not pairs:
        raise ValueError(
            "not enough samples: fitting period p needs at least 3p "
            "values past the transient, got %d" % len(seq))
    raise ValueError(
        "no quadratic quasi-polynomial with period <= %d and transient "
        "<= %d fits the data" % (max_period, max_transient))


def _reject_cubic(seq, max_period, max_transient):
    """Refuse a sequence whose third difference is eventually periodic
    with a nonzero sum over one period: it grows like n^3, and the class
    scan would otherwise interpolate it with no sample left to check."""
    if len(seq) < 4:
        return
    d3 = difference(seq, 3)
    try:
        period, t = detect_period(d3, max_period, max_transient)
    except ValueError:
        return
    if sum(d3[t:t + period]):
        raise ValueError("sequence is not quasi-quadratic in the "
                         "window: third differences have period but "
                         "a nonzero mean")


def fit(seq, max_period=16, max_transient=8):
    """Fit an exact quadratic quasi-polynomial to a sequence.

    Candidates come from per-class interpolation over (transient,
    period) pairs with period <= max_period and transient <=
    max_transient, pairs with a spare sample in every class first.  A
    candidate is returned only when its reduced generating function
    reproduces every sample, has poles of order at most three at roots
    of unity, agrees with a second per-class interpolation at the
    reduced (transient, period), and every slope times the squared
    period is an integer.  Sequences whose third difference settles
    into a period with a nonzero sum are refused as cubic.
    """
    seq = [Fraction(x) for x in seq]
    _reject_cubic(seq, max_period, max_transient)
    return _fit_classes(seq, max_period, max_transient)


def slopes(quasi):
    """Sorted distinct values of twice the quadratic coefficient."""
    return sorted({2 * trip[0] for trip in quasi.classes})


def estimate_cluster_slopes(seq, quasi=None):
    """Cluster values of 2 s(n) / n^2, computed exactly through a fit.

    Checks that the ratio approaches the slope of its residue class at
    rate C/n with C from the fitted lower-order coefficients, then
    returns the slope set.  Pass a prior fit to skip refitting.
    """
    seq = [Fraction(x) for x in seq]
    if quasi is None:
        quasi = fit(seq)
    c = (2 * max(abs(t[1]) for t in quasi.classes)
         + 2 * max(abs(t[2]) for t in quasi.classes) + 1)
    start = max(quasi.transient, 1)
    for n in range(start, len(seq)):
        target = 2 * quasi.classes[n % quasi.period][0]
        if abs(2 * seq[n] / (n * n) - target) > Fraction(c, n):
            raise AssertionError(
                "slope estimate at n=%d strayed outside the C/n window" % n)
    return slopes(quasi)


def integrality_check(quasi):
    """Every slope times the squared period must be an integer; returns
    the (slope, slope * period^2) witnesses."""
    pp = quasi.period * quasi.period
    witnesses = []
    for s in slopes(quasi):
        if (s * pp).denominator != 1:
            raise ValueError(
                "slope %s times period^2 = %s is not an integer"
                % (s, s * pp))
        witnesses.append((s, s * pp))
    return witnesses


def load_sequence(path):
    """Read a sequence file: one value per line, # comments, blank lines
    ignored.  Values may be integers or fractions like 3/2."""
    values = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            values.append(Fraction(line))
    return values
