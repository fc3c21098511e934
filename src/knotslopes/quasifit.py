"""Fitting quadratic quasi-polynomials to integer sequences, exactly.

A quasi-polynomial here is a function s(n) = c2(n) n^2 + c1(n) n + c0(n)
whose coefficients are periodic with some period, valid from some
transient index on.  Sequences of this shape have rational generating
functions whose poles are roots of unity of order at most three.

The fitter works on the samples scaled to integers.  For each period p
one backward pass finds the settle index: the first index from which
the lag-p third differences vanish.  A quadratic per residue class
through the first three samples of each class from the transient t on
fits every later sample exactly when t is at or past that index, so
the (transient, period) pairs are settled without a pass of their own.
The first fitting pair whose classes do not repeat with a smaller
period, and whose slopes times the squared period are integers, is the
model; the scan order makes it the smallest one, so nothing is reduced
to find the period and transient.  Both tests run on the integer
numerators of the class coefficients, and Fractions are built only for
the model that is returned.  Its generating function is built only
when read.  A sequence whose third difference settles into a period
with a nonzero sum grows like n^3 and is refused.

The arithmetic is exact: integer kernels, Fractions at the interface.
The cubic check, the class scan and its coefficients, the series
recurrence and the generating functions run on the samples scaled to
integers; a polynomial in z is a ``LaurentPoly``, which does every
product and quotient.  Values enter and leave as Fractions, and
nothing is floated.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .laurent import LaurentPoly

__all__ = [
    "QuasiPolynomial", "RationalGF", "difference",
    "detect_period", "fit", "slopes",
    "integrality_check", "load_sequence",
]

# the default fit window of ``fit`` and ``detect_period``
MAX_PERIOD = 16
MAX_TRANSIENT = 8


# ---------------------------------------------------------------------------
# polynomials in z, held as the LaurentPoly of the same polynomial in q


def _zpoly(coeffs):
    """``coeffs``, ascending in z, as a LaurentPoly: z^i at key 4i."""
    return LaurentPoly({4 * i: c for i, c in enumerate(coeffs)})


def _zcoeffs(poly):
    """Ascending coefficients of a polynomial in z; [] for zero."""
    out = [0] * (max(poly.terms, default=-4) // 4 + 1)
    for k, c in poly.terms.items():
        out[k // 4] = c
    return out


def _scaled(values):
    """Fractions times the lcm of their denominators, as integers, and
    that lcm."""
    scale = lcm(*[x.denominator for x in values])
    if scale == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _poly_str(p):
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
            pw = "z" if i == 1 else "z^%d" % i
            term = ("-" if c < 0 else "") + mag + pw
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append("- " + term[1:])
        else:
            parts.append("+ " + term)
    return " ".join(parts)


@lru_cache(maxsize=None)
def _factor(d):
    """F_d: 1 - z^d divided by F_e for every proper divisor e of d, so
    F_1 = 1 - z and F_d is the d-th cyclotomic polynomial for d > 1."""
    f = LaurentPoly({0: 1, 4 * d: -1})
    for e in range(1, d):
        if d % e == 0:
            f = f.exact_div(_factor(e))
    return f


@lru_cache(maxsize=None)
def _den_coeffs(factors):
    """Ascending integer coefficients of prod F_d^m over the sorted
    (d, m) pairs ``factors``, as a tuple: built once per denominator."""
    out = LaurentPoly.one()
    for d, m in factors:
        out = out * _factor(d) ** m
    return tuple(_zcoeffs(out))


# ---------------------------------------------------------------------------
# rational generating functions with cyclotomic denominators


class RationalGF:
    """P(z) / prod_d F_d(z)^m_d with F_d from ``_factor``.  P is a list of
    Fractions; products and quotients run on integers, in LaurentPolys."""

    def __init__(self, numerator, denominator):
        num = [Fraction(c) for c in numerator]
        while num and not num[-1]:
            num.pop()
        self.num = num
        self.den = {int(d): int(m) for d, m in denominator.items() if m}
        for d, m in self.den.items():
            if d < 1 or m < 0:
                raise ValueError("bad denominator factor %r^%r" % (d, m))

    def den_poly(self):
        """Ascending integer coefficients of the denominator."""
        return list(_den_coeffs(tuple(sorted(self.den.items()))))

    def reduced(self):
        """Cancel the factors F_d that divide the numerator.  Each F_d is
        primitive with constant term 1, so it divides over Q exactly when
        it divides the numerator scaled to integers."""
        ints, scale = _scaled(self.num)
        num = _zpoly(ints)
        den = {}
        for d, m in sorted(self.den.items()):
            while m:
                try:
                    num = num.exact_div(_factor(d))
                except ValueError:
                    break
                m -= 1
            den[d] = m
        return RationalGF([Fraction(c, scale) for c in _zcoeffs(num)], den)

    def series(self, count):
        """First ``count`` coefficients of the Taylor expansion at 0.

        The denominator has integer coefficients and constant term 1,
        so the recurrence runs on integers once the numerator is scaled
        by the lcm of its denominators.  The denominator's coefficients
        are built once per distinct denominator (``_den_coeffs``)."""
        num, scale = _scaled(self.num)
        den = _den_coeffs(tuple(sorted(self.den.items())))
        taps = [(k, c) for k, c in enumerate(den) if k and c]
        out = []
        for n in range(count):
            c = num[n] if n < len(num) else 0
            for k, ck in taps:
                if k > n:
                    break
                c -= ck * out[n - k]
            out.append(c)
        return [Fraction(c, scale) for c in out]

    def __str__(self):
        num = _poly_str(self.num)
        if not self.den:
            return num
        parts = []
        for d, m in sorted(self.den.items()):
            parts.append("(%s)" % _poly_str(_zcoeffs(_factor(d)))
                         + ("^%d" % m if m > 1 else ""))
        return "(%s) / (%s)" % (num, " ".join(parts))

    def __repr__(self):
        return "RationalGF(%r, %r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# quasi-polynomials


class QuasiPolynomial:
    """Piecewise quadratic model: classes[n % period] gives (c2, c1, c0),
    guaranteed to match the fitted data for n >= transient.

    fit() also keeps the samples below the transient, from which ``gf``
    builds the model's generating function; on a model built by hand
    ``gf`` is None.
    """

    def __init__(self, period, transient, classes):
        if period < 1 or len(classes) != period:
            raise ValueError("need one coefficient triple per residue class")
        self.period = period
        self.transient = transient
        # Fraction(c) would copy a Fraction through an ABC check
        self.classes = [tuple(c if isinstance(c, Fraction) else Fraction(c)
                              for c in trip) for trip in classes]
        self._head = None

    @property
    def gf(self):
        """The fitted sequence as a reduced RationalGF: the samples below
        the transient, then the classes, times (1 - z^p)^3, which leaves
        the model nothing from index transient + 3p on, so the product is
        cut there.  Built anew on every read."""
        if self._head is None:
            return None
        p, t = self.period, self.transient
        ints, scale = _scaled(
            self._head + [self.evaluate(n) for n in range(t, t + 3 * p)])
        conv = _zcoeffs(_zpoly(ints) * LaurentPoly({0: 1, 4 * p: -1}) ** 3)
        return RationalGF([Fraction(c, scale) for c in conv[:t + 3 * p]],
                          _cyclotomic_split(p, 3)).reduced()

    def evaluate(self, n):
        """The class formula at n.  Below the transient this extrapolates;
        the fitted data is only certified from the transient on."""
        c2, c1, c0 = self.classes[n % self.period]
        return c2 * n * n + c1 * n + c0

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


def detect_period(seq, max_period=MAX_PERIOD, max_transient=MAX_TRANSIENT):
    """Smallest (transient, period) in lexicographic order making the
    sequence eventually periodic; returned as (period, transient).

    A candidate is only accepted when the data shows at least two full
    periods past the transient plus three more matching points:
    len(seq) >= transient + 2 * period + 3.  The sequence is periodic
    with period p from t on exactly when t is at or past p's settle
    index on lag-p first differences, so each period takes one
    backward pass and its smallest transient is that index.
    """
    seq = list(seq)
    best = None
    for p in range(1, min(max_period, (len(seq) - 3) // 2) + 1):
        t = _settle(seq, p, 1)
        if (t <= min(max_transient, len(seq) - 3 - 2 * p)
                and (best is None or t < best[1])):
            best = p, t
    if best is None:
        raise ValueError("no period up to %d with transient up to %d fits "
                         "%d samples" % (max_period, max_transient, len(seq)))
    return best


def _cyclotomic_split(power_of, mult):
    """Denominator dict for (1 - z^p)^mult."""
    den = {1: mult}
    for d in range(2, power_of + 1):
        if power_of % d == 0:
            den[d] = mult
    return den


# ---------------------------------------------------------------------------
# the fit


def _settle(seq, lag, order):
    """The settle index of ``seq`` for ``lag``: the first index n from
    which every lag-``lag`` difference of ``order`` (1 or 3) vanishes,
    that of order 3 being seq[n + 3 lag] - 3 seq[n + 2 lag]
    + 3 seq[n + lag] - seq[n].  One backward pass from the last
    difference stops at the first one that is nonzero."""
    n = len(seq) - order * lag      # one past the last difference
    if order == 1:
        while n > 0 and seq[n - 1 + lag] == seq[n - 1]:
            n -= 1
        return n
    while n > 0 and seq[n - 1 + 3 * lag] - seq[n - 1] == \
            3 * (seq[n - 1 + 2 * lag] - seq[n - 1 + lag]):
        n -= 1
    return n


def _try_classes(seq, t, p):
    """Quadratic per residue class through the first three samples of
    each class at indices >= t, on ``seq``, the samples scaled to
    integers.  The caller runs it only when t is at or past the settle
    index of period p and len(seq) >= t + 3p, so every class has three
    samples and its third differences vanish: the quadratic fits every
    later sample of the class.  Returns the class list, (c2, c1, c0)
    per residue, as integer numerators over 2 p^2 times the scale,
    read off the first and second differences of each class."""
    classes = [None] * p
    for n0 in range(t, t + p):    # the first index of each class
        # Newton's form in x = (n - n0)/p: y0 + d1 x + d2 x(x - 1)/2
        y0, y1, y2 = seq[n0], seq[n0 + p], seq[n0 + 2 * p]
        d1, d2 = y1 - y0, y2 - 2 * y1 + y0
        classes[n0 % p] = (
            d2, 2 * p * d1 - d2 * (2 * n0 + p),
            2 * p * p * y0 - 2 * p * d1 * n0 + d2 * n0 * (n0 + p))
    return classes


def _repeats(classes):
    """True when the class list repeats with a smaller period.  The
    classes are integer numerators over one denominator, equal exactly
    when their Fractions are."""
    p = len(classes)
    return any(classes == classes[:d] * (p // d)
               for d in range(1, p) if p % d == 0)


def _model(seq, t, p, classes, scale):
    """The fitted QuasiPolynomial: ``classes`` are integer numerators
    over 2 p^2 ``scale``, and the samples ``seq`` below t are its head."""
    den = 2 * p * p * scale
    quasi = QuasiPolynomial(p, t, [(Fraction(c2, den), Fraction(c1, den),
                                    Fraction(c0, den))
                                   for c2, c1, c0 in classes])
    quasi._head = seq[:t]
    return quasi


def _fit_classes(seq, ints, scale, max_period, max_transient):
    """Scan (transient, period) pairs and fit a quadratic per residue
    class; the first candidate whose classes hold, do not repeat with a
    smaller period, and pass ``integrality_check`` is the model.

    Pairs that leave every class a fourth sample, so that some sample
    checks each class, are tried first; pairs whose thinnest class
    holds only its three interpolation points come after.  Both passes
    run in lexicographic (t, p) order.  A pair's classes hold exactly
    when t is at or past the settle index of p, which one backward pass
    over ``ints``, the samples ``seq`` times ``scale``, finds the first
    time p is met; only the pairs that hold reach ``_try_classes``.  A
    slope times p^2 is d2 / scale for the class's second difference d2,
    so the integrality test is that scale divides each d2.  Fractions
    are built for the model returned, or for the last candidate that
    failed only that test, whose ``integrality_check`` message is the
    refusal."""
    if len(seq) < 3:
        raise ValueError(
            "not enough samples: fitting period p needs at least 3p "
            "values past the transient, got %d" % len(seq))
    last_t = min(max_transient, len(seq) - 3)
    settle = {}
    refused = None
    for spare in (True, False):
        for t in range(last_t + 1):
            room = len(seq) - t
            lo, hi = (1, room // 4) if spare else (room // 4 + 1, room // 3)
            for p in range(lo, min(max_period, hi) + 1):
                if p not in settle:
                    settle[p] = _settle(ints, p, 3)
                if t < settle[p]:
                    continue
                classes = _try_classes(ints, t, p)
                if _repeats(classes):
                    continue
                if any(c2 % scale for c2, _, _ in classes):
                    refused = t, p, classes
                    continue
                # The first candidate to get here is the smallest model.
                # A smaller one (t' <= t, p' dividing p) that also fits
                # has at least as many samples per class, so the scan
                # met it first, in this pass or an earlier one, with
                # these classes cut to p'.  If p' < p, these classes
                # repeat and _repeats skips them; if p' = p, it failed
                # this same integrality test.
                return _model(seq, t, p, classes, scale)
    if refused is not None:
        integrality_check(_model(seq, *refused, scale))
    raise ValueError(
        "no quadratic quasi-polynomial with period <= %d and transient "
        "<= %d fits the data" % (max_period, max_transient))


def _reject_cubic(ints, max_period, max_transient):
    """Refuse a sequence whose third difference is eventually periodic
    with a nonzero sum over one period: it grows like n^3, and the class
    scan would otherwise interpolate it with no sample left to check.
    The differences run on ``ints``, the samples scaled to integers,
    which keeps both their period and whether their sum vanishes."""
    if len(ints) < 4:
        return
    d3 = difference(ints, 3)
    try:
        period, t = detect_period(d3, max_period, max_transient)
    except ValueError:
        return
    if sum(d3[t:t + period]):
        raise ValueError("sequence is not quasi-quadratic in the "
                         "window: third differences have period but "
                         "a nonzero mean")


def fit(seq, max_period=MAX_PERIOD, max_transient=MAX_TRANSIENT):
    """Fit an exact quadratic quasi-polynomial to a sequence.

    Candidates come from per-class interpolation over (transient,
    period) pairs with period <= max_period and transient <=
    max_transient, pairs with a spare sample in every class first.  The
    first candidate is returned whose classes match every sample from
    its transient on, whose class list does not repeat with a smaller
    period, and whose slopes times the squared period are integers; it
    is the smallest model in the window.  When candidates fit but none
    passes the integrality check, the check's last message is raised.
    Sequences whose third difference settles into a period with a
    nonzero sum are refused as cubic.

    The samples are scaled to integers once (a Fraction passes as it
    is; anything else goes through ``Fraction``).  Each period's settle
    index is found once, by one backward pass, and decides every pair
    with that period; the candidates are certified on integer
    numerators, and Fractions are built only for the returned model.
    """
    if max_period < 1:
        raise ValueError("max_period must be at least 1, got %d"
                         % max_period)
    if max_transient < 0:
        raise ValueError("max_transient must be nonnegative, got %d"
                         % max_transient)
    seq = [x if isinstance(x, Fraction) else Fraction(x) for x in seq]
    ints, scale = _scaled(seq)
    _reject_cubic(ints, max_period, max_transient)
    return _fit_classes(seq, ints, scale, max_period, max_transient)


def slopes(quasi):
    """Sorted distinct values of twice the quadratic coefficient."""
    return sorted({2 * trip[0] for trip in quasi.classes})


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


# integers from outside (spec parameters, PD labels, integer options)
# and sequence values are ASCII digits: int() and Fraction() also take
# underscores and non-ASCII digits such as an Arabic-Indic three
_INTEGER = re.compile(r"[+-]?[0-9]+")
_NUMBER = re.compile(_INTEGER.pattern + r"(/[0-9]+)?")


def _integer(tok):
    """An integer token like -3 as an int; a ValueError naming the token
    for anything else."""
    if not _INTEGER.fullmatch(tok):
        raise ValueError("%r is not an integer" % tok)
    return int(tok)


def _number(tok):
    """An integer or fraction token like -3/2 as a Fraction; ValueError
    for decimals, exponents and underscores, which Fraction takes."""
    if not _NUMBER.fullmatch(tok):
        raise ValueError(tok)
    return Fraction(tok)


def _data_lines(path):
    """The ``(line number, text)`` pairs of a data file: ``#``
    starts a comment, the text is right-stripped, and blank lines are
    skipped.  A line that is not UTF-8 is a ValueError that names the
    file and line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].rstrip()
        except UnicodeDecodeError as exc:
            raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
        if line.strip():
            yield lineno, line


def load_sequence(path):
    """Read a sequence file: one value per line, # comments, blank lines
    ignored.  Values are integers or fractions like 3/2 (``_number``);
    any other value, or a line that is not UTF-8, is a ValueError that
    names the file and line."""
    values = []
    for lineno, line in _data_lines(path):
        line = line.strip()
        try:
            values.append(_number(line))
        except (ValueError, ZeroDivisionError):
            raise ValueError("%s:%d: unparseable value %r"
                             % (path, lineno, line)) from None
    return values
