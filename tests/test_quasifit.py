"""Tests for quasi-polynomial fitting and the generating-function toolkit."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotslopes import quasifit
from knotslopes.quasifit import (QuasiPolynomial, RationalGF, detect_period,
                                 difference, fit, integrality_check,
                                 load_sequence, slopes)

# (-2,3,7) pretzel maximum degrees, colors 0..19
P237_DELTA = [0, 13, 35, 67, 108, 158, 217, 286, 364, 451, 547, 653, 768,
              892, 1025, 1168, 1320, 1481, 1651, 1831]

# Its generating function: the third difference repeats 1, -1, 0, 0,
# whose generating function (1 - z) / (1 - z^4) sums three times from
# the anchors delta(0) = 0, (D delta)(0) = 13, (D^2 delta)(0) = 9
P237_GF = RationalGF([0, 13, 9, 10, 9, -4], {1: 3, 2: 1, 4: 1})

# 8_19 maximum degrees, colors 0..12
D819 = [0, 8, 23, 43, 70, 102, 141, 185, 236, 292, 355, 423, 498]


def test_difference_basic():
    assert difference([0, 5, 10, 15, 20]) == [5, 5, 5, 5]
    assert difference([1, 2, 4], 0) == [1, 2, 4]
    assert difference(P237_DELTA, 3)[:8] == [1, -1, 0, 0, 1, -1, 0, 0]
    with pytest.raises(ValueError):
        difference([1, 2], 3)
    with pytest.raises(ValueError):
        difference([1], -1)


def test_detect_period_periodic():
    seq = [1, -1, 0, 0] * 4 + [1]
    assert detect_period(seq) == (4, 0)


def test_detect_period_constant():
    assert detect_period([5] * 7) == (1, 0)


def test_detect_period_with_transient():
    seq = [17, 17, 17, 17, 17] + [9, 25] * 5
    assert detect_period(seq) == (2, 5)
    # brute force: no (t, p) lexicographically before (5, 2) explains it
    for t in range(5):
        for p in (1, 2):
            tail = seq[t:]
            assert any(tail[i] != tail[i + p] for i in range(len(tail) - p))


def test_detect_period_failure():
    with pytest.raises(ValueError):
        detect_period([1, 2], max_period=4, max_transient=2)
    with pytest.raises(ValueError):
        detect_period(list(range(40)), max_period=4, max_transient=2)


def test_periodic_gf_series():
    g = RationalGF([1, -1], {1: 1, 2: 1, 4: 1})  # (1 - z) / (1 - z^4)
    assert g.series(9) == [1, -1, 0, 0, 1, -1, 0, 0, 1]
    assert g.reduced().den == {2: 1, 4: 1}
    assert RationalGF([5], {1: 1}).series(4) == [5, 5, 5, 5]
    assert RationalGF([0, 1], {1: 1, 2: 1}).series(5) == [0, 1, 0, 1, 0]


def test_cyclotomic_factors():
    assert RationalGF([], {1: 1}).den_poly() == [1, -1]
    assert RationalGF([], {2: 1}).den_poly() == [1, 1]
    assert RationalGF([], {4: 1}).den_poly() == [1, 0, 1]
    assert RationalGF([], {6: 1}).den_poly() == [1, -1, 1]
    assert RationalGF([], {}).den_poly() == [1]


def test_factors_of_one_minus_z_to_the_n():
    for n in range(1, 41):
        den = RationalGF([], quasifit._cyclotomic_split(n, 1)).den_poly()
        assert den == [1] + [0] * (n - 1) + [-1]


def test_linear_gf_series():
    g = RationalGF([0, 5], {1: 2})
    assert str(g) == "(5z) / ((1 - z)^2)"
    assert g.series(5) == [0, 5, 10, 15, 20]
    assert RationalGF([7], {1: 1}).series(4) == [7, 7, 7, 7]


def test_p237_gf_series():
    assert str(P237_GF) == "(13z + 9z^2 + 10z^3 + 9z^4 - 4z^5)" \
                           " / ((1 - z)^3 (1 + z) (1 + z^2))"
    assert P237_GF.series(len(P237_DELTA)) == P237_DELTA
    assert difference(P237_GF.series(12), 3) == [1, -1, 0, 0] * 2 + [1]


def test_fit_p237_generating_function():
    q = fit(P237_GF.series(24))
    assert q.period == 4
    assert q.transient == 0
    assert q.classes == [
        (Fraction(37, 8), Fraction(17, 2), Fraction(0)),
        (Fraction(37, 8), Fraction(17, 2), Fraction(-1, 8)),
        (Fraction(37, 8), Fraction(17, 2), Fraction(-1, 2)),
        (Fraction(37, 8), Fraction(17, 2), Fraction(-1, 8)),
    ]
    assert str(q.gf) == str(P237_GF)


def test_fit_polynomial_part_is_transient():
    # (2 + 5z^2) / (1 - z) has the polynomial part -5 - 5z, so the
    # constant 7 holds from n = 2 on
    q = fit(RationalGF([2, 0, 5], {1: 1}).series(8))
    assert (q.period, q.transient) == (1, 2)
    assert q.classes == [(0, 0, 7)]
    assert str(q.gf) == "(2 + 5z^2) / ((1 - z))"


def test_fit_exact_quadratic():
    q = fit([n * n for n in range(9)])
    assert q.period == 1
    assert q.transient == 0
    assert q.classes == [(1, 0, 0)]


def test_fit_9_49_min_side():
    q = fit([0, 2, 4, 6, 8, 10])
    assert q.period == 1
    assert q.classes == [(0, 2, 0)]


def test_fit_8_19():
    q = fit(D819)
    assert q.period == 2
    assert q.classes == [(3, Fraction(11, 2), 0),
                         (3, Fraction(11, 2), Fraction(-1, 2))]
    assert str(q.gf) == "(8z + 7z^2 - 3z^3) / ((1 - z)^3 (1 + z))"
    assert slopes(q) == [6]


def test_fit_reproduces_all_samples():
    q = fit(P237_DELTA)
    for n, v in enumerate(P237_DELTA):
        assert q.evaluate(n) == v
    assert slopes(q) == [Fraction(37, 4)]


def test_fit_not_enough_samples():
    with pytest.raises(ValueError, match="not enough samples"):
        fit([0, 1])


def test_fit_rejects_bad_window_bounds():
    seq = [n * n for n in range(17)]
    with pytest.raises(ValueError, match="max_period must be at least 1"):
        fit(seq, max_period=0)
    with pytest.raises(ValueError, match="max_transient must be nonneg"):
        fit(seq, max_transient=-1)


def test_fit_rejects_non_quadratic():
    for cubic in ([n ** 3 for n in range(20)],
                  [Fraction(n ** 3, 12) for n in range(20)]):
        with pytest.raises(ValueError, match="nonzero mean"):
            fit(cubic)


def test_fit_with_transient():
    # quadratic from n = 2 on, garbage before
    vals = [99, -5] + [3 * n * n + 1 for n in range(2, 14)]
    q = fit(vals)
    assert q.transient == 2
    assert q.period == 1
    for n in range(2, 14):
        assert q.evaluate(n) == vals[n]


def test_fit_prefers_checked_classes():
    # the period-3 model with no transient interpolates each class
    # through its only three samples; the period-1 model from n = 1
    # leaves five samples to check it, so the scan takes it first
    q = fit([0] + [n * n - 3 * n - 3 for n in range(1, 9)])
    assert (q.period, q.transient) == (1, 1)
    assert q.classes == [(1, -3, -3)]


def test_fit_checked_transient_beats_unchecked_period():
    # n^2 for even n, n^2 - n for odd n >= 1; n = 0 is off the pattern
    seq = [-1, 0, 4, 6, 16, 20, 36, 42, 64, 72, 100, 110]
    q = fit(seq)
    assert (q.period, q.transient) == (2, 1)
    assert q.evaluate(12) == 144


def test_mono_sloped_pole_order():
    # a genuinely quadratic sequence has a pole of order exactly 3 at z=1
    q = fit(D819)
    assert q.gf.den[1] == 3


def test_slopes_dedupes_classes():
    q = QuasiPolynomial(2, 0, [(Fraction(3, 2), 0, 0),
                               (Fraction(3, 2), 1, 1)])
    assert slopes(q) == [3]


def test_evaluate_below_transient_extrapolates():
    q = QuasiPolynomial(1, 2, [(1, 0, 0)])
    assert q.evaluate(0) == 0
    assert q.evaluate(5) == 25
    assert q.gf is None  # built by hand, not fitted


def test_integrality_check():
    q = fit(P237_DELTA)
    assert integrality_check(q) == [(Fraction(37, 4), 148)]
    q = fit([0, 1, 2, 7, 12, 16, 26, 35, 42, 57, 70, 80, 100])  # 8_20
    assert integrality_check(q) == [(Fraction(4, 3), 12)]
    bad = QuasiPolynomial(1, 0, [(Fraction(1, 3), 0, 0)])
    with pytest.raises(ValueError):
        integrality_check(bad)
    # n^2/3 is exactly quadratic, but its slope fails the check; the
    # period-3 model that would pass is the period-1 model repeated, so
    # the fit is refused with the check's message
    with pytest.raises(ValueError, match="^slope 2/3 times period\\^2 = "
                       "2/3 is not an integer$"):
        fit([Fraction(n * n, 3) for n in range(9)])


def test_load_sequence(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# header\n0\n5\n\n10\n-3/2\n")
    assert load_sequence(str(path)) == [0, 5, 10, Fraction(-3, 2)]


@st.composite
def quasi_polys(draw, max_period=6, max_transient=3):
    # slope times period^2 stays integral by construction, so only
    # genuinely minimal periods are kept (duplicate class patterns would
    # re-key the same constraint to a smaller period)
    period = draw(st.integers(1, max_period))
    transient = draw(st.integers(0, max_transient))
    classes = []
    for _ in range(period):
        c2 = Fraction(draw(st.integers(-9, 9)),
                      draw(st.sampled_from([1, 2, period,
                                            2 * period * period])))
        c1 = Fraction(draw(st.integers(-9, 9)),
                      draw(st.sampled_from([1, 2, period])))
        c0 = Fraction(draw(st.integers(-9, 9)),
                      draw(st.sampled_from([1, 2, period])))
        classes.append((c2, c1, c0))
    for m in range(1, period):
        if period % m == 0:
            assume(classes != [classes[i % m] for i in range(period)])
    return QuasiPolynomial(period, transient, classes)


@settings(max_examples=120, deadline=None)
@given(quasi_polys())
def test_round_trip_property(q):
    n_hi = q.transient + 6 * q.period
    seq = [q.evaluate(n) for n in range(n_hi + 1)]
    r = fit(seq)
    assert r.period == q.period
    assert slopes(r) == slopes(q)
    for n in range(r.transient, n_hi + 1):
        assert r.evaluate(n) == seq[n]


@st.composite
def fit_inputs(draw):
    """Window bounds and a sequence: a synthetic quasi-polynomial behind
    up to three arbitrary samples, which the fitter must accept when the
    bounds admit it, or a short run of small integers, which it may
    refuse.  The smallest model depends on the bounds, so they vary."""
    bounds = (draw(st.integers(1, 8)), draw(st.integers(0, 4)))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-5, 5), max_size=14)), bounds, False
    q = draw(quasi_polys())
    head = draw(st.lists(st.integers(-20, 20), max_size=3))
    count = len(head) + draw(st.integers(3, 5)) * q.period
    must_fit = q.period <= bounds[0] and len(head) <= bounds[1]
    return (head + [q.evaluate(n) for n in range(len(head), count)],
            bounds, must_fit)


@settings(max_examples=150, deadline=None)
@given(fit_inputs())
def test_fitted_model_is_its_generating_function(case):
    seq, (max_period, max_transient), must_fit = case
    try:
        q = fit(seq, max_period, max_transient)
    except ValueError:
        assert not must_fit
        return
    g = q.gf
    assert g.series(len(seq)) == seq
    assert q.period == lcm(*g.den)
    assert q.transient == max(0, len(g.num) - len(g.den_poly()) + 1)
    sample = g.series(q.transient + 3 * q.period)
    for r in range(q.period):
        n0 = q.transient + (r - q.transient) % q.period
        pts = [(Fraction(n), sample[n])
               for n in (n0, n0 + q.period, n0 + 2 * q.period)]
        assert q.classes[r] == _interpolate_quadratic(pts)


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction code they replaced


def _series_reference(g, count):
    """The Fraction recurrence ``RationalGF.series`` used to run."""
    q = g.den_poly()
    inv0 = Fraction(1, q[0])
    out = []
    for n in range(count):
        c = g.num[n] if n < len(g.num) else Fraction(0)
        for k in range(1, min(n, len(q) - 1) + 1):
            c -= q[k] * out[n - k]
        out.append(c * inv0)
    return out


def _strip(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pdivmod_reference(a, b):
    """The Fraction long division from the top term that
    ``RationalGF.reduced`` used to run: (quotient, remainder)."""
    b = _strip(list(b))
    a = _strip(list(a))
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
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
    return _strip(q), _strip(a)


def _factor_reference(d):
    """F_d in Fractions: 1 - z^d over F_e for the proper divisors e."""
    f = [Fraction(1)] + [Fraction(0)] * (d - 1) + [Fraction(-1)]
    for e in range(1, d):
        if d % e == 0:
            f, rem = _pdivmod_reference(f, _factor_reference(e))
            assert not rem
    return f


def _reduced_reference(g):
    """The Fraction reduction ``RationalGF.reduced`` used to run."""
    num = list(g.num)
    if not any(num):
        return RationalGF([], {})
    den = dict(g.den)
    for d in sorted(den):
        while den[d] > 0 and num:
            q, r = _pdivmod_reference(num, _factor_reference(d))
            if r:
                break
            num = q
            den[d] -= 1
    return RationalGF(num, den)


def _convolve(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _interpolate_quadratic(points):
    """Exact quadratic through three (n, value) points, in Fractions:
    the Lagrange form ``_try_classes`` used to run."""
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


def _try_classes_reference(seq, t, p):
    """The Fraction interpolation ``_try_classes`` used to run."""
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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.sampled_from([1, 3, 8])),
                max_size=10),
       st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=4),
       st.integers(0, 40))
def test_integer_series_matches_fraction_recurrence(num, den, count):
    g = RationalGF([Fraction(a, b) for a, b in num], den)
    got = g.series(count)
    assert got == _series_reference(g, count)
    assert all(isinstance(c, Fraction) for c in got)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.sampled_from([1, 3, 8])),
                max_size=8),
       st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=4),
       st.dictionaries(st.integers(1, 12), st.integers(1, 2), max_size=3))
def test_reduction_matches_fraction_division(num, den, factors):
    # the numerator times F_d^m for the drawn factors, so some of the
    # denominator's factors divide it and others do not
    num = [Fraction(a, b) for a, b in num]
    for d, m in factors.items():
        for _ in range(m):
            num = _convolve(num, _factor_reference(d))
    g = RationalGF(num, den)
    got, ref = g.reduced(), _reduced_reference(g)
    assert (got.num, got.den, str(got)) == (ref.num, ref.den, str(ref))
    assert all(isinstance(c, Fraction) for c in got.num)


@st.composite
def quarter_sequences(draw):
    # a quasi-quadratic run in quarter-integers, sometimes with one
    # sample knocked off, so both outcomes of the class test show up
    period = draw(st.integers(1, 4))
    classes = [tuple(Fraction(draw(st.integers(-12, 12)), 4)
                     for _ in range(3)) for _ in range(period)]
    length = draw(st.integers(0, 24))
    seq = [Fraction(draw(st.integers(-20, 20)), 2)] * draw(st.integers(0, 2))
    seq = seq + [classes[n % period][0] * n * n + classes[n % period][1] * n
                 + classes[n % period][2] for n in range(len(seq), length)]
    if seq and draw(st.booleans()):
        i = draw(st.integers(0, len(seq) - 1))
        seq[i] += Fraction(draw(st.sampled_from([-3, 1, 2])), 4)
    return seq


@settings(max_examples=200, deadline=None)
@given(quarter_sequences(), st.integers(0, 3), st.integers(1, 6))
def test_integer_class_test_matches_fraction_interpolation(seq, t, p):
    # the pair fits when every class has three samples from t on and t
    # is at or past the settle index of p; its classes are then the
    # integer numerators of _try_classes over 2 p^2 times the scale
    ints = [int(x * 4) for x in seq]
    if len(ints) - t < 3 * p or t < quasifit._settle(ints, p, 3):
        got = None
    else:
        got = [tuple(Fraction(c, 2 * p * p * 4) for c in trip)
               for trip in quasifit._try_classes(ints, t, p)]
    assert got == _try_classes_reference(seq, t, p)


def test_series_builds_each_denominator_once():
    quasifit._den_coeffs.cache_clear()
    gfs = [RationalGF([1, 2], {1: 2, 4: 1}),
           RationalGF([Fraction(1, 3)], {4: 1, 1: 2}),
           RationalGF([0, 5, Fraction(-7, 2)], {1: 2, 3: 0, 4: 1})]
    for g in gfs:
        for count in (0, 7, 20):
            assert g.series(count) == _series_reference(g, count)
    info = quasifit._den_coeffs.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


# ---------------------------------------------------------------------------
# the settle-index scans against the pair-by-pair scans they replaced


def _detect_period_reference(seq, max_period, max_transient):
    """The lexicographic ``all(...)`` scan ``detect_period`` used to
    run."""
    seq = list(seq)
    for t in range(min(max_transient, len(seq) - 5) + 1):
        for p in range(1, min(max_period, (len(seq) - t - 3) // 2) + 1):
            if all(seq[n] == seq[n + p] for n in range(t, len(seq) - p)):
                return p, t
    raise ValueError("no period up to %d with transient up to %d fits "
                     "%d samples" % (max_period, max_transient, len(seq)))


def _fit_reference(seq, max_period, max_transient):
    """The pair-by-pair route ``fit`` used to run, in Fractions: the
    cubic check, then every (transient, period) pair, those with a
    spare sample in every class first, through the Lagrange classes,
    ``_repeats`` and ``integrality_check``."""
    seq = [Fraction(x) for x in seq]
    d3 = [seq[n + 3] - 3 * seq[n + 2] + 3 * seq[n + 1] - seq[n]
          for n in range(len(seq) - 3)]
    try:
        period, t = _detect_period_reference(d3, max_period, max_transient)
    except ValueError:
        pass
    else:
        if sum(d3[t:t + period]):
            raise ValueError("sequence is not quasi-quadratic in the "
                             "window: third differences have period but "
                             "a nonzero mean")
    pairs = [(t, p) for t in range(min(max_transient, len(seq) - 3) + 1)
             for p in range(1, min(max_period, (len(seq) - t) // 3) + 1)]
    pairs.sort(key=lambda tp: (len(seq) - tp[0]) // tp[1] < 4)
    refusal = None
    for t, p in pairs:
        classes = _try_classes_reference(seq, t, p)
        if classes is None or quasifit._repeats(classes):
            continue
        quasi = QuasiPolynomial(p, t, classes)
        try:
            integrality_check(quasi)
        except ValueError as exc:
            refusal = exc
            continue
        quasi._head = seq[:t]
        return quasi
    if not pairs:
        raise ValueError(
            "not enough samples: fitting period p needs at least 3p "
            "values past the transient, got %d" % len(seq))
    if refusal is not None:
        raise refusal
    raise ValueError(
        "no quadratic quasi-polynomial with period <= %d and transient "
        "<= %d fits the data" % (max_period, max_transient))


def _outcome(fn, seq, *window):
    """(period, transient, classes, head) of a fit, or the message of
    its ValueError."""
    try:
        q = fn(seq, *window)
    except ValueError as exc:
        return str(exc)
    return q.period, q.transient, q.classes, q._head


@st.composite
def mixed_sequences(draw):
    """Up to 30 samples of one shape: a quasi-polynomial, a cubic on
    top of one, a periodic run or noise, behind up to three arbitrary
    samples and sometimes with one sample knocked off.  Each value
    comes as an int when it is one, a Fraction or a numeric string."""
    kind = draw(st.sampled_from(["quasi", "cubic", "periodic", "noise"]))
    length = draw(st.integers(0, 30))
    if kind == "noise":
        vals = [Fraction(draw(st.integers(-9, 9)),
                         draw(st.sampled_from([1, 1, 2, 3])))
                for _ in range(length)]
    elif kind == "periodic":
        pattern = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=6))
        vals = [Fraction(pattern[n % len(pattern)]) for n in range(length)]
    else:
        q = draw(quasi_polys())
        c3 = 0 if kind == "quasi" else Fraction(
            draw(st.sampled_from([-2, -1, 1, 2])),
            draw(st.sampled_from([1, 6])))
        vals = [q.evaluate(n) + c3 * n ** 3 for n in range(length)]
    head = draw(st.lists(st.integers(-20, 20), max_size=3))
    vals[:len(head)] = [Fraction(v) for v in head[:length]]
    if vals and draw(st.booleans()):
        vals[draw(st.integers(0, len(vals) - 1))] += Fraction(
            draw(st.sampled_from([-3, 1, 2])), draw(st.sampled_from([1, 4])))
    return [draw(st.sampled_from(
                [v, str(v)] + ([int(v)] if v.denominator == 1 else [])))
            for v in vals]


WINDOWS = st.one_of(st.just((1, 0)),
                    st.just((quasifit.MAX_PERIOD, quasifit.MAX_TRANSIENT)),
                    st.tuples(st.integers(1, 8), st.integers(0, 4)))


@settings(max_examples=400, deadline=None)
@given(mixed_sequences(), WINDOWS)
def test_fit_matches_pair_by_pair_reference(seq, window):
    got = _outcome(fit, seq, *window)
    assert got == _outcome(_fit_reference, seq, *window)
    if not isinstance(got, str):
        assert all(isinstance(c, Fraction)
                   for trip in got[2] for c in trip)
        assert all(isinstance(x, Fraction) for x in got[3])


@st.composite
def periodic_runs(draw):
    """A run of small integers that repeats from some index on, behind
    up to five arbitrary ones, sometimes with one sample knocked off."""
    pattern = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=6))
    seq = draw(st.lists(st.integers(-2, 2), max_size=5))
    seq = seq + [pattern[n % len(pattern)]
                 for n in range(draw(st.integers(0, 30)))]
    if seq and draw(st.booleans()):
        seq[draw(st.integers(0, len(seq) - 1))] += 1
    return seq


@settings(max_examples=400, deadline=None)
@given(st.one_of(periodic_runs(), mixed_sequences()), WINDOWS)
def test_detect_period_matches_pair_by_pair_reference(seq, window):
    seq = [Fraction(x) for x in seq]
    outcomes = []
    for fn in (detect_period, _detect_period_reference):
        try:
            outcomes.append(fn(seq, *window))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
