"""Tests for quasi-polynomial fitting and the generating-function toolkit."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotslopes.quasifit import (QuasiPolynomial, RationalGF, cyclotomic,
                                 detect_period, difference,
                                 estimate_cluster_slopes, fit,
                                 integrality_check, load_sequence,
                                 partial_fractions, slopes)

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
    assert cyclotomic(1) == [Fraction(-1), Fraction(1)]
    assert cyclotomic(2) == [Fraction(1), Fraction(1)]
    assert cyclotomic(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert cyclotomic(6) == [Fraction(1), Fraction(-1), Fraction(1)]


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


def test_partial_fractions_classes():
    q = partial_fractions(P237_GF)
    assert q.period == 4
    assert q.transient == 0
    assert q.classes == [
        (Fraction(37, 8), Fraction(17, 2), Fraction(0)),
        (Fraction(37, 8), Fraction(17, 2), Fraction(-1, 8)),
        (Fraction(37, 8), Fraction(17, 2), Fraction(-1, 2)),
        (Fraction(37, 8), Fraction(17, 2), Fraction(-1, 8)),
    ]


def test_partial_fractions_constant():
    q = partial_fractions(RationalGF([3], {1: 1}))
    assert q.period == 1
    assert q.classes == [(0, 0, 3)]


def test_partial_fractions_rejects_high_order_poles():
    with pytest.raises(ValueError):
        partial_fractions(RationalGF([1], {1: 4}))
    with pytest.raises(ValueError):
        partial_fractions(RationalGF([1], {2: 4}))


def test_partial_fractions_polynomial_part_is_transient():
    # numerator degree >= denominator degree leaves a polynomial part,
    # which shows up as an initial transient
    g = RationalGF([2, 0, 5], {1: 1})  # (2 + 5z^2)/(1-z)
    q = partial_fractions(g)
    assert q.transient == 2
    assert q.evaluate(2) == g.series(3)[2]


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


def test_fit_rejects_non_quadratic():
    cubic = [n ** 3 for n in range(20)]
    with pytest.raises(ValueError):
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


def test_estimate_cluster_slopes():
    seq = [2 * n * n + 2 * n for n in range(10)]
    assert estimate_cluster_slopes(seq) == [4]
    assert estimate_cluster_slopes([7] * 8) == [0]


def test_estimate_cluster_slopes_matches_fit():
    q = fit(D819)
    assert estimate_cluster_slopes(D819, q) == slopes(q)


def test_integrality_check():
    q = fit(P237_DELTA)
    assert integrality_check(q) == [(Fraction(37, 4), 148)]
    q = fit([0, 1, 2, 7, 12, 16, 26, 35, 42, 57, 70, 80, 100])  # 8_20
    assert integrality_check(q) == [(Fraction(4, 3), 12)]
    bad = QuasiPolynomial(1, 0, [(Fraction(1, 3), 0, 0)])
    with pytest.raises(ValueError):
        integrality_check(bad)


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
