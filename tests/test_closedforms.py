"""Tests for the closed-form degree formulas."""

from fractions import Fraction

import pytest

from knotslopes import closedforms, knots
from knotslopes.closedforms import (AlternatingInvariants, adequate_degrees,
                                    alt_invariants, alt_symmetrized,
                                    pretzel_boundary_slopes, pretzel_degrees,
                                    pretzel_slopes, torus_degrees)
from knotslopes.engine import morton_colored_jones
from knotslopes.knots import (AlternatingData, Pretzel237, bundled_knot_table,
                              is_alternating, parse_knot, smoothing_counts,
                              torus_pd)
from knotslopes.quasifit import RationalGF, fit, slopes

TREFOIL_DATA = AlternatingData(3, 0, 2, 3)

# (-2,3,7) pretzel maximum degrees, colors 0..19
P237_DELTA = [0, 13, 35, 67, 108, 158, 217, 286, 364, 451, 547, 653, 768,
              892, 1025, 1168, 1320, 1481, 1651, 1831]


def test_alt_invariants_trefoil():
    inv = alt_invariants(TREFOIL_DATA)
    assert inv.c == 3
    assert inv.w == 3
    assert inv.sigma == -2
    assert inv.c_plus == 3
    assert inv.c_minus == 0


def test_alt_invariants_mirror():
    inv = alt_invariants(AlternatingData(3, 0, 2, 3, mirror=True))
    assert inv.c == 3
    assert inv.w == -3
    assert inv.sigma == 2


def test_alt_degrees_trefoil():
    deltas = [adequate_degrees(TREFOIL_DATA.diagram_stats(), n)
              for n in range(5)]
    assert [d for d, _ in deltas] == [0, 4, 11, 21, 34]
    assert [ds for _, ds in deltas] == [0, 1, 2, 3, 4]


def test_alt_degrees_mirror_swaps_and_negates():
    for n in range(6):
        d, ds = adequate_degrees(TREFOIL_DATA.diagram_stats(), n)
        md, mds = adequate_degrees(
            AlternatingData(3, 0, 2, 3, mirror=True).diagram_stats(), n)
        assert (md, mds) == (-ds, -d)


def test_alt_symmetrized_trefoil():
    inv = alt_invariants(TREFOIL_DATA)
    assert alt_symmetrized(inv, 0) == (0, 0)
    assert alt_symmetrized(inv, 1) == (5, 3)
    assert alt_symmetrized(inv, 2) == (13, 9)


def test_symmetrized_span_at_one_is_crossing_number():
    for c, w, sigma in ((3, 3, -2), (8, 0, 0), (12, -2, 4)):
        inv = AlternatingInvariants(c, w, sigma)
        assert alt_symmetrized(inv, 1)[1] == c


def bundled_alternating_data():
    out = []
    for name in sorted(bundled_knot_table()):
        pd = parse_knot("name:" + name).pd
        if not is_alternating(pd):
            continue
        st = smoothing_counts(pd)
        out.append((name, AlternatingData(st.c_plus, st.c_minus,
                                          st.a_circles, st.b_circles)))
    return out


def test_degrees_and_symmetrized_are_consistent():
    # max - min must be the span and max + min the sum, for every
    # bundled alternating diagram and every color up to twenty
    pairs = bundled_alternating_data()
    assert pairs
    for _, data in pairs:
        inv = alt_invariants(data)
        for n in range(21):
            d, ds = adequate_degrees(data.diagram_stats(), n)
            dm, dp = alt_symmetrized(inv, n)
            assert d - ds == dp
            assert d + ds == dm


def test_torus_degrees_fixtures():
    assert torus_degrees(3, 4, 2) == (23, 6)
    assert [torus_degrees(2, 3, n)[0] for n in range(5)] == [0, 4, 11, 21, 34]
    assert [torus_degrees(2, 3, n)[1] for n in range(5)] == [0, 1, 2, 3, 4]


def test_torus_parity_term():
    """Odd colors dip below the quadratic by (a-2)(b-2)/8 twice."""
    for n in range(8):
        expect = (Fraction(3) * n * n + Fraction(11, 2) * n
                  - (Fraction(1, 2) if n % 2 else 0))
        assert torus_degrees(3, 4, n)[0] == expect
    # a = 2 kills the correction, so the degree is an honest polynomial
    for b in (3, 5, 7):
        d3 = [torus_degrees(2, b, n)[0] for n in range(6)]
        assert d3[1] - 2 * d3[2] + d3[3] == d3[2] - 2 * d3[3] + d3[4]


def test_torus_degrees_rejects_bad_parameters():
    with pytest.raises(ValueError):
        torus_degrees(2, 4, 1)
    with pytest.raises(ValueError):
        torus_degrees(1, 5, 1)


def test_torus_degrees_match_morton():
    from math import gcd
    pairs = [(a, b) for a in range(2, 8) for b in range(a + 1, 8)
             if gcd(a, b) == 1]
    for a, b in pairs:
        for n in range(13):
            j = morton_colored_jones(a, b, n)
            d, ds = torus_degrees(a, b, n)
            assert Fraction(j.deg()) == d
            assert Fraction(j.mindeg()) == ds


def test_adequate_degrees_match_morton_on_torus_diagrams():
    # these closed braids do not alternate and only their all-A state is
    # adequate; its closed form is the minimum degree of Morton's formula
    for a, b in ((3, 4), (3, 5), (4, 5)):
        pd = torus_pd(a, b)
        assert knots._classify(pd)[1:] == (False, False, True)
        st = smoothing_counts(pd)
        for n in range(15):
            assert adequate_degrees(st, n)[1] == torus_degrees(a, b, n)[1]


def test_pretzel_degrees_p7():
    assert pretzel_degrees(7, 19)[0] == P237_DELTA
    assert pretzel_degrees(7, 19)[1] == [5 * n for n in range(20)]


def test_pretzel_degrees_expand_the_tail_once(monkeypatch):
    calls = []
    series = RationalGF.series

    def counted(self, count):
        calls.append(count)
        return series(self, count)
    monkeypatch.setattr(RationalGF, "series", counted)
    monkeypatch.setattr(closedforms, "_PRETZEL_CACHE", {})
    dmax, dmin = Pretzel237(19).degrees(54)
    assert len(dmax) == len(dmin) == 55
    # one expansion for the whole list, not one per color
    assert len(calls) == 1
    assert Pretzel237(19).degrees(54) == (dmax, dmin)
    assert len(calls) == 1


def test_pretzel_degrees_are_copies():
    dmax, _ = pretzel_degrees(7, 5)
    dmax.append(0)
    assert pretzel_degrees(7, 6)[0][6] == P237_DELTA[6]


def test_pretzel_small_p_are_torus_knots():
    for p, (a, b) in ((1, (2, 5)), (3, (3, 4)), (5, (3, 5))):
        dmax, dmin = pretzel_degrees(p, 8)
        for n in range(9):
            assert (dmax[n], dmin[n]) == torus_degrees(a, b, n)


def test_pretzel_degrees_rejects():
    with pytest.raises(ValueError):
        pretzel_degrees(4, 1)
    with pytest.raises(ValueError):
        pretzel_degrees(7, -1)


def test_pretzel_leading_coefficient_matches_slopes():
    # twice the fitted leading coefficient of the maximum degree is the
    # published slope, and the fitted period is the published period
    for p in range(5, 22, 2):
        period, js, _ = pretzel_slopes(p)
        seq = pretzel_degrees(p, 3 * period + 11)[0]
        q = fit(seq, max_period=max(period, 16))
        assert q.period == period
        assert slopes(q) == [js]


def test_pretzel_negative_p_slopes():
    for p in (-1, -3, -5, -7):
        period, js, js_star = pretzel_slopes(p)
        hi = 3 * period + 12
        dmax, dmin = pretzel_degrees(p, hi - 1)
        qmax = fit(dmax, max_period=max(period, 16))
        qmin = fit(dmin, max_period=max(period, 16))
        assert slopes(qmax) == [js]
        assert qmin.period == period
        assert slopes(qmin) == [js_star]


def test_pretzel_slopes_branches():
    assert pretzel_slopes(7) == (4, Fraction(37, 4), 0)
    assert pretzel_slopes(5) == (2, Fraction(15, 2), 0)
    assert pretzel_slopes(3) == (2, 6, 0)
    assert pretzel_slopes(1) == (1, 5, 0)
    assert pretzel_slopes(-1) == (1, 5, 0)
    assert pretzel_slopes(-3) == (3, 5, Fraction(-4, 3))
    with pytest.raises(ValueError):
        pretzel_slopes(6)


def test_pretzel_boundary_slopes():
    assert pretzel_boundary_slopes(7) == [0, 16, Fraction(37, 2), 20]
    assert pretzel_boundary_slopes(9) == [0, 16, Fraction(67, 3), 24]
    assert pretzel_boundary_slopes(-1) == [0, 4, 10]
    for p in (1, 3, 5):
        with pytest.raises(ValueError):
            pretzel_boundary_slopes(p)
    with pytest.raises(ValueError):
        pretzel_boundary_slopes(2)
