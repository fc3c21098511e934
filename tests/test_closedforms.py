"""Tests for the closed-form degree formulas."""

import ast
import sys
from fractions import Fraction
from math import gcd

import pytest

from knotslopes import closedforms, engine, knots
from knotslopes.closedforms import (adequate_max_degree, adequate_min_degree,
                                    alt_symmetrized, pretzel_boundary_slopes,
                                    pretzel_degrees, pretzel_slopes,
                                    torus_degrees)
from knotslopes.engine import (bracket_colored_jones, morton_colored_jones,
                               morton_degrees)
from knotslopes.knots import (AlternatingData, DiagramStats, Pretzel237,
                              bundled_knot_table, is_alternating, parse_knot,
                              pretzel_pd, smoothing_counts, torus_pd)
from knotslopes.laurent import LaurentPoly
from knotslopes.quasifit import RationalGF, fit, slopes

TREFOIL_DATA = AlternatingData(3, 0, 2, 3)

# (-2,3,7) pretzel maximum degrees, colors 0..19
P237_DELTA = [0, 13, 35, 67, 108, 158, 217, 286, 364, 451, 547, 653, 768,
              892, 1025, 1168, 1320, 1481, 1651, 1831]


def test_closedforms_imports_only_the_standard_library_and_quasifit():
    with open(closedforms.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "quasifit")
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names


def test_alt_invariants_trefoil():
    # the degree sum at color one is w - sigma and the span is c, so the
    # trefoil's counts give c = 3, w = 3 and sigma = |A| - 1 - c+ = -2
    st = TREFOIL_DATA.diagram_stats()
    assert (st.c_plus + st.c_minus, st.writhe) == (3, 3)
    assert alt_symmetrized(st, 1) == (3 - (-2), 3)


def test_alt_invariants_mirror():
    st = AlternatingData(3, 0, 2, 3, mirror=True).diagram_stats()
    assert (st.c_plus + st.c_minus, st.writhe) == (3, -3)
    assert alt_symmetrized(st, 1) == (-3 - 2, 3)


def test_alt_degrees_trefoil():
    st = TREFOIL_DATA.diagram_stats()
    assert [adequate_max_degree(st, n) for n in range(5)] == [0, 4, 11, 21, 34]
    assert [adequate_min_degree(st, n) for n in range(5)] == [0, 1, 2, 3, 4]


def test_alt_degrees_mirror_swaps_and_negates():
    st = TREFOIL_DATA.diagram_stats()
    mirror = AlternatingData(3, 0, 2, 3, mirror=True).diagram_stats()
    for n in range(6):
        assert adequate_max_degree(mirror, n) == -adequate_min_degree(st, n)
        assert adequate_min_degree(mirror, n) == -adequate_max_degree(st, n)


def test_alt_symmetrized_trefoil():
    st = TREFOIL_DATA.diagram_stats()
    assert alt_symmetrized(st, 0) == (0, 0)
    assert alt_symmetrized(st, 1) == (5, 3)
    assert alt_symmetrized(st, 2) == (13, 9)


def test_symmetrized_span_at_one_is_crossing_number():
    # (c, w, sigma) = (3, 3, -2), (8, 0, 0) and (12, -2, 4)
    for c, st in ((3, DiagramStats(3, 0, 2, 3)), (8, DiagramStats(4, 4, 5, 5)),
                  (12, DiagramStats(5, 7, 10, 4))):
        assert alt_symmetrized(st, 1)[1] == c


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
        st = data.diagram_stats()
        for n in range(21):
            d, ds = adequate_max_degree(st, n), adequate_min_degree(st, n)
            dm, dp = alt_symmetrized(st, n)
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


# every coprime pair below 8 and (2, 9), which covers the 8 torus knots
# of the benchmark
TORUS_PAIRS = [(a, b) for a in range(2, 8) for b in range(a + 1, 8)
               if gcd(a, b) == 1] + [(2, 9)]


def test_torus_degrees_match_morton():
    # the closed form is the test oracle of Morton's formula, to color 40
    # on both chiralities
    for a, b in TORUS_PAIRS:
        for n in range(41):
            d, ds = torus_degrees(a, b, n)
            j = morton_colored_jones(a, b, n)
            assert (j.deg(), j.mindeg()) == (d, ds)
            m = morton_colored_jones(a, -b, n)
            assert (m.deg(), m.mindeg()) == (-ds, -d)


def test_morton_degrees_match_morton_polynomials():
    # ``Torus`` specs read their degrees off Morton's numerator; they are
    # the degrees of the polynomials, on both chiralities
    for a, b in TORUS_PAIRS:
        for n in range(41):
            for c in (b, -b):
                j = morton_colored_jones(a, c, n)
                assert morton_degrees(a, c, n) == (j.deg(), j.mindeg())


def test_morton_degrees_match_the_closed_form_to_color_400():
    for a, b in TORUS_PAIRS:
        for n in range(401):
            d, ds = torus_degrees(a, b, n)
            assert morton_degrees(a, b, n) == (d, ds)
            assert morton_degrees(a, -b, n) == (-ds, -d)


def test_morton_degrees_check_the_division(monkeypatch):
    # the degree route keeps the remainder check of the polynomial
    # route: one more numerator term leaves a remainder in both
    numerator = engine._morton_numerator

    def spoiled(a, b, n):
        return numerator(a, b, n) + LaurentPoly({4: 1})
    monkeypatch.setattr(engine, "_morton_numerator", spoiled)
    for n in (0, 1, 5):
        with pytest.raises(ValueError, match="remainder"):
            morton_degrees(3, 4, n)
        with pytest.raises(ValueError, match="remainder"):
            morton_colored_jones(3, 4, n)


def test_morton_degrees_check_their_arguments():
    for args in ((2, 4, 1), (1, 3, 1), (-2, 3, 1), (2, 1, 1), (2, 3, -1)):
        with pytest.raises(ValueError) as degrees:
            morton_degrees(*args)
        with pytest.raises(ValueError) as poly:
            morton_colored_jones(*args)
        assert str(degrees.value) == str(poly.value)


def test_adequate_degrees_match_morton_on_torus_diagrams():
    # these closed braids do not alternate and only their all-A state is
    # adequate; its closed form is the minimum degree of Morton's formula
    for a, b in ((3, 4), (3, 5), (4, 5)):
        pd = torus_pd(a, b)
        assert knots._classify(pd)[1:] == (False, False, True)
        st = smoothing_counts(pd)
        for n in range(15):
            assert adequate_min_degree(st, n) == torus_degrees(a, b, n)[1]


def test_pretzel_degrees_p7():
    assert Pretzel237(7).degrees(19) == (P237_DELTA,
                                         [5 * n for n in range(20)])


def test_pretzel_degrees_expand_the_tail_once(monkeypatch):
    calls = []
    series = RationalGF.series

    def counted(self, count):
        calls.append(count)
        return series(self, count)
    monkeypatch.setattr(RationalGF, "series", counted)
    dmax, dmin = Pretzel237(19).degrees(54)
    assert len(dmax) == len(dmin) == 55
    # one expansion for the whole list, not one per color
    assert len(calls) == 1


def test_pretzel_degrees_are_copies():
    seeds = (P237_DELTA[:3], [0, 5, 10])
    dmax, _ = pretzel_degrees(7, 5, seeds)
    dmax.append(0)
    assert pretzel_degrees(7, 6, seeds)[0] == P237_DELTA[:7]
    assert pretzel_degrees(7, 1, seeds) == (P237_DELTA[:2], [0, 5])
    assert seeds == (P237_DELTA[:3], [0, 5, 10])


def _fraction_extension(vals, tail_gf, n_max):
    """The recurrence f(n+3) = d3(n) + 3 f(n+2) - 3 f(n+1) + f(n) run on
    Fractions, with d3 the series of tail_gf, zero when it is None."""
    out = [Fraction(x) for x in vals[:n_max + 1]]
    d3 = tail_gf.series(n_max - 2) if tail_gf is not None else None
    while len(out) <= n_max:
        step = d3[len(out) - 3] if d3 is not None else 0
        out.append(step + 3 * out[-1] - 3 * out[-2] + out[-3])
    return out


def test_pretzel_degrees_equal_the_fraction_recurrence():
    # every pretzel of the benchmark up to color 63, on its state-sum
    # seeds and on seeds with halves, which the integer recurrence scales
    # by their common denominator and back
    for p in range(-15, 20, 2):
        tails = closedforms._pretzel_tails(p)
        for seeds in (Pretzel237(p).degrees(2),
                      ([Fraction(1, 2), Fraction(3), Fraction(-7, 2)],
                       [Fraction(0), Fraction(5, 2), Fraction(4)])):
            got = pretzel_degrees(p, 63, seeds)
            for side, tail, values in zip(seeds, tails, got):
                want = _fraction_extension(side, tail, 63)
                assert len(values) == 64
                assert all(type(v) is Fraction for v in values), p
                assert values == want, p


@pytest.mark.parametrize("p", [-5, 7])
def test_pretzel_tails_match_the_state_sum_at_color_3(p):
    # color 3 is the first color the generating functions extrapolate;
    # p = -5 checks the minimum-degree tail and p = 7 the maximum one
    j = bracket_colored_jones(pretzel_pd([-2, 3, p]), 3)
    dmax, dmin = pretzel_degrees(p, 3, Pretzel237(p).degrees(2))
    assert (dmax[3], dmin[3]) == (j.deg(), j.mindeg())


def test_pretzel_small_p_are_torus_knots():
    for p, (a, b) in ((1, (2, 5)), (3, (3, 4)), (5, (3, 5))):
        dmax, dmin = Pretzel237(p).degrees(8)
        for n in range(9):
            assert (dmax[n], dmin[n]) == torus_degrees(a, b, n)


def test_pretzel_degrees_rejects():
    seeds = ([0, 13, 35], [0, 5, 10])
    with pytest.raises(ValueError):
        pretzel_degrees(4, 1, seeds)
    with pytest.raises(ValueError):
        pretzel_degrees(7, -1, seeds)


def test_pretzel_leading_coefficient_matches_slopes():
    # twice the fitted leading coefficient of the maximum degree is the
    # published slope, and the fitted period is the published period
    for p in range(5, 22, 2):
        period, js, _ = pretzel_slopes(p)
        seq = Pretzel237(p).degrees(3 * period + 11)[0]
        q = fit(seq, max_period=max(period, 16))
        assert q.period == period
        assert slopes(q) == [js]


def test_pretzel_negative_p_slopes():
    for p in (-1, -3, -5, -7):
        period, js, js_star = pretzel_slopes(p)
        hi = 3 * period + 12
        dmax, dmin = Pretzel237(p).degrees(hi - 1)
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
