"""Tests for the colored Jones engines and degree sequences."""

from fractions import Fraction

import pytest

from knotslopes import engine
from knotslopes.engine import (EngineLimitError, bracket_colored_jones,
                               bundled_degrees_available, connected_sum,
                               degree_sequence, morton_colored_jones)
from knotslopes.knots import (Named, Pretzel237, Torus, bundled_knot_table,
                              is_alternating, mirror_pd, parse_knot,
                              pretzel_pd, smoothing_counts, torus_pd,
                              two_bridge_pd)
from knotslopes.laurent import parse_poly

# the five smallest trefoil colorings, written out in full
TREFOIL_J = [
    "1",
    "q + q^3 - q^4",
    "q^2 + q^5 - q^7 + q^8 - q^9 - q^10 + q^11",
    "q^3 + q^7 - q^10 + q^11 - q^13 - q^14 + q^15 - q^17 + q^19 + q^20"
    " - q^21",
    "q^4 + q^9 - q^13 + q^14 - q^17 - q^18 + q^19 - q^22 - q^23 + 2q^24"
    " - q^28 + 2q^29 - q^32 - q^33 + q^34",
]

T34_J2 = ("q^6 + q^9 + q^12 - q^13 - q^16 - q^19 + q^20 - q^22 + q^23")


def test_morton_trefoil_small_colors():
    for n, text in enumerate(TREFOIL_J):
        assert str(morton_colored_jones(2, 3, n)) == text


def test_morton_torus_3_4_color_2():
    assert str(morton_colored_jones(3, 4, 2)) == T34_J2


def test_morton_color_zero_is_one():
    assert morton_colored_jones(5, 7, 0) == parse_poly("1")


def test_morton_mirror_via_negative_b():
    j = morton_colored_jones(2, 3, 2)
    assert morton_colored_jones(2, -3, 2) == j.mirror()


def test_morton_output_is_integral():
    for (a, b) in ((2, 3), (2, 5), (3, 4), (3, 5)):
        for n in range(5):
            assert morton_colored_jones(a, b, n).is_integral()


def test_bracket_matches_morton_on_trefoil():
    pd = torus_pd(2, 3)
    for n in range(5):
        assert bracket_colored_jones(pd, n) == morton_colored_jones(2, 3, n)


def test_bracket_matches_morton_on_torus_3_4():
    pd = torus_pd(3, 4)
    for n in range(3):
        assert bracket_colored_jones(pd, n) == morton_colored_jones(3, 4, n)


def test_bracket_matches_morton_on_8_19_color_3():
    # 8_19 is the (3,4) torus knot: 72 cable crossings, frontier width 18
    pd = bundled_knot_table()["8_19"]
    assert bracket_colored_jones(pd, 3) == morton_colored_jones(3, 4, 3)


def test_state_sum_peak_terms_on_8_19():
    # --limit-mb is a bound on these peaks, so they must not drift
    pd = bundled_knot_table()["8_19"]
    for m, peak in ((1, 9), (2, 557), (3, 62876)):
        crossings, circles = engine._cable(pd, m)
        assert engine._bracket_raw(crossings, circles, peak)[1] == peak
    crossings, circles = engine._cable(pd, 2)
    with pytest.raises(EngineLimitError, match="557 stored terms"):
        engine._bracket_raw(crossings, circles, 556)


def test_bracket_memo_drops_oldest(monkeypatch):
    computed = []

    def state_sum(crossings, circles, entry_limit):
        computed.append(crossings)
        return {0: 1}, 0
    monkeypatch.setattr(engine, "_BRACKET_CACHE", {})
    monkeypatch.setattr(engine, "_cable", lambda pd, m: ((pd, m), 0))
    monkeypatch.setattr(engine, "_bracket_raw", state_sum)
    for key in range(70):
        engine._cable_bracket(key, 1, 0)
    assert len(engine._BRACKET_CACHE) == engine._BRACKET_CACHE_SIZE == 64
    for key in range(69, 5, -1):
        engine._cable_bracket(key, 1, 0)
    assert len(computed) == 70
    engine._cable_bracket(0, 1, 0)
    assert computed[-1] == (0, 1)


def test_bracket_unknot():
    assert bracket_colored_jones((), 3) == parse_poly("1")


def test_bracket_figure_eight():
    j = bracket_colored_jones(two_bridge_pd([2, 1, 1]), 1)
    assert str(j) == "q^-2 - q^-1 + 1 - q + q^2"


def test_bracket_mirror_property():
    for pd in (torus_pd(2, 3), pretzel_pd([-2, 3, 3]),
               two_bridge_pd([2, 1, 1])):
        for n in range(3):
            assert bracket_colored_jones(mirror_pd(pd), n) == \
                bracket_colored_jones(pd, n).mirror()


def test_bracket_mirror_on_nonalternating_diagram():
    pd = bundled_knot_table()["8_20"]
    assert not is_alternating(pd)
    assert bracket_colored_jones(mirror_pd(pd), 2) == \
        bracket_colored_jones(pd, 2).mirror()


def test_bracket_le_degree_bounds():
    # deg growth is bounded by the positive crossings, mindeg by the
    # negative ones: delta(n) <= c+/2 n^2 + (c+ + 1) n and the mirror
    # statement below
    cases = [(torus_pd(2, 3), 4), (torus_pd(3, 4), 2),
             (pretzel_pd([-2, 3, 3]), 2)]
    for pd, n_max in cases:
        st = smoothing_counts(pd)
        for n in range(1, n_max + 1):
            j = bracket_colored_jones(pd, n)
            assert j.deg() <= Fraction(st.c_plus, 2) * n * n \
                + (st.c_plus + 1) * n
            assert j.mindeg() >= -Fraction(st.c_minus, 2) * n * n \
                - (st.c_minus + 1) * n


def test_connected_sum_is_multiplicative():
    j1 = morton_colored_jones(2, 3, 2)
    j2 = morton_colored_jones(2, 5, 2)
    s = connected_sum(j1, j2)
    assert s == j1 * j2
    assert s.deg() == j1.deg() + j2.deg()


def test_limit_budget_raises_cleanly():
    with pytest.raises(EngineLimitError):
        bracket_colored_jones(torus_pd(3, 4), 4, limit_mb=0)


def test_degree_sequence_torus():
    vals = degree_sequence(Torus(2, 3), "max", 4)
    assert vals == [0, 4, 11, 21, 34]


def test_degree_sequence_pretzel_min():
    vals = degree_sequence(Pretzel237(7), "min", 5)
    assert vals == [0, 5, 10, 15, 20, 25]


def test_degree_sequence_named():
    vals = degree_sequence(Named("8_19"), "max", 7)
    assert vals == [0, 8, 23, 43, 70, 102, 141, 185]


def test_degree_sequence_starts_at_zero_and_span_nonnegative():
    for text in ("torus:2,3", "torus:3,5", "pretzel:-2,3,7", "alt:3,0,2,3",
                 "name:9_44", "name:3_1"):
        spec = parse_knot(text)
        for kind in ("max", "min", "span", "sum"):
            vals = degree_sequence(spec, kind, 6)
            assert vals[0] == 0, (text, kind)
            if kind == "span":
                assert all(v >= 0 for v in vals)


def test_degree_sequence_span_sum_consistent():
    for text in ("torus:2,5", "name:9_47"):
        spec = parse_knot(text)
        dmax = degree_sequence(spec, "max", 8)
        dmin = degree_sequence(spec, "min", 8)
        span = degree_sequence(spec, "span", 8)
        total = degree_sequence(spec, "sum", 8)
        assert span == [a - b for a, b in zip(dmax, dmin)]
        assert total == [a + b for a, b in zip(dmax, dmin)]


def test_degree_sequence_mirror_swaps_and_negates():
    dmax = degree_sequence(Named("9_43"), "max", 8)
    dmin = degree_sequence(Named("9_43"), "min", 8)
    assert degree_sequence(Named("9_43", mirror=True), "max", 8) == \
        [-v for v in dmin]
    assert degree_sequence(Named("9_43", mirror=True), "min", 8) == \
        [-v for v in dmax]


def test_named_sequences_agree_with_bracket():
    # the bundled per-knot degree files must match a direct state-sum
    # evaluation of the bundled diagram
    table = bundled_knot_table()
    for key in ("8_21", "9_46"):
        vals_max = degree_sequence(Named(key), "max", 2)
        vals_min = degree_sequence(Named(key), "min", 2)
        for n in (1, 2):
            j = bracket_colored_jones(table[key], n)
            assert j.deg() == vals_max[n]
            assert j.mindeg() == vals_min[n]


@pytest.mark.slow
def test_named_sequences_agree_with_bracket_at_color_3():
    # every bundled degree file against the state sum of the bundled
    # diagram at color 3; 9_49's 11-crossing diagram takes most of it
    table = bundled_knot_table()
    names = sorted(k for k in table if bundled_degrees_available(k))
    assert len(names) == 11
    for key in names:
        j = bracket_colored_jones(table[key], 3)
        assert degree_sequence(Named(key), "max", 3)[3] == j.deg(), key
        assert degree_sequence(Named(key), "min", 3)[3] == j.mindeg(), key


def test_bundled_degrees_available():
    assert bundled_degrees_available("8_19")
    assert bundled_degrees_available("9_49")
    assert not bundled_degrees_available("3_1")
    assert not bundled_degrees_available("no_such_knot")
