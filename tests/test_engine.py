"""Tests for the colored Jones engines and degree sequences."""

import hashlib
import os
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotslopes import engine, knots
from knotslopes.engine import (EngineLimitError, bracket_colored_jones,
                               degree_sequence, morton_colored_jones)
from knotslopes.knots import (Diagram, Named, Pretzel237, Torus,
                              braid_pd, bundled_knot_table,
                              is_alternating, mirror_pd, parse_knot,
                              pretzel_pd, smoothing_counts, torus_pd,
                              two_bridge_pd, validate_pd)
from knotslopes.laurent import LaurentPoly, parse_poly

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
    # 8_19 is the (3,4) torus knot: 8 crossings, frontier width 6
    pd = bundled_knot_table()["8_19"]
    assert bracket_colored_jones(pd, 3) == morton_colored_jones(3, 4, 3)


# peak stored bytes of the state sum of 8_19's 3-cable
PEAK_8_19_3 = 4588411


def test_state_sum_peak_bytes_on_8_19():
    # the budget bounds these peaks, so they must not drift
    pd = bundled_knot_table()["8_19"]
    for m, peak in ((1, 3617), (2, 94934), (3, PEAK_8_19_3)):
        crossings, circles = engine._cable(pd, m)
        assert engine._bracket_raw(crossings, circles, peak)[1] == peak
    crossings, circles = engine._cable(pd, 2)
    with pytest.raises(EngineLimitError, match="94934 stored bytes"):
        engine._bracket_raw(crossings, circles, 94933)


def test_budget_checked_inside_a_step(monkeypatch):
    # a limit that the running charge first tops inside a step raises
    # there, before the step has written its whole frontier
    crossings, circles = engine._cable(bundled_knot_table()["8_19"], 3)
    checks = []
    check_budget = engine._check_budget

    def recorded(byte_limit, step, read, written, *rest):
        stored = check_budget(byte_limit, step, read, written, *rest)
        checks.append((step, written, stored))
        return stored
    monkeypatch.setattr(engine, "_check_budget", recorded)
    engine._bracket_raw(crossings, circles, 10 ** 9)
    monkeypatch.undo()
    written = {step: n for step, n, _ in checks}  # the last check of a step
    top = 0
    for step, n, stored in checks:
        if stored > top and n < written[step]:
            break
        top = max(top, stored)
    else:
        pytest.fail("no check inside a step tops the ones before it")
    assert n % engine._CHECK_EVERY == 0
    with pytest.raises(EngineLimitError, match=(
            r"memory budget in step %d, at %d new frontier states on \d+ "
            r"read \(%d stored bytes\)" % (step, n, stored))):
        engine._bracket_raw(crossings, circles, stored - 1)


# (peak stored bytes, digest of the sorted terms) of the bracket of the
# 1- and 2-cable of each diagram.  The digests are those the arc-level
# local rule computed before the state sum saw only 4-slot patterns.
ARC_LEVEL_BRACKETS = {
    "12a_669": ((2894, "3e4e9e7bf613e91a"), (90360, "8cb89d50f411f340")),
    "3_1": ((1441, "434ab89ac4509a3c"), (8326, "549df223d945ee12")),
    "8_17": ((3618, "b9e4ac8b00c5459a"), (109718, "218919dc1019e4b7")),
    "8_19": ((3617, "8cc13052445b9c80"), (94934, "fdea10242b292191")),
    "8_20": ((2890, "7575f7d0ac9f6963"), (73799, "c6f98078f2ec8056")),
    "8_21": ((2902, "56d902eef6d2dfe8"), (104981, "91499ff5fccd759b")),
    "9_42": ((2891, "fc540d1376e320e1"), (83113, "d0bc3a38a7d8595e")),
    "9_43": ((2891, "c4f9a3061abc692b"), (73721, "04e63fb2182c92ba")),
    "9_44": ((2891, "723298f4689a726d"), (88422, "8e7f307edb29925c")),
    "9_45": ((2891, "894bdf1c2acace2f"), (74000, "9f66463a67dc3552")),
    "9_46": ((2896, "ed3ebee6716671f2"), (101670, "0e45d8ab320244f6")),
    "9_47": ((3650, "d57675bea939041e"), (108324, "c3a36ce182c36884")),
    "9_48": ((2896, "989909ad0f8b491a"), (90230, "98f53b00bfcdb005")),
    "9_49": ((5433, "74cd480ee15a1fb3"), (113148, "e25ca0ba3845b28a")),
    "pretzel_2_3_5_5": ((3003, "482fc45961396729"),
                        (139447, "7e622b44d8f9627a")),
    "pretzel_2_5_3_5": ((2976, "482fc45961396729"),
                        (144629, "7e622b44d8f9627a")),
    -15: ((2903, "cad022921a2d3c12"), (109175, "f46d619ad24a0944")),
    -3: ((2890, "2d5522072f541112"), (51345, "e17b2350ca921c02")),
    7: ((2894, "11f7bd0bd51f46a5"), (102477, "4a46b7c2da3ba6ac")),
    19: ((2907, "00150042ab7f0e9b"), (112129, "d3151e95db311117")),
}


def _terms_digest(poly):
    text = repr(sorted(poly.terms.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# digests of the brackets of the 3-cables, as the state sum over dicts
# of A-exponents computed them before it packed each state into one int
THREE_CABLE_DIGESTS = {"8_19": "583b1b80bfe21b3b", "9_42": "c0327d9084302aae"}


def test_three_cable_brackets_unchanged():
    table = bundled_knot_table()
    for name, digest in THREE_CABLE_DIGESTS.items():
        poly, _ = engine._bracket_raw(*engine._cable(table[name], 3), 10 ** 9)
        assert _terms_digest(poly) == digest, name


def _recorded_passes(monkeypatch, crossings):
    """The order ``_pick_order`` returns, and (start, estimate, order)
    of each greedy pass it ran."""
    passes = []
    greedy_order = engine._greedy_order

    def recorded(crossings, ends, start):
        order, estimate = greedy_order(crossings, ends, start)
        passes.append((start, estimate, order))
        return order, estimate
    monkeypatch.setattr(engine, "_greedy_order", recorded)
    order = engine._pick_order(crossings)
    monkeypatch.undo()
    return order, passes


def test_picked_order_is_the_cheapest_pass_tried(monkeypatch):
    table = bundled_knot_table()
    for name, m in (("8_19", 3), ("9_49", 2), ("3_1", 1)):
        crossings, _ = engine._cable(table[name], m)
        order, passes = _recorded_passes(monkeypatch, crossings)
        assert sorted(order) == list(range(len(crossings))), name
        assert passes[0][0] == 0
        # the first pass of the fewest estimated states, so no dearer
        # than the pass from crossing 0
        assert order == min(passes, key=lambda p: p[1])[2], name


def test_search_stops_once_it_costs_more_than_it_can_save(monkeypatch):
    # a pass costs about _PASS_COST states per crossing; the (-2,3,19)
    # 2-cable's 96 crossings run 6 of a possible 96 passes
    crossings, _ = engine._cable(pretzel_pd([-2, 3, 19]), 2)
    _, passes = _recorded_passes(monkeypatch, crossings)
    assert [start for start, _, _ in passes] == list(range(6))
    best = min(estimate for _, estimate, _ in passes)
    cost = len(crossings) * engine._PASS_COST
    assert (len(passes) - 1) * cost < best <= len(passes) * cost


def test_searched_order_reads_fewer_states_on_8_19(monkeypatch):
    # the frontier states written over all steps of 8_19's 3-cable, read
    # at each step's end: 92,176 along the greedy pass from crossing 0
    crossings, circles = engine._cable(bundled_knot_table()["8_19"], 3)
    written = {}
    check_budget = engine._check_budget

    def recorded(byte_limit, step, read, new, *rest):
        written[step] = new
        return check_budget(byte_limit, step, read, new, *rest)
    monkeypatch.setattr(engine, "_check_budget", recorded)
    engine._bracket_raw(crossings, circles, 10 ** 9)
    assert sum(written.values()) == 68042


def test_bracket_does_not_depend_on_the_start(monkeypatch):
    # every pass of the search starts from one crossing, so the order is
    # the greedy pass from there; on the 2-cables, as a bad start costs
    # the 3-cables seconds each
    greedy_order = engine._greedy_order
    table = bundled_knot_table()
    for name in ("8_19", "9_42"):
        digest = ARC_LEVEL_BRACKETS[name][1][1]
        crossings, circles = engine._cable(table[name], 2)
        for start in (1, len(crossings) // 2, len(crossings) - 1):
            monkeypatch.setattr(engine, "_greedy_order", (
                lambda crossings, ends, _: greedy_order(crossings, ends,
                                                        start)))
            poly, _ = engine._bracket_raw(crossings, circles, 10 ** 9)
            assert _terms_digest(poly) == digest, (name, start)


@st.composite
def packed_polys(draw):
    """A slot width and coefficients that fit it, its extremes included."""
    bits = draw(st.integers(min_value=2, max_value=160))
    top = (1 << bits - 1) - 1
    coeff = st.integers(min_value=-top, max_value=top) | \
        st.sampled_from([top, -top, 1, -1, 0])
    return bits, draw(st.lists(coeff, max_size=12))


@settings(max_examples=300, deadline=None)
@given(packed_polys())
def test_pack_round_trip(case):
    # a negative coefficient borrows from the slot above it
    bits, coeffs = case
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    assert engine._unpack(engine._pack(coeffs, bits), bits) == coeffs


def test_unpack_needs_coefficients_below_half_a_slot():
    half = 1 << 4
    assert engine._unpack(engine._pack([half - 1, -half + 1], 5), 5) == \
        [half - 1, -half + 1]
    assert engine._unpack(engine._pack([half], 5), 5) == [-half, 1]


def test_pattern_rules_match_arc_level_rules():
    diagrams = dict(bundled_knot_table())
    diagrams.update((p, pretzel_pd([-2, 3, p])) for p in (-15, -3, 7, 19))
    assert diagrams.keys() == ARC_LEVEL_BRACKETS.keys()
    got = {}
    for key, pd in diagrams.items():
        got[key] = tuple(
            (peak, _terms_digest(poly)) for poly, peak in (
                engine._bracket_raw(*engine._cable(pd, m), 10 ** 7)
                for m in (1, 2)))
    assert got == ARC_LEVEL_BRACKETS


def _brute_force_bracket(crossings, free_circles):
    """The bracket of a raw crossing list summed over all 2**c
    smoothings, with the circles of each counted by union-find over the
    arcs: no frontier, order or local rule of the engine."""
    index = {}
    slots = [[index.setdefault(a, len(index)) for a in cr]
             for cr in crossings]
    counts = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for state in range(1 << len(crossings)):
        parent = list(range(len(index)))
        b_smoothings = 0
        for c, (s, e, n, w) in enumerate(slots):
            if state >> c & 1:
                b_smoothings += 1
                joins = ((e, n), (w, s))
            else:
                joins = ((s, e), (n, w))
            for u, v in joins:
                parent[find(u)] = find(v)
        circles = sum(1 for x in range(len(index)) if find(x) == x)
        key = (len(crossings) - 2 * b_smoothings, circles)
        counts[key] = counts.get(key, 0) + 1
    delta = LaurentPoly({2: -1, -2: -1})
    total = LaurentPoly()
    for (a_exponent, circles), k in counts.items():
        total += k * LaurentPoly({a_exponent: 1}) * delta ** circles
    return total.mirror() * delta ** free_circles


def test_state_sum_matches_brute_force_bracket():
    cables = [engine._cable(pd, 1) for pd in bundled_knot_table().values()]
    cables += [engine._cable(torus_pd(2, 3), 2),
               engine._cable(two_bridge_pd([2, 1, 1]), 2)]
    assert max(len(crossings) for crossings, _ in cables) == 16
    for crossings, circles in cables:
        assert engine._bracket_raw(crossings, circles, 10 ** 7)[0] == \
            _brute_force_bracket(crossings, circles)


def test_smoothings_compiled_once_per_pattern(monkeypatch):
    calls = []
    apply_smoothing = engine._apply_smoothing

    def counted(*args):
        calls.append(args)
        return apply_smoothing(*args)
    monkeypatch.setattr(engine, "_apply_smoothing", counted)
    monkeypatch.setattr(engine, "_BRACKET_CACHE", {})
    engine._pattern_rule.cache_clear()
    try:
        pd = bundled_knot_table()["8_19"]
        for n in (1, 2, 3):
            engine._cabled_colored_jones(pd, n)
    finally:
        engine._pattern_rule.cache_clear()
    # the arc-level rules made 4,194 calls here, two per local situation
    assert 0 < len(calls) <= 32


def test_bracket_unknot():
    assert bracket_colored_jones((), 3) == parse_poly("1")


def test_bracket_figure_eight():
    j = bracket_colored_jones(two_bridge_pd([2, 1, 1]), 1)
    assert str(j) == "q^-2 - q^-1 + 1 - q + q^2"


def test_bracket_mirror_property():
    for pd in (torus_pd(2, 3), pretzel_pd([-2, 3, 3]),
               two_bridge_pd([2, 1, 1]), bundled_knot_table()["9_49"]):
        for n in range(5):
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


def test_limit_budget_raises_cleanly():
    with pytest.raises(EngineLimitError):
        bracket_colored_jones(torus_pd(3, 4), 4, limit_mb=0)


def test_degree_kind_checked_before_any_work(monkeypatch):
    def no_state_sum(*args):
        raise AssertionError("a state sum ran")
    monkeypatch.setattr(engine, "_frontier", no_state_sum)
    spec = Diagram(bundled_knot_table()["8_20"])
    with pytest.raises(ValueError, match="unknown degree kind 'bogus'"):
        degree_sequence(spec, "bogus", 2)


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


def test_bracket_of_9_49_at_color_3_matches_its_degree_files():
    # 9_49's diagram is adequate on neither side
    j = bracket_colored_jones(bundled_knot_table()["9_49"], 3)
    dmax, dmin = engine.bundled_degrees("9_49", 3)
    assert (j.deg(), j.mindeg()) == (dmax[3], dmin[3]) == (50, 6)


@pytest.mark.slow
def test_vertex_model_matches_cabled_bracket_at_color_3():
    # every bundled diagram in both chiralities; the cabled 3-cables take
    # most of the time
    for name, pd in bundled_knot_table().items():
        for diagram in (pd, mirror_pd(pd)):
            assert bracket_colored_jones(diagram, 3) == \
                engine._cabled_colored_jones(diagram, 3), name


@pytest.mark.slow
def test_vertex_model_matches_degree_files_at_color_5():
    names = _seq_names()
    for key in names:
        j = bracket_colored_jones(bundled_knot_table()[key], 5)
        dmax, dmin = engine.bundled_degrees(key, 5)
        assert (j.deg(), j.mindeg()) == (dmax[5], dmin[5]), key


@pytest.mark.slow
def test_vertex_model_matches_cabled_bracket_on_8_19_color_4():
    # the cabled 4-cable's 128 crossings peak at 342,701,310 stored
    # bytes, under the default budget of 512 MiB: about 25 s and 391 MB
    # of RSS
    pd = bundled_knot_table()["8_19"]
    j = bracket_colored_jones(pd, 4)
    assert j == engine._cabled_colored_jones(pd, 4)
    assert j == morton_colored_jones(3, 4, 4)


@pytest.mark.slow
def test_vertex_model_matches_cabled_bracket_on_9_42_color_4():
    # the cabled 4-cable's 144 crossings peak at 309,790,129 stored
    # bytes, under the default budget, in about 16 s and 354 MB of RSS
    pd = bundled_knot_table()["9_42"]
    j = bracket_colored_jones(pd, 4)
    assert j == engine._cabled_colored_jones(pd, 4)
    dmax, dmin = engine.bundled_degrees("9_42", 4)
    assert (j.deg(), j.mindeg()) == (dmax[4], dmin[4]) == (32, -36)


def test_bundled_degree_files_cover_every_non_adequate_diagram():
    # Named takes a side that is not adequate from the bundled .seq
    # files, without a fallback, so every such knot needs both of them
    files = set(os.listdir(engine._SEQ_DIR))
    needed = [k for k in bundled_knot_table() if not all(Named(k)._adequate)]
    assert len(needed) == 11
    for key in needed:
        assert {key + ".max.seq", key + ".min.seq"} <= files, key


# ---------------------------------------------------------------------------
# the vertex model against its oracles


def _seq_names():
    names = sorted({f.split(".")[0] for f in os.listdir(engine._SEQ_DIR)})
    assert len(names) == 11
    return names


def test_vertex_model_matches_cabled_bracket_at_colors_1_and_2():
    # every bundled diagram and every pretzel of the benchmark, odd p
    # from -15 to 19, in both chiralities
    diagrams = dict(bundled_knot_table())
    diagrams.update((p, pretzel_pd([-2, 3, p])) for p in range(-15, 20, 2))
    assert len(diagrams) == 34
    for key, pd in diagrams.items():
        for diagram in (pd, mirror_pd(pd)):
            for n in (1, 2):
                assert bracket_colored_jones(diagram, n) == \
                    engine._cabled_colored_jones(diagram, n), (key, n)


def test_vertex_model_matches_cabled_bracket_on_self_arcs():
    # braid closures whose strands close up at one crossing: self-arcs,
    # which no bundled diagram has, and two kinks at one crossing
    for word, strands in (([1], 2), ([-1], 2), ([1, 1, 1, 2], 3),
                          ([1, 1, 1, -2], 3), ([1, -2, 3], 4)):
        pd = validate_pd(braid_pd(word, strands))
        assert any(len(set(cr)) < 4 for cr in pd)
        for diagram in (pd, mirror_pd(pd)):
            for n in (1, 2, 3):
                assert bracket_colored_jones(diagram, n) == \
                    engine._cabled_colored_jones(diagram, n), (word, n)


def test_vertex_model_matches_morton_on_torus_diagrams():
    for a, b in ((2, 3), (3, 4), (2, 5), (3, 5)):
        pd = torus_pd(a, b)
        for n in range(7):
            assert bracket_colored_jones(pd, n) == \
                morton_colored_jones(a, b, n), (a, b, n)


def test_vertex_model_matches_degree_files_at_colors_3_and_4():
    for key in _seq_names():
        dmax, dmin = engine.bundled_degrees(key, 4)
        for n in (3, 4):
            j = bracket_colored_jones(bundled_knot_table()[key], n)
            assert (j.deg(), j.mindeg()) == (dmax[n], dmin[n]), (key, n)


def test_vertex_model_does_not_depend_on_the_outer_face():
    # the outer face is the one left of the arrival at crossing 0's
    # slot 0, so rotating the crossing list moves it; relabelling the
    # arcs moves nothing and must not matter either
    for pd in (bundled_knot_table()["9_42"], pretzel_pd([-2, 3, 5])):
        want = bracket_colored_jones(pd, 2)
        faces = knots._left_faces(pd, knots._arc_endpoints(pd))[0]
        assert len({faces[k, 0] for k in range(len(pd))}) >= 4
        for k in range(len(pd)):
            assert bracket_colored_jones(pd[k:] + pd[:k], 2) == want, k
        relabelled = [tuple(1000 - 3 * a for a in cr) for cr in pd]
        assert bracket_colored_jones(relabelled, 2) == want


# peak stored bytes of the vertex state sum of 8_19 at color 5
PEAK_8_19_WEIGHTS_5 = 6214112


def _weights_sum(pd, n, byte_limit):
    steps, _, shapes = engine._frame(validate_pd(pd))
    return engine._frontier(steps, engine._Weights(n, steps, shapes),
                            byte_limit)


def test_vertex_budget_stops_inside_a_step_below_its_peak(monkeypatch):
    # --limit-mb is a bound on this peak, so it must not drift; the whole
    # MiB below it (5 MiB) stops the sum at a check inside a step, before
    # the step has written its whole frontier
    pd = bundled_knot_table()["8_19"]
    written = {}
    check_budget = engine._check_budget

    def recorded(byte_limit, step, read, new, *rest):
        written[step] = new
        return check_budget(byte_limit, step, read, new, *rest)
    monkeypatch.setattr(engine, "_check_budget", recorded)
    assert _weights_sum(pd, 5, PEAK_8_19_WEIGHTS_5)[2] == PEAK_8_19_WEIGHTS_5
    monkeypatch.undo()
    with pytest.raises(EngineLimitError, match="memory budget") as info:
        bracket_colored_jones(pd, 5, limit_mb=PEAK_8_19_WEIGHTS_5 >> 20)
    step, new = map(int, re.search(r"step (\d+), at (\d+) new",
                                   str(info.value)).groups())
    assert new % engine._CHECK_EVERY == 0
    assert new < written[step]


def test_vertex_budget_counts_each_packed_int_once(monkeypatch):
    # the bits a check charges are those of the distinct ints of the read
    # and the written frontier, to within a byte: CPython shares its
    # small ints, and the first step reads the empty state's 1.  Both
    # local algebras: the vertex model on 9_49 at color 4, and the cabled
    # bracket of 8_19's 3-cable, whose smoothings that close no circle
    # hand the read state's int on unchanged.  Its early merges leave
    # small coefficients, which CPython shares and the charge counts once
    # per state: within 4 bytes there, where counting a shared int twice
    # would overcharge by up to 7.8 million bits
    checks = []
    check_budget = engine._check_budget

    def recorded(byte_limit, step, read, new, bits, table_bytes):
        frontiers = sys._getframe(1).f_locals
        ints = {id(value[1]): value[1] for dp in ("dp", "ndp")
                for value in frontiers[dp].values()}
        checks.append((bits, sum(p.bit_length() for p in ints.values())))
        return check_budget(byte_limit, step, read, new, bits, table_bytes)
    monkeypatch.setattr(engine, "_check_budget", recorded)
    bracket_colored_jones(bundled_knot_table()["9_49"], 4)
    vertex, checks[:] = checks[:], []
    engine._bracket_raw(*engine._cable(bundled_knot_table()["8_19"], 3),
                        10 ** 9)
    assert len(vertex) > 20 and len(checks) > 20
    assert all(abs(charged - held) < 8 for charged, held in vertex)
    assert all(abs(charged - held) < 32 for charged, held in checks)


def _per_step_tables(pd, n, steps):
    """The vertex model's rule tables built step by step, each from the
    diagram's strand walk and turning numbers and keyed by the step's
    registers, with (bound, bits), each factor packed at stride 2 from
    its lowest key: the oracle of the tables ``_Weights`` fills from
    the rules that it builds once per shape and places once per
    registers.  It walks the diagram itself, not through the cached
    reading (``knots._reading``)."""
    ends = knots._arc_endpoints(pd)
    signs = [None] * len(pd)
    for ci, slot in knots._component_walk(pd, ends):
        if slot % 2:
            signs[ci] = slot == 3
    frames = [(3, 0, 1, 2) if sign else (0, 1, 2, 3) for sign in signs]
    into = {(ci, s): i < 2 for ci, frame in enumerate(frames)
            for i, s in enumerate(frame)}
    turning = engine._turning_numbers(pd, ends, knots._left_faces(pd, ends),
                                      into)
    width = n.bit_length()

    def place(labels, registers):
        return sum(label << (r * width) for label, r in zip(labels, registers))
    grouped, bound = [], 1
    for idx, at, consumed, links, opens in steps:
        sw, se, ne, nw = frames[idx]
        out = [s for s in range(4) if opens[s] is not None]
        linked = [(s, t) for s, t in enumerate(links) if t is not None]
        turns = [(s, 2 * turning[pd[idx][s]])
                 for s in out + [s for s, t in linked if t > s]]
        rules, norms = {}, {}
        for a, b, to_nw, to_ne, terms, norm in engine._r_tables(n)[signs[idx]]:
            label = [0] * 4
            label[sw], label[se], label[nw], label[ne] = a, b, to_nw, to_ne
            if linked and any(label[s] != label[t] for s, t in linked):
                continue
            local = place([label[s] for s in at], consumed)
            writes = place([label[s] for s in out], [opens[s] for s in out])
            norms[writes] = norms.get(writes, 0) + norm
            shift = sum((2 * label[s] - n) * t for s, t in turns)
            poly = rules.setdefault(local, {}).setdefault(local ^ writes, {})
            for key, c in terms.items():
                poly[key + shift] = poly.get(key + shift, 0) + c
        grouped.append(rules)
        bound *= max(norms.values())
    bits = bound.bit_length() + 1
    tables = []
    for rules in grouped:
        table = {}
        for local, outs in rules.items():
            found = []
            for flip, poly in outs.items():
                poly = {key: c for key, c in poly.items() if c}
                if not poly:
                    continue
                lo = min(poly)
                assert all((key - lo) % 2 == 0 for key in poly)
                factor = None if poly == {lo: 1} else sum(
                    poly.get(key, 0) << ((key - lo) // 2 * bits)
                    for key in range(lo, max(poly) + 1, 2))
                found.append((flip, lo, factor))
            # a consumed-label key without an outcome has no rule
            if found:
                table[local] = tuple(found)
        tables.append(table)
    return tables, bound, bits


def test_shared_tables_equal_the_per_step_build():
    # every bundled diagram, every pretzel of the benchmark and braid
    # closures with self-arcs, in both chiralities
    diagrams = dict(bundled_knot_table())
    diagrams.update((p, pretzel_pd([-2, 3, p])) for p in range(-15, 20, 2))
    assert len(diagrams) == 34
    diagrams.update((tuple(word), braid_pd(word, strands))
                    for word, strands in (([1, 1, 1, 2], 3), ([1, -2, 3], 4)))
    for key, pd in diagrams.items():
        for diagram in (pd, mirror_pd(pd)):
            steps, _, shapes = engine._frame(validate_pd(diagram))
            for n in (1, 2, 3):
                algebra = engine._Weights(n, steps, shapes)
                tables, bound, bits = _per_step_tables(
                    validate_pd(diagram), n, steps)
                assert (algebra.bound, algebra.bits) == (bound, bits)
                assert algebra.tables == tables, (key, n)


def _algebras(monkeypatch):
    """The local algebras of the state sums run from now on."""
    seen = []
    frontier = engine._frontier

    def recorded(steps, algebra, byte_limit):
        seen.append(algebra)
        return frontier(steps, algebra, byte_limit)
    monkeypatch.setattr(engine, "_frontier", recorded)
    return seen


def _replay_width(crossings, order):
    """Most open arcs along ``order``: an arc opens at its first crossing
    and closes at its second, as the benchmark's tracer replays it."""
    open_arcs, width = set(), 0
    for idx in order:
        open_arcs.symmetric_difference_update(
            a for a in set(crossings[idx])
            if crossings[idx].count(a) == 1)
        width = max(width, len(open_arcs))
    return width


@pytest.mark.parametrize("pd, width", [
    (bundled_knot_table()["8_19"], 6), (bundled_knot_table()["9_49"], 8),
    (pretzel_pd([-2, 3, 19]), 6)], ids=["8_19", "9_49", "pretzel_19"])
def test_registers_are_the_frontier_width(pd, width):
    # each arc holds one register from the step that opens it to the one
    # that consumes it, an opened arc takes a free register, the lowest,
    # and none is open after the last step
    order = engine._pick_order(pd)
    steps, registers = engine._steps(pd, order)
    assert registers == _replay_width(pd, order) == width
    held = {}
    for idx, at, consumed, links, opens in steps:
        assert [held.pop(pd[idx][s]) for s in at] == consumed
        for s, r in enumerate(opens):
            if r is not None:
                assert r not in held.values()
                assert r == min(set(range(registers)) - set(held.values()))
                held[pd[idx][s]] = r
        assert all(links[s] is None or pd[idx][s] == pd[idx][links[s]]
                   for s in range(4))
    assert held == {}
    # an order that leaves arcs open is refused, as is a crossing list
    # of two diagrams
    with pytest.raises(AssertionError, match="did not close up"):
        engine._steps(pd, order[:-1])
    shifted = [tuple(a + 1000 for a in cr) for cr in pd]
    both = list(pd) + shifted
    with pytest.raises(AssertionError, match="connected"):
        engine._steps(both, list(range(len(both))))


def test_steps_of_one_shape_share_one_table(monkeypatch):
    # the 24 steps of (-2,3,19) have 7 shapes and 8 distinct (shape,
    # registers), and steps of one shape and registers share one table
    algebras = _algebras(monkeypatch)
    pd = pretzel_pd([-2, 3, 19])
    bracket_colored_jones(pd, 2)
    steps, _, shapes = engine._frame(pd)
    tables = algebras[0].tables
    assert len(tables) == 24 and len(set(shapes)) == 7
    owner = {}
    for shape, (_, _, consumed, _, opens), table in zip(shapes, steps,
                                                          tables):
        owner.setdefault((shape, tuple(consumed), tuple(opens)), table)
        assert owner[shape, tuple(consumed), tuple(opens)] is table
    assert len(owner) == len({id(table) for table in tables}) == 8


def test_rule_tables_built_once_per_color_and_shape(monkeypatch):
    # the 18 pretzels of the benchmark have 11 distinct step shapes and
    # 16 distinct placements on registers at each color, and each is
    # built once per process, whatever diagram asks for it
    algebras = _algebras(monkeypatch)
    engine._shape_table.cache_clear()
    engine._placed.cache_clear()
    pds = [pretzel_pd([-2, 3, p]) for p in range(-15, 20, 2)]
    for n in (1, 2):
        for pd in pds:
            bracket_colored_jones(pd, n)
        assert engine._shape_table.cache_info().misses == 11 * n
        assert engine._placed.cache_info().misses == 16 * n
    assert len(algebras) == 36


def test_state_sum_leaves_the_tables_unchanged():
    # a state sum reads its tables and writes none: a consumed-label key
    # without a rule is not stored, though 8_19 at color 3 meets 48 of
    # them, and the tables built once per process, tuples, are still
    # the ones the caches hand out
    cases = [(pretzel_pd([-2, 3, p]), n) for p in range(-15, 20, 2)
             for n in (1, 2)] + [(bundled_knot_table()["8_19"], 3)]
    for pd, n in cases:
        steps, _, shapes = engine._frame(validate_pd(pd))
        algebra = engine._Weights(n, steps, shapes)
        tables = [dict(table) for table in algebra.tables]
        cached = [(engine._shape_table(n, shape),
                   engine._placed(n, shape, tuple(consumed),
                                  tuple(opens[s] for s in shape[3])))
                  for shape, (_, _, consumed, _, opens) in zip(shapes, steps)]
        engine._frontier(steps, algebra, 1 << 30)
        assert algebra.tables == tables
        assert all(engine._shape_table(n, shape) is built and
                   engine._placed(n, shape, tuple(consumed),
                                  tuple(opens[s] for s in shape[3])) is placed
                   for shape, (_, _, consumed, _, opens), (built, placed)
                   in zip(shapes, steps, cached))


def test_frame_built_once_per_diagram(monkeypatch):
    calls = {"_turning_numbers": 0, "_pick_order": 0}

    def counted(name):
        fn = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    engine._frame.cache_clear()
    pd = bundled_knot_table()["8_19"]
    for n in (1, 2, 3):
        bracket_colored_jones(pd, n)
    assert calls == {"_turning_numbers": 1, "_pick_order": 1}


def test_diagram_validated_once_per_diagram(monkeypatch):
    # colors 0-3 of a diagram that nothing has read, 8_19 with its
    # crossing list rotated, check it once, in the cached reading
    # (``knots._reading``) that its frame takes; the bundled 8_19,
    # validated as the knot table validates it when it loads, is not
    # read again
    calls = []
    pick_order = engine._pick_order

    def counted(pd):
        calls.append(pd)
        return pick_order(pd)
    monkeypatch.setattr(engine, "_pick_order", counted)
    engine._frame.cache_clear()
    knots._reading.cache_clear()
    bundled = validate_pd(bundled_knot_table()["8_19"])
    pd = bundled[1:] + bundled[:1]
    misses = knots._reading.cache_info().misses
    for n in range(4):
        assert bracket_colored_jones(pd, n) == morton_colored_jones(3, 4, n)
    assert knots._reading.cache_info().misses == misses + 1
    assert calls == [pd]
    for n in range(4):
        assert bracket_colored_jones(bundled, n) == \
            morton_colored_jones(3, 4, n)
    assert knots._reading.cache_info().misses == misses + 1
    assert calls == [pd, bundled]


def test_invalid_diagrams_raise_on_every_call():
    pd = bundled_knot_table()["8_19"]
    bracket_colored_jones(pd, 1)
    # a copy of the cached diagram with a float label is refused, though
    # its tuple equals and hashes as the cached one
    floated = ((1.0,) + pd[0][1:],) + pd[1:]
    assert floated == pd
    broken = ((pd[0][0], pd[0][1], pd[0][2], pd[0][0]),) + pd[1:]
    for n in (0, 1, 2, 1, 0):
        with pytest.raises(ValueError, match="not an integer"):
            bracket_colored_jones(floated, n)
        with pytest.raises(ValueError, match="appears"):
            bracket_colored_jones(broken, n)
        with pytest.raises(ValueError, match="appears"):
            bracket_colored_jones([list(cr) for cr in broken], n)
    # a list of lists with int labels is the cached diagram
    assert bracket_colored_jones([list(cr) for cr in pd], 2) == \
        morton_colored_jones(3, 4, 2)


def test_budget_charges_each_shared_table_once(monkeypatch):
    # 8_19's 8 steps have 5 shapes and 6 re-keyed tables, and every
    # check charges the rules of one table per shape once, over the
    # states: a shape's re-keyed copies share its packed factors
    algebras = _algebras(monkeypatch)
    charged = set()
    check_budget = engine._check_budget

    def recorded(byte_limit, step, read, new, bits, table_bytes):
        charged.add(table_bytes)
        return check_budget(byte_limit, step, read, new, bits, table_bytes)
    monkeypatch.setattr(engine, "_check_budget", recorded)
    pd = bundled_knot_table()["8_19"]
    bracket_colored_jones(pd, 3)
    tables = algebras[0].tables
    per_shape = dict(zip(engine._frame(pd)[2], tables))
    assert len(tables) == 8 and len(per_shape) == 5
    assert len({id(table) for table in tables}) == 6
    rules = [rule for table in per_shape.values() for outs in table.values()
             for rule in outs]
    digits = sum(f.bit_length() for _, _, f in rules if f is not None)
    assert charged == {len(rules) * engine._RULE_BYTES + digits * 2 // 15}
