"""Tests for knot specs, planar diagrams, and the bundled tables."""

import dataclasses
import os
import re
from fractions import Fraction

import pytest

from knotslopes import closedforms, engine, knots
from knotslopes.engine import EngineLimitError
from knotslopes.knots import (INFINITY, AlternatingData, Diagram,
                              DiagramStats, Named, Pretzel237, Torus,
                              braid_pd, bundled_knot_table, bundled_slope_db,
                              is_alternating, load_knot_table, load_slope_db,
                              mirror_pd, parse_knot, pretzel_pd,
                              smoothing_counts, torus_pd, two_bridge_pd,
                              validate_pd)

TREFOIL_PD = ((1, 2, 3, 4), (2, 5, 6, 3), (5, 1, 4, 6))


def test_parse_grammar():
    assert parse_knot("torus:2,3") == Torus(2, 3)
    assert parse_knot("mirror:torus:2,3") == Torus(2, -3)
    assert parse_knot("pretzel:-2,3,7") == Pretzel237(7)
    assert parse_knot("mirror:pretzel:-2,3,7") == Pretzel237(7, mirror=True)
    assert parse_knot("alt:3,0,2,3") == AlternatingData(3, 0, 2, 3)
    assert parse_knot("name:8_19") == Named("8_19")
    spec = parse_knot("pd:[(1,4,2,5),(3,6,4,1),(5,2,6,3)]")
    assert isinstance(spec, Diagram)
    assert len(spec.pd) == 3


def test_parse_render_round_trip():
    for text in ("torus:2,3", "mirror:torus:2,3", "pretzel:-2,3,7",
                 "alt:3,0,2,3", "mirror:alt:3,0,2,3", "name:9_47",
                 "mirror:name:9_47"):
        spec = parse_knot(text)
        assert parse_knot(spec.render()) == spec


def test_parse_rejects():
    for bad in ("torus:2,4", "torus:1,5", "pretzel:-2,3,4", "pretzel:1,2,3",
                "alt:3,0,2,4", "name:nope", "bogus:1", "", "pd:[(1,2,3)]"):
        with pytest.raises(ValueError):
            parse_knot(bad)


NON_INTEGER_SPECS = [
    ("pretzel:-2,3,x", "x"), ("torus:2,x", "x"), ("alt:3,0,x,3", "x"),
    ("pretzel:-2,3,1_9", "1_9"), ("torus:2,\u0663", "\u0663")]


@pytest.mark.parametrize("text, token", NON_INTEGER_SPECS,
                         ids=[text for text, _ in NON_INTEGER_SPECS])
def test_parse_names_the_spec_of_a_non_integer_parameter(text, token):
    # int() would read 1_9 as 19 and an Arabic-Indic three as 3
    with pytest.raises(ValueError, match=re.escape(text)) as exc:
        parse_knot(text)
    assert repr(token) in str(exc.value)


def test_parse_reads_pd_labels_as_ascii_digits():
    message = "malformed pd tuple at '(5,1,4,\u0666)'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_knot("pd:[(1,2,3,4),(2,5,6,3),(5,1,4,\u0666)]")


def test_torus_validation():
    with pytest.raises(ValueError):
        Torus(2, 4)
    with pytest.raises(ValueError):
        Torus(1, 3)
    assert Torus(2, -3).render() == "torus:2,-3"


def test_torus_message_states_the_rule():
    # a >= 2 and |b| >= 2: -2 is 2 in magnitude, but a must be positive;
    # the spec and Morton's formula refuse with the one message
    from knotslopes.engine import morton_colored_jones
    rule = ("torus parameters must be coprime with a >= 2 and |b| >= 2, "
            "a negative b giving the mirror image: got (-2,3)")
    with pytest.raises(ValueError) as spec:
        parse_knot("torus:-2,3")
    with pytest.raises(ValueError) as poly:
        morton_colored_jones(-2, 3, 1)
    assert str(spec.value) == str(poly.value) == rule
    assert parse_knot("torus:2,-3") == Torus(2, -3)
    for a, b in ((2, 4), (1, 3), (3, 1), (3, -1), (0, 3)):
        with pytest.raises(ValueError, match=re.escape(
                "got (%d,%d)" % (a, b))):
            Torus(a, b)


def test_alternating_data_circle_count_constraint():
    AlternatingData(4, 4, 5, 5)
    with pytest.raises(ValueError):
        AlternatingData(4, 4, 5, 6)
    with pytest.raises(ValueError):
        AlternatingData(-1, 4, 2, 3)


def test_alternating_data_mirror_swaps_roles():
    m = AlternatingData(7, 5, 10, 4, mirror=True).diagram_stats()
    assert (m.c_plus, m.c_minus) == (5, 7)
    assert (m.a_circles, m.b_circles) == (4, 10)


def test_specs_are_frozen():
    cases = [(Torus(2, 3), "b"), (Pretzel237(7), "mirror"),
             (AlternatingData(3, 0, 2, 3), "c_plus"),
             (Diagram(TREFOIL_PD), "pd"), (Named("3_1"), "name"),
             (DiagramStats(3, 0, 2, 3), "a_circles")]
    for obj, field in cases:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 1)
    assert len({Named("3_1"), Named("3_1"), Named("3_1", mirror=True)}) == 2


def test_mirror_rule_on_every_question():
    # a flagged mirror answers like the mirrored diagram
    for spec, image in ((Named("8_19", mirror=True),
                         Diagram(mirror_pd(bundled_knot_table()["8_19"]))),
                        (Diagram(TREFOIL_PD, mirror=True),
                         Diagram(mirror_pd(TREFOIL_PD))),
                        (Pretzel237(-3, mirror=True),
                         Diagram(mirror_pd(pretzel_pd([-2, 3, -3]))))):
        assert spec.degrees(2) == image.degrees(2)
        assert spec.polynomial(2) == image.polynomial(2)
        assert spec.diagram_stats() == image.diagram_stats()
    st = AlternatingData(3, 0, 2, 3, mirror=True).diagram_stats()
    assert st == DiagramStats(0, 3, 3, 2)
    assert Torus(2, -3).diagram_stats() == smoothing_counts(torus_pd(2, -3))
    db = {"3_1": frozenset({Fraction(6), INFINITY}),
          "pretzel:-2,3,5": frozenset({Fraction(15)})}
    assert Named("3_1", mirror=True).boundary_slopes(db) == \
        frozenset({Fraction(-6), INFINITY})
    assert Pretzel237(5, mirror=True).boundary_slopes(db) == \
        frozenset({Fraction(-15)})
    assert Named("8_19", mirror=True).boundary_slopes(db) is None


def test_alternating_checks_only_for_alt_name_pd():
    assert AlternatingData(3, 0, 2, 3).alternating_data() is not None
    assert Named("3_1").alternating_data() == AlternatingData(3, 0, 2, 3)
    assert Diagram(TREFOIL_PD, mirror=True).alternating_data() == \
        AlternatingData(3, 0, 2, 3, mirror=True)
    assert Named("8_19").alternating_data() is None
    assert Torus(2, 3).alternating_data() is None
    assert Pretzel237(-1).alternating_data() is None
    # alternating diagrams with a nugatory crossing are not reduced
    assert Diagram(two_bridge_pd([1, 2])).alternating_data() is None
    assert Diagram(two_bridge_pd([3, 1])).alternating_data() is None
    assert Diagram(two_bridge_pd([3])).alternating_data() is not None


def test_unreduced_alternating_diagram_uses_bracket():
    # closed forms would give 0, 3, 9 and 0, 5, 14 here
    assert Diagram(two_bridge_pd([1, 2])).degrees(2)[0] == [0, 0, 0]
    assert Diagram(two_bridge_pd([3, 1])).degrees(2)[0] == [0, 4, 11]
    with pytest.raises(EngineLimitError, match="--max-n"):
        Diagram(two_bridge_pd([3, 1])).default_colors()


def test_diagram_classification():
    # (DiagramStats(c+, c-, |A|, |B|), alternating, all-B state adequate,
    # all-A state adequate), of each diagram and of its mirror image
    cases = [
        (Named("3_1").pd, (3, 0, 2, 3), (True, True, True),
         (0, 3, 3, 2), (True, True, True)),
        (two_bridge_pd([1, 2]), (3, 0, 4, 1), (True, False, True),
         (0, 3, 1, 4), (True, True, False)),
        (Named("8_19").pd, (8, 0, 3, 1), (False, False, True),
         (0, 8, 1, 3), (False, True, False)),
        (Named("9_49").pd, (9, 2, 2, 5), (False, False, False),
         (2, 9, 5, 2), (False, False, False)),
        (parse_knot("pretzel:-2,3,-5").pd, (5, 5, 6, 4), (False, True, False),
         (5, 5, 4, 6), (False, False, True))]
    for pd, stats, kinds, mirror_stats, mirror_kinds in cases:
        assert knots._classify(pd) == (DiagramStats(*stats), *kinds)
        assert knots._classify(mirror_pd(pd)) == \
            (DiagramStats(*mirror_stats), *mirror_kinds)


def test_classification_walks_the_diagram_once(monkeypatch):
    # a cache miss on a validated diagram reads the strand walk of the
    # diagram's cached reading, which validation made, and labels the
    # circles of each state once
    pd = validate_pd(Named("9_49").pd)
    calls = []
    for name in ("_component_walk", "_state_circles"):
        def counted(*args, _fn=getattr(knots, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(knots, name, counted)
    knots._classify.cache_clear()
    knots._classify(pd)
    assert calls == ["_state_circles", "_state_circles"]


def test_each_diagram_is_read_once(monkeypatch):
    # one diagram from each source: the bundled table, the pretzel
    # generator, a user pd: spec and the mirror of a diagram.  Building
    # each one reads it once (``_reading``: the checks, the strand walk
    # and the faces); after that, validation, classification, the vertex
    # model's frame and its state sums read none of them again
    for cache in (knots._reading, knots._classify, engine._frame):
        cache.cache_clear()
    reads = knots._reading.cache_info
    table = load_knot_table(os.path.join(knots.DATA_DIR, "knots.tsv"))
    assert reads().misses == len(table)
    diagrams = [table["8_19"]]
    for build in (
            lambda: pretzel_pd([-2, 3, 5]),
            lambda: parse_knot(
                "pd:[(11,12,13,14),(12,15,16,13),(15,11,14,16)]").pd,
            lambda: mirror_pd(diagrams[1])):
        misses = reads().misses
        diagrams.append(build())
        assert reads().misses == misses + 1
    calls = []
    for name in ("_arc_endpoints", "_component_walk", "_left_faces"):
        monkeypatch.setattr(knots, name,
                            lambda *args, _name=name: calls.append(_name))
    misses = reads().misses
    polys = []
    for pd in diagrams:
        assert validate_pd(pd) == pd
        knots._classify(pd)
        engine._frame(pd)
        polys.append([engine.bracket_colored_jones(pd, n) for n in range(4)])
    assert reads().misses == misses
    assert calls == []
    assert polys[3] == [j.mirror() for j in polys[1]]
    assert [str(j) for j in polys[2][:2]] == ["1", "q + q^3 - q^4"]


def test_bundled_degrees_must_match_the_adequate_side(monkeypatch):
    bundled = engine.bundled_degrees

    def off_by_one(name, n_max):
        dmax, dmin = bundled(name, n_max)
        dmin[7] += 1
        return dmax, dmin
    monkeypatch.setattr(engine, "bundled_degrees", off_by_one)
    with pytest.raises(AssertionError, match="name:8_19"):
        Named("8_19").degrees(20)


def test_pretzel_degrees_must_match_the_adequate_side(monkeypatch):
    # the diagram of (-2,3,7) is A-adequate only: its minimum degree
    pretzel_degrees = closedforms.pretzel_degrees

    def off_by_one(p, n_max, seeds):
        dmax, dmin = pretzel_degrees(p, n_max, seeds)
        dmin[9] += 1
        return dmax, dmin
    monkeypatch.setattr(closedforms, "pretzel_degrees", off_by_one)
    with pytest.raises(AssertionError, match="pretzel:-2,3,7"):
        Pretzel237(7).degrees(20)


def test_default_colors():
    assert Torus(3, 4).default_colors() == 16
    assert Pretzel237(19).default_colors() == 54
    assert AlternatingData(3, 0, 2, 3).default_colors() == 20
    assert Named("8_19").default_colors() == 20  # bundled degree files
    assert Diagram(TREFOIL_PD).default_colors() == 20
    assert Diagram(()).default_colors() == 6
    with pytest.raises(EngineLimitError, match="--max-n"):
        Diagram(bundled_knot_table()["8_19"]).default_colors()


def test_validate_pd():
    validate_pd(TREFOIL_PD)
    assert validate_pd([]) == ()  # the 0-crossing unknot
    with pytest.raises(ValueError):
        validate_pd([(1, 2, 3, 4)])  # arcs must appear exactly twice
    with pytest.raises(ValueError):
        validate_pd([(1, 2, 3), (1, 2, 3)])
    # a non-integral label is refused, not truncated to the trefoil
    with pytest.raises(ValueError, match="PD label 1.9 is not an integer"):
        validate_pd([(1.9, 2, 3, 4), (2, 5, 6, 3), (5, 1.2, 4, 6)])
    # the trefoil with its first crossing read from the outgoing under-arc
    with pytest.raises(ValueError, match="crossing 1 is entered at the "
                       "outgoing under slot; arc direction violates the "
                       "PD convention"):
        validate_pd(((3, 4, 1, 2),) + TREFOIL_PD[1:])
    with pytest.raises(ValueError,
                       match="diagram is not planar: V-E\\+F = -2"):
        validate_pd([(1, 4, 2, 5), (2, 6, 3, 1), (3, 5, 4, 6)])


def test_mirror_pd_involution():
    pd = torus_pd(2, 3)
    st = smoothing_counts(pd)
    mst = smoothing_counts(mirror_pd(pd))
    assert (mst.c_plus, mst.c_minus) == (st.c_minus, st.c_plus)
    assert (mst.a_circles, mst.b_circles) == (st.b_circles, st.a_circles)
    back = smoothing_counts(mirror_pd(mirror_pd(pd)))
    assert (back.c_plus, back.c_minus, back.a_circles, back.b_circles) == \
        (st.c_plus, st.c_minus, st.a_circles, st.b_circles)


def test_smoothing_counts_trefoil():
    st = smoothing_counts(torus_pd(2, 3))
    assert (st.c_plus, st.c_minus) == (3, 0)
    assert st.writhe == 3
    assert (st.a_circles, st.b_circles) == (2, 3)
    # reduced alternating diagram: |A| + |B| = c + 2
    assert st.a_circles + st.b_circles == st.c_plus + st.c_minus + 2


def test_writhe_matches_signed_counts():
    for pd in (torus_pd(2, 5), torus_pd(3, 4), pretzel_pd([-2, 3, 7]),
               two_bridge_pd([2, 1, 1])):
        st = smoothing_counts(pd)
        assert st.writhe == st.c_plus - st.c_minus


def test_is_alternating():
    assert is_alternating(torus_pd(2, 3))
    assert is_alternating(two_bridge_pd([2, 1, 1]))
    assert not is_alternating(torus_pd(3, 4))
    assert not is_alternating(pretzel_pd([-2, 3, 7]))
    assert is_alternating(pretzel_pd([2, 3, 5, 5]))


def test_braid_pd_torus():
    assert braid_pd((1, 1, 1), 2) == torus_pd(2, 3)
    with pytest.raises(ValueError):
        braid_pd((1, 1), 2)  # closure is a link, not a knot
    with pytest.raises(ValueError, match="closure has a free loop"):
        braid_pd((1, 1, 1), 3)  # the third strand is never crossed


def test_two_bridge_pd():
    # single twist region of 3 gives a trefoil diagram
    assert len(two_bridge_pd([3])) == 3
    assert is_alternating(two_bridge_pd([3]))
    with pytest.raises(ValueError):
        two_bridge_pd([4])  # two components
    # no crossing at all, or a crossing-free loop in the closure
    for make, twists in ((two_bridge_pd, []), (two_bridge_pd, [0]),
                         (pretzel_pd, [0, 0, 1])):
        with pytest.raises(ValueError, match="closure has a free loop"):
            make(twists)
    # twist counts are integers, not truncated floats or digit strings
    for twists in ([1.9, 2], ["3"], [2, 1.5]):
        with pytest.raises(TypeError):
            two_bridge_pd(twists)


def test_bundled_tables_load():
    table = bundled_knot_table()
    for key in ("3_1", "8_17", "8_19", "9_49", "12a_669",
                "pretzel_2_3_5_5", "pretzel_2_5_3_5"):
        assert key in table
        validate_pd(table[key])
    db = bundled_slope_db()
    assert db
    for key, slopes in db.items():
        assert slopes, key
        # every key resolves: either a table name or a parseable spec
        if key not in table:
            parse_knot(key)


def test_slope_db_values():
    db = bundled_slope_db()
    assert db["3_1"] == frozenset({Fraction(0), Fraction(6)})
    assert db["8_19"] == frozenset({Fraction(0), Fraction(12)})
    assert INFINITY in db["8_17"]
    assert Fraction(8, 3) in db["8_20"]


def test_load_slope_db_parses_custom_file(tmp_path):
    path = tmp_path / "slopes.tsv"
    path.write_text("# comment\nfoo\t0,-3/2,inf\n")
    db = load_slope_db(str(path))
    assert db["foo"] == frozenset({Fraction(0), Fraction(-3, 2), INFINITY})


def test_load_knot_table_parses_custom_file(tmp_path):
    path = tmp_path / "knots.tsv"
    path.write_text("# comment\ntref\tpd:[(1,2,3,4),(2,5,6,3),(5,1,4,6)]\n")
    table = load_knot_table(str(path))
    assert table["tref"] == TREFOIL_PD


@pytest.mark.parametrize("loader, row", [
    (load_slope_db, "foo\t0,6"),
    (load_knot_table, "foo\tpd:[(1,2,3,4),(2,5,6,3),(5,1,4,6)]")])
def test_tsv_loaders_reject_duplicate_keys_and_missing_tabs(tmp_path, loader,
                                                            row):
    path = tmp_path / "table.tsv"
    path.write_text("# comment\n%s\n\n%s  # again\n" % (row, row))
    with pytest.raises(ValueError) as err:
        loader(str(path))
    assert str(err.value) == "%s:4: duplicate knot key 'foo'" % path
    path.write_text("%s\nbar 0\n" % row)
    with pytest.raises(ValueError) as err:
        loader(str(path))
    assert str(err.value) == "%s:2: expected a tab separator" % path
    path.write_bytes(b"%s\n\xff\t0\n" % row.encode())
    with pytest.raises(ValueError) as err:
        loader(str(path))
    assert str(err.value).startswith(
        "%s:2: 'utf-8' codec can't decode byte 0xff" % path)


def test_boundary_slopes_dispatch():
    assert Torus(2, 3).boundary_slopes() == frozenset({Fraction(0),
                                                       Fraction(6)})
    # mirror negates every slope
    assert Torus(2, -3).boundary_slopes() == frozenset({Fraction(0),
                                                        Fraction(-6)})
    assert Named("3_1").boundary_slopes() == frozenset({Fraction(0),
                                                        Fraction(6)})
    # pretzel slopes computed from the closed form for p >= 7
    assert Pretzel237(7).boundary_slopes() == frozenset(
        {Fraction(0), Fraction(16), Fraction(37, 2), Fraction(20)})
    # small p comes out of the bundled table
    assert Pretzel237(5).boundary_slopes() == frozenset(
        {Fraction(0), Fraction(15)})
    # no data for a bare alternating spec
    assert AlternatingData(3, 0, 2, 3).boundary_slopes() is None


def test_infinity_slope():
    assert str(INFINITY) == "inf"
    assert INFINITY == INFINITY
    assert INFINITY != Fraction(10**9)
    assert hash(INFINITY) == hash(INFINITY)
