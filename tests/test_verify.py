"""Tests for the conjecture verifier and its side checks."""

import json
from fractions import Fraction
from math import gcd

from knotslopes import engine, knots
from knotslopes.quasifit import RationalGF
from knotslopes.knots import (INFINITY, AlternatingData, DiagramStats, Named,
                              Pretzel237, Torus, parse_knot)
from knotslopes.verify import (analyze, check_alternating_theorems,
                               check_crossing_bounds)


def test_analyze_8_19():
    r = analyze(parse_knot("name:8_19"), 12)
    assert r.period == 2
    assert r.delta_period == 2
    assert r.js == [6]
    assert r.js_star == [0]
    assert r.jones_diameter == 6
    assert r.boundary_slopes == [0, 12]
    assert r.conjecture_verdict == "verified"
    assert r.evidence["max_color"] == 12
    assert any("2*s" in note for note in r.evidence["notes"])


def test_generating_functions_are_reduced_only_for_output(monkeypatch):
    # analyze reduces nothing; the JSON form reduces each model once
    calls = []
    reduced = RationalGF.reduced

    def counted(self):
        calls.append(self)
        return reduced(self)
    monkeypatch.setattr(RationalGF, "reduced", counted)
    r = analyze(Pretzel237(7), 20)
    assert calls == []
    doc = r.to_dict()["evidence"]
    assert len(calls) == 2
    assert doc["delta"]["gf"] == str(r.evidence["delta"].gf)
    assert doc["delta_star"]["gf"] is not None


def test_analyze_reads_each_degree_list_once(monkeypatch):
    # one spec.degrees call yields both lists: one read of Morton's
    # numerator per color and no Morton polynomial, one read of each
    # bundled file
    calls = {}

    def count(name):
        fn = getattr(engine, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, wrapper)
    count("morton_degrees")
    count("morton_colored_jones")
    count("_load_seq")
    analyze(Torus(3, 4), 40)
    assert calls == {"morton_degrees": 41}
    analyze(Named("8_19"), 20)
    assert calls == {"morton_degrees": 41, "_load_seq": 2}


def test_analyze_trefoil_spec():
    r = analyze(Torus(2, 3), 10)
    assert r.js == [3]
    assert r.js_star == [0]
    assert r.boundary_slopes == [0, 6]
    assert r.conjecture_verdict == "verified"


def test_analyze_pretzel_p7():
    r = analyze(Pretzel237(7), 20)
    assert r.period == 4
    assert r.js == [Fraction(37, 4)]
    assert r.js_star == [0]
    assert r.boundary_slopes == [0, 16, Fraction(37, 2), 20]
    assert r.conjecture_verdict == "verified"


def test_analyze_validates_a_pretzel_diagram_once(monkeypatch):
    # the generator validates the diagram once, and the state sum's frame
    # for colors 0, 1 and 2 reads it without validating it again; it is
    # the validated diagram of the public generator
    calls = []
    validate = knots.validate_pd

    def counted(pd):
        calls.append(pd)
        return validate(pd)
    for module in (knots, engine):
        monkeypatch.setattr(module, "validate_pd", counted)
    knots._pretzel237_pd.cache_clear()
    engine._frame.cache_clear()
    r = analyze(Pretzel237(11), 30)
    assert r.conjecture_verdict == "verified"
    assert calls == [Pretzel237(11).pd]
    monkeypatch.undo()
    assert calls[0] == knots.pretzel_pd([-2, 3, 11])


def test_analyze_negative_pretzels():
    for p in (-1, -3, -5, -7, -9):
        r = analyze(Pretzel237(p), 3 * abs(p) + 12)
        assert r.conjecture_verdict == "verified"
        assert r.js == [5]
        if p < -1:
            assert r.js_star == [Fraction((p + 1) ** 2, p)]


def test_analyze_torus_sweep():
    for a in range(2, 8):
        for b in range(a + 1, 8):
            if gcd(a, b) != 1:
                continue
            r = analyze(Torus(a, b), 14)
            assert r.conjecture_verdict == "verified"
            assert r.boundary_slopes == [0, a * b]
            assert (r.period == 2) == (a != 2)


def test_analyze_no_data():
    r = analyze(parse_knot("name:12a_669"), 12)
    assert r.conjecture_verdict == "no-data"
    assert r.boundary_slopes is None
    assert r.js == [7]
    assert r.js_star == [-5]
    assert any("no boundary-slope data" in note
               for note in r.evidence["notes"])


def test_analyze_refuted_with_custom_db():
    r = analyze(parse_knot("name:3_1"), 10, db={"3_1": [Fraction(0)]})
    assert r.conjecture_verdict == "refuted-in-window"
    assert any("missing from the boundary-slope set: 6" in note
               for note in r.evidence["notes"])


def test_analyze_infinite_slope_is_ignored():
    # the 8_17 row carries an infinite slope; the inclusion check only
    # ever doubles finite fitted slopes, so it must not trip on it
    r = analyze(parse_knot("name:8_17"), 12)
    assert r.conjecture_verdict == "verified"
    assert r.boundary_slopes[-1] is INFINITY
    assert r.js == [4]
    assert r.js_star == [-4]
    assert r.jones_diameter == 8


def test_report_render_and_dict():
    r = analyze(parse_knot("name:8_19"), 12)
    text = r.render()
    assert "knot: name:8_19" in text
    assert "verdict: verified" in text
    assert "boundary slopes: 0, 12" in text
    d = r.to_dict()
    json.dumps(d)
    assert d["js"] == ["6"]
    assert d["conjecture_verdict"] == "verified"
    assert d["evidence"]["delta"]["period"] == 2


def test_crossing_bounds_tight_on_8_17():
    r = analyze(AlternatingData(4, 4, 5, 5), 12)
    out = check_crossing_bounds(r, DiagramStats(4, 4, 5, 5))
    assert out["holds"]
    assert out["max_side"] == [(4, 4, True)]
    assert out["min_side"] == [(-4, -4, True)]
    assert out["diameter"] == (8, 8, True)


def test_crossing_bounds_violation_reported():
    r = analyze(AlternatingData(4, 4, 5, 5), 12)
    out = check_crossing_bounds(r, DiagramStats(3, 4, 5, 5))
    assert not out["holds"]
    assert out["max_side"] == [(4, 3, False)]


def test_crossing_bounds_8_19_pd():
    from knotslopes.knots import smoothing_counts
    stats = smoothing_counts(parse_knot("name:8_19").pd)
    r = analyze(parse_knot("name:8_19"), 12)
    out = check_crossing_bounds(r, stats)
    assert out["holds"]
    assert stats.c_plus == 8


def test_alternating_theorems_trefoil():
    data = AlternatingData(3, 0, 2, 3)
    out = check_alternating_theorems(data, analyze(data, 12))
    assert out["holds"]
    assert out["problems"] == []
    assert out["checkerboard_slopes"] == (6, 0)
    assert out["report"].period == 1
    assert out["report"].jones_diameter == 3


def test_alternating_theorems_mirror_data():
    data = AlternatingData(3, 0, 2, 3, mirror=True)
    out = check_alternating_theorems(data, analyze(data, 12))
    assert out["holds"]
    assert out["checkerboard_slopes"] == (0, -6)
    assert out["report"].js == [0]
    assert out["report"].js_star == [-3]


def test_alternating_theorems_fail_on_another_knots_report():
    # the trefoil's counts against the report of 8_19, the torus knot
    # T(3,4): every prediction fails, and js* only against the mirror
    report = analyze(Named("8_19"), 12)
    out = check_alternating_theorems(AlternatingData(3, 0, 2, 3), report)
    assert not out["holds"]
    assert out["problems"] == [
        "period 2 instead of 1",
        "js [Fraction(6, 1)] instead of {c+} = {3}",
        "degree sum/span identities fail at n=1",
        "checkerboard slopes (6, 0) do not match doubled fitted slopes "
        "(Fraction(12, 1), Fraction(0, 1))",
        "jones diameter 6 differs from crossing number 3"]
    out = check_alternating_theorems(
        AlternatingData(3, 0, 2, 3, mirror=True), report)
    assert out["problems"][1:3] == [
        "js [Fraction(6, 1)] instead of {c+} = {0}",
        "js* [Fraction(0, 1)] instead of {-c-} = {-3}"]
    assert out["report"] is report


def test_alternating_theorems_bundled():
    for c_plus, c_minus, a, b in ((4, 4, 5, 5), (7, 5, 10, 4),
                                  (15, 0, 4, 13)):
        data = AlternatingData(c_plus, c_minus, a, b)
        out = check_alternating_theorems(data, analyze(data, 12))
        assert out["holds"], out["problems"]
        assert out["report"].jones_diameter == c_plus + c_minus

