"""Tests for the command line front end."""

import json
import re

import pytest

from knotslopes import engine, knots, quasifit
from knotslopes.cli import main
from knotslopes.knots import AlternatingData, Diagram, bundled_knot_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_trefoil(capsys):
    code, out, _ = run(capsys, "compute", "torus:2,3", "--n", "1")
    assert code == 0
    assert out == "q + q^3 - q^4\n"


def test_compute_color_zero(capsys):
    code, out, _ = run(capsys, "compute", "torus:3,4", "--n", "0")
    assert code == 0
    assert out == "1\n"


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--knot", "torus:2,3", "--n", "2",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["knot"] == "torus:2,3"
    assert doc["n"] == 2
    assert doc["polynomial"].startswith("q^2 + ")


def test_conflicting_knot_specs(capsys):
    code, _, err = run(capsys, "compute", "torus:2,3", "--knot", "torus:2,5")
    assert code == 2
    assert "conflicting knot specs" in err


def test_missing_knot_spec(capsys):
    code, _, err = run(capsys, "degrees")
    assert code == 2
    assert "no knot given" in err


def test_unknown_name(capsys):
    code, _, err = run(capsys, "compute", "name:99_999")
    assert code == 2
    assert "unknown knot name" in err


def test_alt_data_has_no_polynomial(capsys):
    code, _, err = run(capsys, "compute", "alt:3,0,2,3")
    assert code == 2
    assert "degrees" in err


def test_degrees_output(capsys):
    code, out, _ = run(capsys, "degrees", "name:8_19", "--max-n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# max degrees of name:8_19, colors 0..5"
    assert lines[1:] == ["0", "8", "23", "43", "70", "102"]


def test_degrees_pipe_into_fit(tmp_path, capsys):
    code, out, _ = run(capsys, "degrees", "name:8_19", "--max-n", "12")
    assert code == 0
    seq_file = tmp_path / "d.seq"
    seq_file.write_text(out)
    code, out, _ = run(capsys, "fit", "--input", str(seq_file))
    assert code == 0
    assert "period: 2" in out
    assert "slopes: 6" in out


def test_fit_from_knot(capsys):
    code, out, _ = run(capsys, "fit", "name:9_43", "--kind", "max")
    assert code == 0
    assert "period: 3" in out
    assert "slopes: 16/3" in out
    assert "generating function:" in out


def test_fit_rejects_input_plus_knot(tmp_path, capsys):
    f = tmp_path / "x.seq"
    f.write_text("0\n1\n4\n9\n16\n25\n36\n")
    code, _, err = run(capsys, "fit", "torus:2,3", "--input", str(f))
    assert code == 2
    assert "not both" in err


def test_fit_rejects_bad_window_bounds(capsys):
    code, _, err = run(capsys, "fit", "torus:2,3", "--max-period", "0")
    assert code == 2
    assert "max_period must be at least 1, got 0" in err
    code, _, err = run(capsys, "fit", "torus:2,3", "--max-transient", "-1")
    assert code == 2
    assert "max_transient must be nonnegative, got -1" in err


def test_fit_constant_zero_file(tmp_path, capsys):
    f = tmp_path / "z.seq"
    f.write_text("0\n" * 8)
    code, out, _ = run(capsys, "fit", "--input", str(f))
    assert code == 0
    assert "period: 1" in out
    assert "n = 0 mod 1: 0" in out


def test_slopes_trefoil(capsys):
    code, out, _ = run(capsys, "slopes", "torus:2,3")
    assert code == 0
    assert "period: 1" in out
    assert "js: 3" in out
    assert "js*: 0" in out
    assert "jones diameter: 3" in out


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "name:9_47")
    assert code == 0
    assert "verdict: verified" in out
    assert "jones slopes, max degree: 9/2" in out


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "15 verified, 0 refuted-in-window, 1 no-data"
    row = re.compile(r"^\S+: (verified|no-data) "
                     r"\(period \d+, js [^)]*, js\* [^)]*\)$")
    for line in lines[:-1]:
        assert row.match(line), line
    assert "8_19: verified (period 2, js 6, js* 0)" in lines


def test_verify_refuted_exit_code(tmp_path, capsys):
    db = tmp_path / "slopes.tsv"
    db.write_text("3_1\t0\n")
    code, out, _ = run(capsys, "verify", "name:3_1", "--slope-db", str(db))
    assert code == 1
    assert "verdict: refuted-in-window" in out


def test_verify_all_json_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--all", "--json")
    assert code == 0
    code, second, _ = run(capsys, "verify", "--all", "--json")
    assert code == 0
    assert first == second
    docs = json.loads(first)
    assert len(docs) == 16
    assert all(d["knot"].startswith("name:") for d in docs)


def test_slopes_json_deterministic(capsys):
    runs = [run(capsys, "slopes", "name:8_20", "--json")[1]
            for _ in range(2)]
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert doc["js"] == ["4/3"]
    assert doc["period"] == 3


def test_limit_exit_code(capsys):
    code, _, err = run(capsys, "compute", "name:8_19", "--n", "2",
                       "--limit-mb", "0")
    assert code == 3
    assert "memory budget" in err


@pytest.mark.parametrize("argv", [
    ("degrees", "name:8_19", "--max-n", "3", "--limit-mb", "-1"),
    ("compute", "name:3_1", "--n", "1", "--limit-mb", "-5")],
    ids=["degrees", "compute"])
def test_negative_limit_is_refused_before_any_work(capsys, monkeypatch,
                                                  argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the knot spec was parsed")
    monkeypatch.setattr("knotslopes.cli.parse_knot", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--limit-mb must be nonnegative" in err


def test_limit_holds_for_cached_bracket(capsys):
    code, _, _ = run(capsys, "compute", "name:8_19", "--n", "2")
    assert code == 0
    assert (bundled_knot_table()["8_19"], 2) in engine._BRACKET_CACHE
    code, _, err = run(capsys, "compute", "name:8_19", "--n", "2",
                       "--limit-mb", "0")
    assert code == 3
    assert "memory budget" in err


def test_limit_holds_for_cached_pretzel_seeds(capsys):
    argv = ("degrees", "pretzel:-2,3,7", "--max-n", "3")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    code, _, err = run(capsys, *argv, "--limit-mb", "0")
    assert code == 3
    assert "memory budget" in err


def test_nonalternating_diagram_needs_max_n(capsys, monkeypatch):
    pd = Diagram(bundled_knot_table()["8_19"]).render()

    def no_state_sum(*args):
        raise AssertionError("a state sum ran")
    monkeypatch.setattr(engine, "_bracket_raw", no_state_sum)
    for cmd in ("degrees", "fit", "slopes", "report"):
        code, out, err = run(capsys, cmd, pd)
        assert code == 3
        assert out == ""
        assert "--max-n" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "degrees", pd, "--max-n", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["0", "8", "23"]


def test_report_trefoil(capsys):
    code, out, _ = run(capsys, "report", "name:3_1")
    assert code == 0
    assert "crossing bounds: hold" in out
    assert "alternating checks: hold" in out
    assert "checkerboard slopes: 6, 0" in out


def test_report_fits_once_with_the_users_window(capsys, monkeypatch):
    # the alternating checks reuse the report's fits instead of fitting
    # again with the default window
    windows = []
    fit = quasifit.fit

    def counted(seq, max_period=16, max_transient=8, **kw):
        windows.append((max_period, max_transient))
        return fit(seq, max_period=max_period, max_transient=max_transient,
                   **kw)
    monkeypatch.setattr(quasifit, "fit", counted)
    code, out, _ = run(capsys, "report", "name:3_1", "--max-period", "4",
                       "--max-transient", "2")
    assert code == 0
    assert "alternating checks: hold" in out
    assert windows == [(4, 2), (4, 2)]


@pytest.mark.parametrize("spec", ["alt:3,0,2,3", "name:3_1"])
def test_report_computes_alternating_degrees_once(capsys, monkeypatch, spec):
    # the alternating checks read the degree lists the report fitted
    calls = []
    degrees = knots._Spec.degrees

    def counted(self, n_max, limit_mb=None):
        calls.append(n_max)
        return degrees(self, n_max, limit_mb)
    monkeypatch.setattr(knots._Spec, "degrees", counted)
    code, out, _ = run(capsys, "report", spec)
    assert code == 0
    assert "alternating checks: hold" in out
    assert calls == [20]


@pytest.mark.parametrize("spec", [
    "name:3_1", "pd:[(1,2,3,4),(2,5,6,3),(5,1,4,6)]"])
def test_report_classifies_the_diagram_once(capsys, monkeypatch, spec):
    # default colors, degrees, diagram counts and the alternating checks
    # all read the diagram's classification; one report computes it once
    knots._classify.cache_clear()
    calls = []
    is_alternating = knots.is_alternating

    def counted(pd):
        calls.append(pd)
        return is_alternating(pd)
    monkeypatch.setattr(knots, "is_alternating", counted)
    code, out, _ = run(capsys, "report", spec)
    assert code == 0
    assert "alternating checks: hold" in out
    assert len(calls) == 1


def test_report_refuted_exit(tmp_path, capsys):
    db = tmp_path / "slopes.tsv"
    db.write_text("8_19\t0,4\n")
    code, out, _ = run(capsys, "report", "name:8_19", "--slope-db", str(db))
    assert code == 1
    assert "verdict: refuted-in-window" in out


def test_bad_sequence_file(capsys):
    code, _, err = run(capsys, "fit", "--input", "/nonexistent/file.seq")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("value, message", [
    (b"1/0", "unparseable value '1/0'"),
    (b"abc", "unparseable value 'abc'"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0")],
    ids=["1/0", "abc", "0xff"])
def test_unparseable_sequence_value(capsys, tmp_path, value, message):
    path = tmp_path / "bad.seq"
    path.write_bytes(b"# header\n1\n" + value + b"\n")
    code, _, err = run(capsys, "fit", "--input", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "%s:3: %s" % (path, message) in err
