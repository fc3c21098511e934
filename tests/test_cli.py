"""Tests for the command line front end."""

import argparse
import io
import json
import os
import re
import subprocess
import sys

import pytest

from knotslopes import cli, engine, knots, quasifit, verify
from knotslopes.cli import main
from knotslopes.knots import (AlternatingData, Diagram, bundled_knot_table,
                              pretzel_pd, two_bridge_pd)


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
    # --max-n sets how many colors of a knot's degrees are fitted; a
    # sequence file is fitted whole, so the option would be ignored
    code, out, err = run(capsys, "fit", "--input", str(f), "--max-n", "3")
    assert (code, out) == (2, "")
    assert "pass either --input or --max-n, not both" in err
    # so would --kind, which chooses among a knot's degree lists; an
    # explicit --kind max is refused as well
    for kind in ("min", "max"):
        code, out, err = run(capsys, "fit", "--input", str(f), "--kind", kind)
        assert (code, out) == (2, "")
        assert "pass either --input or --kind, not both" in err
    # without --kind a knot's maximum degrees are fitted
    assert run(capsys, "fit", "torus:2,3", "--max-n", "10")[1] == \
        run(capsys, "fit", "torus:2,3", "--max-n", "10", "--kind", "max")[1]


@pytest.mark.parametrize("spec", [["name:3_1"], ["--knot", "torus:2,3"]],
                         ids=["positional", "option"])
def test_verify_all_rejects_a_knot_spec(capsys, spec):
    code, out, err = run(capsys, "verify", "--all", *spec)
    assert code == 2
    assert out == ""
    assert "pass either --all or a knot spec, not both" in err


def test_fit_rejects_bad_window_bounds(capsys):
    code, _, err = run(capsys, "fit", "torus:2,3", "--max-period", "0")
    assert code == 2
    assert "max_period must be at least 1, got 0" in err
    code, _, err = run(capsys, "fit", "torus:2,3", "--max-transient", "-1")
    assert code == 2
    assert "max_transient must be nonnegative, got -1" in err


def test_fit_scan_is_bounded_by_the_samples():
    # the candidates are bounded by the 21 samples, not by the options
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    seq = os.path.join(src, "knotslopes", "data", "sequences", "8_19.max.seq")
    env = dict(os.environ, PYTHONPATH=src)
    outs = []
    for bounds in ([], ["--max-period", "1000000000000",
                        "--max-transient", "1000000000000"]):
        proc = subprocess.run(
            [sys.executable, "-m", "knotslopes.cli", "fit", "--input", seq,
             *bounds], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "period: 2" in outs[0]


def test_fit_constant_zero_file(tmp_path, capsys):
    f = tmp_path / "z.seq"
    f.write_text("0\n" * 8)
    code, out, _ = run(capsys, "fit", "--input", str(f))
    assert code == 0
    assert "period: 1" in out
    assert "n = 0 mod 1: 0" in out


def test_fit_refused_on_integrality(tmp_path, capsys):
    # n^2/3 is exactly quadratic; the refusal is the integrality check's
    f = tmp_path / "third.seq"
    f.write_text("".join("%d/3\n" % (n * n) for n in range(9)))
    code, out, err = run(capsys, "fit", "--input", str(f))
    assert code == 2
    assert out == ""
    assert err == "error: slope 2/3 times period^2 = 2/3 is not an integer\n"


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


@pytest.mark.parametrize("argv, token", [
    (("slopes", "pretzel:-2,3,1_9"), "1_9"),
    (("compute", "torus:2,\u0663"), "\u0663"),
    (("compute", "pd:[(1,2,3,4),(2,5,6,3),(5,1,4,\u0666)]"), "\u0666"),
    (("compute", "torus:2,3", "--n", "\u0661"), "\u0661"),
    (("degrees", "torus:2,3", "--max-n", "0_3"), "0_3"),
    (("fit", "torus:2,3", "--max-period", "1_6"), "1_6"),
    (("fit", "torus:2,3", "--max-transient", "\u0663"), "\u0663"),
    (("compute", "torus:2,3", "--limit-mb", "5_0"), "5_0")],
    ids=["spec-underscore", "spec-digit", "pd-label", "n", "max-n",
         "max-period", "max-transient", "limit-mb"])
def test_integers_are_ascii_digits(capsys, argv, token):
    # int() reads underscores and non-ASCII digits; the CLI refuses them
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses an option value
        code = exc.code
    assert code == 2
    assert token in capsys.readouterr().err


@pytest.mark.parametrize("body, fault", [
    ("(1,2,3,4)(2,5,6,3),(5,1,4,6)", "(2,5,6,3),(5,1,4,6)"),
    ("(1,2,3,4),,,(2,5,6,3),(5,1,4,6)", ",,(2,5,6,3),(5,1,4,6)"),
    ("(1,2,3,4) (2,5,6,3) (5,1,4,6)", " (2,5,6,3) (5,1,4,6)"),
    ("(1,2,3,4),(2,5,6,3),(5,1,4,6),", ",")],
    ids=["no-comma", "three-commas", "spaces-only", "trailing-comma"])
def test_pd_tuples_need_one_comma_between_them(capsys, body, fault):
    code, out, err = run(capsys, "compute", "pd:[%s]" % body)
    assert (code, out) == (2, "")
    assert repr(fault) in err
    # spaces around the one comma are allowed
    assert run(capsys, "compute", "pd:[(1,2,3,4) , (2,5,6,3),(5,1,4,6)]") \
        == (0, "q + q^3 - q^4\n", "")


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


# runs the command line in a fresh interpreter and reports its peak
# resident set (VmHWM) after the package import and after the command
HWM_PROBE = """
import sys
from knotslopes.cli import main

def hwm():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f
                    if line.startswith("VmHWM:"))
floor = hwm()
code = main(sys.argv[1:])
sys.stderr.write("VmHWM %d %d\\n" % (floor, hwm()))
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from /proc/self/status")
@pytest.mark.parametrize("limit_mb, exit_code", [(4, 3), (64, 0)])
def test_limit_bounds_the_resident_set(limit_mb, exit_code):
    # 9_49's vertex state sum at color 4 peaks at 8,881,976 stored bytes
    # in about 0.2 s, so a 4 MiB budget must stop it and a 64 MiB one
    # must not; either way the process stays under the budget above its
    # state after the import
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", HWM_PROBE, "compute", "name:9_49", "--n", "4",
         "--limit-mb", str(limit_mb)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    floor, peak = map(int, proc.stderr.rsplit("VmHWM", 1)[1].split())
    assert peak - floor < limit_mb << 10


def test_limit_holds_for_cached_bracket(capsys):
    # the command line's evaluator caches a diagram's frame but no
    # polynomial, so a color it has computed is still refused under a
    # budget that its state sum exceeds
    code, _, _ = run(capsys, "compute", "name:8_19", "--n", "2")
    assert code == 0
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
    monkeypatch.setattr(engine, "_frontier", no_state_sum)
    for cmd in ("degrees", "fit", "slopes", "report"):
        code, out, err = run(capsys, cmd, pd)
        assert code == 3
        assert out == ""
        assert "--max-n" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "degrees", pd, "--max-n", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["0", "8", "23"]


def test_adequate_nonalternating_diagram_has_default_colors(capsys,
                                                           monkeypatch):
    # an 11-crossing diagram adequate on both sides: both degree lists
    # are closed forms at the default depth, and no state sum runs
    pd = Diagram(pretzel_pd([2, 3, -3, -3]))
    assert not knots.is_alternating(pd.pd)

    def no_state_sum(*args):
        raise AssertionError("a state sum ran")
    monkeypatch.setattr(engine, "_frontier", no_state_sum)
    code, out, err = run(capsys, "degrees", pd.render())
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith("colors 0..20")


def test_inadequate_alternating_diagram_needs_max_n(capsys):
    pd = Diagram(two_bridge_pd([1, 2]))
    assert knots.is_alternating(pd.pd)
    code, out, err = run(capsys, "degrees", pd.render())
    assert (code, out) == (3, "")
    assert "a diagram that is not adequate on both sides" in err
    assert "pass --max-n" in err


def test_write_error_exits_with_usage_code(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["compute", "torus:2,3"])
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


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
    code, out, _ = run(capsys, "report", spec)
    assert code == 0
    assert "alternating checks: hold" in out
    assert knots._classify.cache_info().misses == 1


def test_report_prints_failed_alternating_checks(capsys, monkeypatch):
    def failed(alt_data, report):
        return {"holds": False, "problems": ["first problem", "second one"],
                "checkerboard_slopes": (6, 0)}
    monkeypatch.setattr(verify, "check_alternating_theorems", failed)
    code, out, _ = run(capsys, "report", "name:3_1")
    assert code == 1
    assert out.endswith("alternating checks: FAILED\n  first problem\n"
                        "  second one\n  checkerboard slopes: 6, 0\n")


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
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b"1e3", "unparseable value '1e3'"),
    (b"1.5", "unparseable value '1.5'")],
    ids=["1/0", "abc", "0xff", "1e3", "1.5"])
def test_unparseable_sequence_value(capsys, tmp_path, value, message):
    path = tmp_path / "bad.seq"
    path.write_bytes(b"# header\n1\n" + value + b"\n")
    code, _, err = run(capsys, "fit", "--input", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "%s:3: %s" % (path, message) in err


@pytest.mark.parametrize("row, token", [
    ("3_1\tabc", "abc"), ("3_1\t0,1e3", "1e3"), ("3_1\t0,", "")],
    ids=["abc", "1e3", "empty"])
def test_unparseable_slope_names_file_and_line(capsys, tmp_path, row, token):
    path = tmp_path / "slopes.tsv"
    path.write_text("# header\n8_19\t0,12\n%s\n" % row)
    code, out, err = run(capsys, "verify", "name:3_1", "--slope-db",
                         str(path))
    assert code == 2
    assert out == ""
    assert err == "error: %s:3: unparseable slope %r\n" % (path, token)


# every action of every subcommand, in parser order: option strings, dest,
# default, choices, nargs and the name of the type function
_INT = "_integer_option"
_HEAD = [(["-h", "--help"], "help", argparse.SUPPRESS, None, 0, None),
         ([], "knot_pos", None, None, "?", None),
         (["--knot"], "knot", None, None, None, None)]
_MAX_N = [(["--max-n"], "max_n", None, None, None, _INT)]
# --kind defaults to None, which the handlers read as max, so that
# `fit --input` can refuse an explicit --kind
_KIND = [(["--kind"], "kind", None, ["max", "min", "span", "sum"], None,
          None)]
_WINDOW = [(["--max-period"], "max_period", 16, None, None, _INT),
           (["--max-transient"], "max_transient", 8, None, None, _INT)]
_SLOPE_DB = [(["--slope-db"], "slope_db", None, None, None, None)]
_TAIL = [(["--json"], "json", False, None, 0, None),
         (["--limit-mb"], "limit_mb", None, None, None, _INT)]
PARSER = {
    "compute": _HEAD + [(["--n"], "n", 1, None, None, _INT)] + _TAIL,
    "degrees": _HEAD + _MAX_N + _KIND + _TAIL,
    "fit": (_HEAD + [(["--input"], "input", None, None, None, None)]
            + _MAX_N + _KIND + _WINDOW + _TAIL),
    "slopes": _HEAD + _MAX_N + _WINDOW + _TAIL,
    "verify": (_HEAD + [(["--all"], "all", False, None, 0, None)]
               + _SLOPE_DB + _MAX_N + _WINDOW + _TAIL),
    "report": _HEAD + _SLOPE_DB + _MAX_N + _WINDOW + _TAIL,
}


def test_parser_options_are_pinned():
    ap = cli._build_parser()
    assert [(a.option_strings, a.dest, a.required) for a in ap._actions] \
        == [(["-h", "--help"], "help", False), ([], "command", True)]
    subs = ap._actions[1].choices
    got = {name: [(a.option_strings, a.dest, a.default, a.choices, a.nargs,
                   getattr(a.type, "__name__", None)) for a in p._actions]
           for name, p in subs.items()}
    assert list(got) == list(PARSER)
    assert got == PARSER
