"""The three workloads: inputs made from a seed, the calls into the
package's public API, and the checks of every result.

A workload is a list of operations.  Each operation is one call plus a
check of its outcome, which yields one or more verdicts:

- ``ok``: the answer matches the known answer, or the call refused
  input that must be refused;
- ``wrong``: the call completed but disagrees with the known answer;
- ``known-defect``: a wrong answer of the one documented fitter defect,
  a model whose validation margin is zero (some residue class holds
  only the three samples it was interpolated through, so no sample
  checks it);
- ``failed``: the call raised where it should have answered, or
  returned an unexpected exit code.
"""

import collections
import contextlib
import io
import json
from fractions import Fraction

import answers


# One call and the check of its outcome.  ``check(value, error)`` gets
# the call's return value, or the exception it raised, and returns a
# list of (verdict, note) pairs.
Op = collections.namedtuple("Op", "call check")


def build(name, rng, ks):
    """The operations of a workload.  ``ks`` is the imported package;
    calls look its functions up when they run, so a traced run sees
    them wrapped."""
    return _BUILDERS[name](rng, ks)


def _ok():
    return [("ok", None)]


def _raised(label, error):
    return [("failed", "%s raised %s: %s"
             % (label, type(error).__name__, error))]


# ---------------------------------------------------------------------------
# jones-c3: full colored Jones polynomials of 8_19 by the cabled bracket


def _terms(poly):
    """Nonzero coefficients by integer exponent, or None when some
    exponent is not an integer power of q."""
    lo, hi = poly.mindeg(), poly.deg()
    if lo.denominator != 1 or hi.denominator != 1:
        return None
    out = {}
    for e in range(int(lo), int(hi) + 1):
        c = poly.coefficient(e)
        if c:
            out[e] = c
    return out


def _check_t34(n):
    lo, coeffs = answers.T34_JONES[n]
    want = {lo + i: c for i, c in enumerate(coeffs) if c}
    mirrored = {-e: c for e, c in want.items()}
    label = "8_19 color %d" % n

    def check(value, error):
        if error is not None:
            return _raised(label, error)
        got = _terms(value)
        if got == want or got == mirrored:
            return _ok()
        return [("wrong", "%s: %s differs from Morton's T(3,4) polynomial"
                 % (label, value))]
    return check


def _jones_c3(rng, ks):
    pd = ks.knots.bundled_knot_table()["8_19"]
    colors = [1, 2, 3]
    rng.shuffle(colors)
    return [Op(lambda n=n: ks.bracket_colored_jones(pd, n), _check_t34(n))
            for n in colors]


# ---------------------------------------------------------------------------
# pretzel-family: analyze on (-2,3,p), odd p from -15 to 19


def _check_report(label, want, verdict):
    """Check a SlopeReport against (period, js, js*) and a verdict."""
    def check(value, error):
        if error is not None:
            return _raised(label, error)
        got = (value.period, list(value.js), list(value.js_star))
        problems = []
        if got != want:
            problems.append("(period, js, js*) = %s, expected %s"
                            % (_show(got), _show(want)))
        if value.conjecture_verdict != verdict:
            problems.append("verdict %s, expected %s"
                            % (value.conjecture_verdict, verdict))
        if problems:
            return [("wrong", "%s: %s" % (label, "; ".join(problems)))]
        return _ok()
    return check


def _show(triple):
    period, js, js_star = triple
    return "(%s, [%s], [%s])" % (period, ", ".join(map(str, js)),
                                 ", ".join(map(str, js_star)))


def _pretzel_family(rng, ks):
    ops = []
    ps = list(range(-15, 20, 2))
    rng.shuffle(ps)
    for p in ps:
        mirror = rng.random() < 0.5
        spec = ks.knots.Pretzel237(p, mirror=mirror)
        want = answers.pretzel_answer(p)
        if mirror:
            want = answers.mirror_answer(want)
        colors = answers.pretzel_colors(p)
        ops.append(Op(lambda spec=spec, n=colors: ks.analyze(spec, n),
                      _check_report(spec.render(), want, "verified")))
    return ops


# ---------------------------------------------------------------------------
# table-and-fit: verify --all, torus knots to color 40, synthetic fits

TORUS_KNOTS = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (4, 5)]
TORUS_COLORS = 40
NOISE_SEQUENCES = 20
NOISE_LENGTH = 21


def _verify_all(ks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ks.cli.main(["verify", "--all", "--json"])
    return code, out.getvalue()


def _check_verify_all(value, error):
    names = sorted(answers.BUNDLED_VERDICTS)
    if error is not None:
        return _raised("verify --all", error) * len(names)
    code, text = value
    if code != 0:
        return [("failed", "verify --all exited with %s" % code)] * len(names)
    got = {doc["knot"]: doc["conjecture_verdict"]
           for doc in json.loads(text)}
    verdicts = []
    for name in names:
        have = got.get("name:" + name)
        want = answers.BUNDLED_VERDICTS[name]
        if have == want:
            verdicts.append(("ok", None))
        else:
            verdicts.append(("wrong", "verify --all: %s is %s, expected %s"
                             % (name, have, want)))
    return verdicts


def _margin(quasi, length):
    """Samples beyond the three interpolation points in the thinnest
    residue class of a fitted model."""
    t, p = quasi.transient, quasi.period
    return min(sum(1 for n in range(t, length) if n % p == r)
               for r in range(p)) - 3


def _synthetic(rng, period, transient):
    """A quadratic quasi-polynomial with random rational coefficients per
    residue class, preceded by ``transient`` random integers.  Returns
    the generator and its first transient + 4 period + 3 terms."""
    classes = [(Fraction(rng.randint(-6 * period, 6 * period), period),
                Fraction(rng.randint(-6, 6), 2),
                Fraction(rng.randint(-8, 8), 4))
               for _ in range(period)]
    head = [rng.randint(-50, 50) for _ in range(transient)]

    def term(n):
        if n < transient:
            return head[n]
        c2, c1, c0 = classes[n % period]
        return c2 * n * n + c1 * n + c0
    length = transient + 4 * period + 3
    return term, [term(n) for n in range(length)]


def _check_synthetic(label, term, length, period):
    """The fit must reproduce the generator on the next 2p terms."""
    def check(value, error):
        if error is not None:
            return _raised(label, error)
        ahead = range(length, length + 2 * period)
        if all(value.evaluate(n) == term(n) for n in ahead):
            return _ok()
        kind = "known-defect" if _margin(value, length) == 0 else "wrong"
        return [(kind, "%s: fitted period %d transient %d, margin %d, "
                 "misses the next %d terms"
                 % (label, value.period, value.transient,
                    _margin(value, length), 2 * period))]
    return check


def _check_noise(label, length):
    """Noise is no quasi-polynomial: the fit must refuse it."""
    def check(value, error):
        if isinstance(error, ValueError):
            return _ok()
        if error is not None:
            return _raised(label, error)
        kind = "known-defect" if _margin(value, length) == 0 else "wrong"
        return [(kind, "%s: accepted as period %d transient %d, margin %d"
                 % (label, value.period, value.transient,
                    _margin(value, length)))]
    return check


def _table_and_fit(rng, ks):
    ops = [Op(lambda: _verify_all(ks), _check_verify_all)]
    for a, b in TORUS_KNOTS:
        mirror = rng.random() < 0.5
        spec = ks.knots.Torus(a, -b if mirror else b)
        want = answers.torus_answer(a, b)
        if mirror:
            want = answers.mirror_answer(want)
        ops.append(Op(lambda spec=spec: ks.analyze(spec, TORUS_COLORS),
                      _check_report(spec.render(), want, "verified")))
    fits = []
    for period in range(1, 13):
        for transient in range(5):
            term, seq = _synthetic(rng, period, transient)
            label = "synthetic p=%d t=%d" % (period, transient)
            fits.append(Op(lambda seq=seq: ks.fit(seq),
                           _check_synthetic(label, term, len(seq), period)))
    for i in range(NOISE_SEQUENCES):
        seq = [rng.randint(-50, 50) for _ in range(NOISE_LENGTH)]
        label = "noise #%d" % i
        fits.append(Op(lambda seq=seq: ks.fit(seq),
                       _check_noise(label, len(seq))))
    rng.shuffle(fits)
    return ops + fits


_BUILDERS = {"jones-c3": _jones_c3, "pretzel-family": _pretzel_family,
             "table-and-fit": _table_and_fit}
NAMES = tuple(_BUILDERS)
