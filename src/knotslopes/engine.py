"""Exact colored Jones polynomials.

Two independent evaluators live here.  ``morton_colored_jones`` computes
torus knots through the closed-form state sum; ``bracket_colored_jones``
works on any planar diagram by cabling it, expanding the Kauffman
bracket of the cables with a frontier dynamic program, and normalizing.
Both return Laurent polynomials in q, indexed so that color 0 is the
unknot normalization (constant 1) and color 1 is the Jones polynomial.

Brackets are computed in the variable A with q = A**-4.  The bracket
convention here assigns every closed circle a factor -A**2 - A**-2,
including the last one; the empty diagram has bracket 1.
"""

from fractions import Fraction
from math import comb, gcd

from .laurent import LaurentPoly
from .knots import (Torus, Pretzel237, AlternatingData, Diagram, Named,
                    validate_pd, smoothing_counts, is_alternating)
import os

__all__ = [
    "morton_colored_jones", "bracket_colored_jones", "connected_sum",
    "degree_sequence", "EngineLimitError",
]


class EngineLimitError(RuntimeError):
    """Raised when a bracket computation exceeds its memory budget."""


# ---------------------------------------------------------------------------
# shared exact division


def _div_binomial(f, a, b):
    """Exact division of a sparse integer-keyed dict by x**a - x**b, a > b.

    Works from the lowest exponent up; raises ValueError when the
    division leaves a remainder.
    """
    if a <= b:
        raise ValueError("divisor exponents must satisfy a > b")
    if not f:
        return {}
    top = max(f)
    bound = top - a
    work = dict(f)
    quot = {}
    while work:
        k = min(work)
        c = work.pop(k)
        if c == 0:
            continue
        if k - b > bound:
            raise ValueError("polynomial is not divisible by the binomial")
        quot[k - b] = quot.get(k - b, 0) - c
        nk = k - b + a
        nc = work.get(nk, 0) + c
        if nc:
            work[nk] = nc
        else:
            work.pop(nk, None)
    return {k: v for k, v in quot.items() if v}


# ---------------------------------------------------------------------------
# torus knots: closed-form state sum


def morton_colored_jones(a, b, n):
    """Colored Jones polynomial of the (a,b) torus knot at color n.

    A negative b gives the mirror image.  The result is an honest
    Laurent polynomial in q; the half-integer powers that appear along
    the way always cancel.
    """
    if n < 0:
        raise ValueError("color must be nonnegative")
    if gcd(a, abs(b)) != 1:
        raise ValueError("torus parameters must be coprime")
    if a < 2 or abs(b) < 2:
        raise ValueError("torus parameters must be at least 2 in magnitude")
    if b < 0:
        return morton_colored_jones(a, -b, n).mirror()
    if n == 0:
        return LaurentPoly.one()

    # numerator sum over K = 2k, K = -n, -n+2, ..., n; exponents are
    # kept as quarter-integers (dict key = 4 * exponent)
    num = {}
    ab = a * b
    for bigk in range(-n, n + 1, 2):
        e1 = -ab * bigk * bigk + 2 * (a - b) * bigk + 2
        e2 = -ab * bigk * bigk + 2 * (a + b) * bigk - 2
        num[e1] = num.get(e1, 0) + 1
        num[e2] = num.get(e2, 0) - 1
    num = {k: v for k, v in num.items() if v}

    # divide by q**((n+1)/2) - q**(-(n+1)/2): shift, then divide by
    # x**(4(n+1)) - 1 in the quarter-exponent variable x
    shifted = {k + 2 * (n + 1): v for k, v in num.items()}
    quot = _div_binomial(shifted, 4 * (n + 1), 0)

    # multiply by the framing prefactor q**(ab n(n+2)/4)
    pre = ab * n * (n + 2)
    return LaurentPoly.from_quarter_keys({k + pre: v for k, v in quot.items()})


# ---------------------------------------------------------------------------
# dense bracket arithmetic on sparse A-polynomials (plain dicts)


def _pmul(f, g):
    out = {}
    if len(f) > len(g):
        f, g = g, f
    for kf, cf in f.items():
        for kg, cg in g.items():
            k = kf + kg
            c = out.get(k, 0) + cf * cg
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return out

_DELTA = {2: -1, -2: -1}
_DELTA_POWS = [{0: 1}, dict(_DELTA)]


def _delta_pow(k):
    while len(_DELTA_POWS) <= k:
        _DELTA_POWS.append(_pmul(_DELTA_POWS[-1], _DELTA))
    return _DELTA_POWS[k]


# ---------------------------------------------------------------------------
# cabling: replace each crossing by an m x m grid of small crossings


def _cable(pd, m):
    """The m-parallel of a diagram, as a raw list of crossings over
    hashable sub-arc tokens, plus a count of crossing-free circles."""
    if m == 0:
        return [], 0
    if not pd:
        return [], m
    first = {}
    for ci, cr in enumerate(pd):
        for slot, arc in enumerate(cr):
            if arc not in first:
                first[arc] = (ci, slot)

    def port(ci, slot, p):
        # sub-arc token for CCW port p of this crossing side
        arc = pd[ci][slot]
        if first[arc] == (ci, slot):
            return ("a", arc, p)
        return ("a", arc, m - 1 - p)

    crossings = []
    for ci, cr in enumerate(pd):
        for i in range(m):          # column, west to east
            for j in range(m):      # row, south to north
                s = port(ci, 0, i) if j == 0 else ("v", ci, i, j)
                n_ = port(ci, 2, m - 1 - i) if j == m - 1 else ("v", ci, i, j + 1)
                w = port(ci, 3, m - 1 - j) if i == 0 else ("h", ci, i, j)
                e = port(ci, 1, j) if i == m - 1 else ("h", ci, i + 1, j)
                crossings.append((s, e, n_, w))
    return crossings, 0


# ---------------------------------------------------------------------------
# frontier dynamic program for the bracket


def _pick_order(crossings):
    """Greedy elimination order: prefer crossings sharing the most arcs
    with the ones already processed, to keep the frontier narrow."""
    remaining = set(range(len(crossings)))
    arc_uses = {}
    for idx, cr in enumerate(crossings):
        for a in cr:
            arc_uses.setdefault(a, []).append(idx)
    order = []
    open_arcs = set()
    while remaining:
        best = None
        best_key = None
        for idx in remaining:
            shared = sum(1 for a in crossings[idx] if a in open_arcs)
            key = (-shared, idx)
            if best_key is None or key < best_key:
                best_key = key
                best = idx
        order.append(best)
        remaining.discard(best)
        for a in crossings[best]:
            if a in open_arcs:
                open_arcs.discard(a)
            else:
                open_arcs.add(a)
    return order


def _apply_smoothing(matching, arcs, pairing, slot_arc_count):
    """Merge one smoothing of a crossing into a frontier matching.

    matching: dict open-arc -> partner (symmetric).
    arcs: the 4 slot arcs.  pairing: two slot-index pairs.
    Returns (new pairs of open arcs, consumed open arcs, closed circles).

    Builds the local strand graph on the four slots: the smoothing
    contributes two edges, and each slot connects outward through its
    arc, which either dangles toward an unprocessed crossing, returns
    to another slot (self-arc, or a frontier path whose far end is
    also incident here), or ends at some other open arc.
    """
    nbr = {s: [] for s in range(4)}
    for x, y in pairing:
        nbr[x].append(y)
        nbr[y].append(x)
    added = set()

    def link(s, t):
        key = (min(s, t), max(s, t))
        if key not in added:
            added.add(key)
            nbr[s].append(t)
            nbr[t].append(s)

    for s in range(4):
        a = arcs[s]
        if slot_arc_count[a] == 2:
            other = next(t for t in range(4) if t != s and arcs[t] == a)
            link(s, other)
        elif a in matching:
            p = matching[a]
            if slot_arc_count.get(p, 0) == 1:
                link(s, arcs.index(p))
            else:
                tok = ("out", p)
                nbr[s].append(tok)
                nbr.setdefault(tok, []).append(s)
        else:
            tok = ("out", a)
            nbr[s].append(tok)
            nbr.setdefault(tok, []).append(s)

    circles = 0
    new_pairs = []
    seen = set()
    for start in range(4):
        if start in seen:
            continue
        seen.add(start)
        frontier_ends = []
        stack = [start]
        while stack:
            node = stack.pop()
            for nb in nbr[node]:
                if isinstance(nb, int):
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
                else:
                    frontier_ends.append(nb[1])
        if not frontier_ends:
            circles += 1
        elif len(frontier_ends) == 2:
            new_pairs.append((frontier_ends[0], frontier_ends[1]))
        else:
            raise AssertionError("path with %d ends" % len(frontier_ends))
    consumed = [a for a in set(arcs) if a in matching]
    return new_pairs, consumed, circles


_A_PAIRING = ((0, 1), (2, 3))
_B_PAIRING = ((1, 2), (3, 0))


def _bracket_raw(crossings, free_circles, entry_limit):
    """Kauffman bracket of a raw crossing list as an A-polynomial dict."""
    result_scale = _delta_pow(free_circles)
    if not crossings:
        return result_scale
    order = _pick_order(crossings)
    dp = {(): {0: 1}}
    for idx in order:
        arcs = crossings[idx]
        slot_arc_count = {}
        for a in arcs:
            slot_arc_count[a] = slot_arc_count.get(a, 0) + 1
        ndp = {}
        for mt, poly in dp.items():
            matching = {}
            for u, v in mt:
                matching[u] = v
                matching[v] = u
            for pairing, shift in ((_A_PAIRING, 1), (_B_PAIRING, -1)):
                new_pairs, consumed, circles = _apply_smoothing(
                    matching, arcs, pairing, slot_arc_count)
                nm = {k: v for k, v in matching.items()
                      if k not in consumed and v not in consumed}
                for u, v in new_pairs:
                    nm[u] = v
                    nm[v] = u
                key = tuple(sorted((k, v) for k, v in nm.items() if k < v))
                scale = _delta_pow(circles) if circles else None
                dst = ndp.get(key)
                if dst is None:
                    dst = ndp[key] = {}
                if scale is None:
                    for kk, cc in poly.items():
                        k2 = kk + shift
                        c2 = dst.get(k2, 0) + cc
                        if c2:
                            dst[k2] = c2
                        else:
                            dst.pop(k2, None)
                else:
                    for kk, cc in poly.items():
                        for ks, cs in scale.items():
                            k2 = kk + shift + ks
                            c2 = dst.get(k2, 0) + cc * cs
                            if c2:
                                dst[k2] = c2
                            else:
                                dst.pop(k2, None)
        dp = {k: v for k, v in ndp.items() if v}
        entries = sum(len(p) for p in dp.values())
        if entries > entry_limit:
            raise EngineLimitError(
                "bracket state sum exceeded the memory budget "
                "(%d stored terms); raise the limit to continue" % entries)
    if list(dp) != [()]:
        raise AssertionError("frontier did not close up")
    return _pmul(dp[()], result_scale)


_BRACKET_CACHE = {}


def _cable_bracket(pd, m, entry_limit):
    key = (pd, m)
    hit = _BRACKET_CACHE.get(key)
    if hit is not None:
        return hit
    crossings, circles = _cable(pd, m)
    val = _bracket_raw(crossings, circles, entry_limit)
    if len(_BRACKET_CACHE) > 64:
        _BRACKET_CACHE.clear()
    _BRACKET_CACHE[key] = val
    return val


def bracket_colored_jones(pd, n, limit_mb=None):
    """Colored Jones polynomial at color n from a planar diagram.

    Cables the diagram, expands the bracket of the cables along the
    Chebyshev recursion, corrects for the writhe framing, and divides
    by the unknot value.  Raises EngineLimitError when the frontier
    dynamic program grows past ``limit_mb`` (default 512).
    """
    if n < 0:
        raise ValueError("color must be nonnegative")
    pd = validate_pd(pd)
    if n == 0:
        return LaurentPoly.one()
    budget_mb = 512 if limit_mb is None else limit_mb
    entry_limit = int(budget_mb * (1 << 20) / 48)
    stats = smoothing_counts(pd)
    w = stats.writhe

    # <cable_n> = sum_i (-1)^i C(n-i, i) <parallel_(n-2i)>
    total = {}
    for i in range(n // 2 + 1):
        coeff = (-1) ** i * comb(n - i, i)
        part = _cable_bracket(pd, n - 2 * i, entry_limit)
        for k, c in part.items():
            v = total.get(k, 0) + coeff * c
            if v:
                total[k] = v
            else:
                total.pop(k, None)

    # divide by (-1)^n [n+1]: multiply by A^2 - A^-2, divide by the
    # binomial A^(2n+2) - A^(-2n-2), fix the sign
    total = _pmul(total, {2: 1, -2: -1})
    shifted = {k + (2 * n + 2): v for k, v in total.items()}
    quot = _div_binomial(shifted, 2 * (2 * n + 2), 0)
    if n % 2:
        quot = {k: -v for k, v in quot.items()}

    # writhe correction mu_n^(-w) with mu_n = (-1)^n A^(n^2 + 2n)
    sign = -1 if (n * w) % 2 else 1
    shift = -w * (n * n + 2 * n)
    corrected = {k + shift: sign * v for k, v in quot.items()}

    # substitute q = A^-4: A-exponent e becomes quarter-key -e
    poly = LaurentPoly.from_quarter_keys({-k: v for k, v in corrected.items()})
    if not poly.is_integral():
        raise AssertionError("bracket normalization left fractional powers")
    return poly


def connected_sum(j1, j2):
    """Colored Jones polynomial of a connected sum at one color: the
    factors multiply color by color."""
    return j1 * j2


# ---------------------------------------------------------------------------
# degree sequences


_SEQ_DIR = os.path.join(os.path.dirname(__file__), "data", "sequences")


def _seq_file(name, kind):
    return os.path.join(_SEQ_DIR, "%s.%s.seq" % (name, kind))


def bundled_degrees_available(name):
    """Whether packaged degree files cover the named knot."""
    return (os.path.exists(_seq_file(name, "max"))
            and os.path.exists(_seq_file(name, "min")))


def _load_seq(path):
    vals = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                vals.append(int(line))
    return vals


def _polynomial_degrees(kind, polys):
    """The kind's degree sequence of polynomials taken one at a time."""
    ends = [(j.deg(), j.mindeg()) for j in polys]
    return _combine(kind, [hi for hi, _ in ends], [lo for _, lo in ends])


def _combine(kind, dmax, dmin):
    if kind == "max":
        return dmax
    if kind == "min":
        return dmin
    if kind == "span":
        return [a - b for a, b in zip(dmax, dmin)]
    if kind == "sum":
        return [a + b for a, b in zip(dmax, dmin)]
    raise ValueError("unknown degree kind %r" % kind)


def degree_sequence(spec, kind, n_max, limit_mb=None):
    """Degree sequence [value at color 0, ..., value at color n_max].

    kind is one of max, min, span, sum.  Torus knots go through the
    state-sum evaluator, pretzel and alternating specs through their
    closed forms, named knots through bundled degree files when
    present, and explicit diagrams through the bracket (with an
    alternating-diagram shortcut).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    from . import closedforms

    if isinstance(spec, Torus):
        return _polynomial_degrees(kind, (
            morton_colored_jones(spec.a, spec.b, n)
            for n in range(n_max + 1)))
    if isinstance(spec, Pretzel237):
        pairs = [closedforms.pretzel_degrees(spec.p, n, limit_mb=limit_mb)
                 for n in range(n_max + 1)]
        dmax = [pr[0] for pr in pairs]
        dmin = [pr[1] for pr in pairs]
        if spec.mirror:
            dmax, dmin = [-v for v in dmin], [-v for v in dmax]
        return _combine(kind, dmax, dmin)
    if isinstance(spec, AlternatingData):
        pairs = [closedforms.alt_degrees(spec, n) for n in range(n_max + 1)]
        dmax = [pr[0] for pr in pairs]
        dmin = [pr[1] for pr in pairs]
        return _combine(kind, dmax, dmin)
    if isinstance(spec, Named):
        fmax, fmin = _seq_file(spec.name, "max"), _seq_file(spec.name, "min")
        if os.path.exists(fmax) and os.path.exists(fmin):
            dmax = [Fraction(v) for v in _load_seq(fmax)]
            dmin = [Fraction(v) for v in _load_seq(fmin)]
            if n_max + 1 > len(dmax) or n_max + 1 > len(dmin):
                raise ValueError(
                    "bundled degree data for %s covers colors up to %d"
                    % (spec.name, min(len(dmax), len(dmin)) - 1))
            dmax, dmin = dmax[:n_max + 1], dmin[:n_max + 1]
            if spec.mirror:
                dmax, dmin = [-v for v in dmin], [-v for v in dmax]
            return _combine(kind, dmax, dmin)
        pd = spec.resolved_pd()
        return _pd_degrees(pd, kind, n_max, limit_mb)
    if isinstance(spec, Diagram):
        return _pd_degrees(spec.resolved_pd(), kind, n_max, limit_mb)
    raise TypeError("unsupported knot spec %r" % (spec,))


def _pd_degrees(pd, kind, n_max, limit_mb):
    from . import closedforms
    if pd and is_alternating(pd):
        stats = smoothing_counts(pd)
        data = AlternatingData(stats.c_plus, stats.c_minus,
                               stats.a_circles, stats.b_circles)
        pairs = [closedforms.alt_degrees(data, n) for n in range(n_max + 1)]
        dmax = [pr[0] for pr in pairs]
        dmin = [pr[1] for pr in pairs]
        return _combine(kind, dmax, dmin)
    return _polynomial_degrees(kind, (
        bracket_colored_jones(pd, n, limit_mb=limit_mb)
        for n in range(n_max + 1)))
