"""Exact colored Jones polynomials.

Two independent evaluators live here.  ``morton_colored_jones`` computes
torus knots through the closed-form state sum; ``bracket_colored_jones``
works on any planar diagram by cabling it, expanding the Kauffman
bracket of the cables with a frontier dynamic program, and normalizing.
Both return Laurent polynomials in q, indexed so that color 0 is the
unknot normalization (constant 1) and color 1 is the Jones polynomial.

``LaurentPoly`` is the only polynomial type: both evaluators divide by
q**((n+1)/2) - q**(-(n+1)/2) through ``LaurentPoly.exact_div``.  The
bracket state sum runs in A with q = A**-4 on plain dicts of
A-exponents, handed over once as a mirrored ``LaurentPoly``.  Every
closed circle, the last one included, is a factor -A**2 - A**-2; the
empty diagram has bracket 1.

The frontier is precompiled.  Which arcs are open after each step of
the contraction order does not depend on the state, so each step's
bookkeeping (consumed positions, kept positions, opened arcs) is worked
out once, and a state is a tuple of integer partner positions.  The
local algebra sees only a 4-slot pattern: entry s is the slot that slot
s reaches outside the crossing, through a self-arc or through a
frontier path that comes back into the crossing, or None for an
outward end.  ``_pattern_rule`` works out the smoothings of each
pattern once per process; a step's rule for a tuple of partners only
maps the pattern's outward slots to new positions.  Only the
polynomial side runs per state.
"""

import functools
from fractions import Fraction
from math import comb, gcd

from .laurent import LaurentPoly
from .knots import _classify, validate_pd
from .quasifit import load_sequence
import os

__all__ = [
    "morton_colored_jones", "bracket_colored_jones", "degree_sequence",
    "EngineLimitError",
]


class EngineLimitError(RuntimeError):
    """Raised when a bracket computation exceeds its memory budget."""


# ---------------------------------------------------------------------------
# torus knots: closed-form state sum


def _binomial(n):
    """q**((n+1)/2) - q**(-(n+1)/2); both evaluators divide by it."""
    return LaurentPoly({2 * n + 2: 1, -2 * n - 2: -1})


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

    # numerator sum over K = 2k, K = -n, -n+2, ..., n, as quarter-keys
    num = {}
    ab = a * b
    for bigk in range(-n, n + 1, 2):
        e1 = -ab * bigk * bigk + 2 * (a - b) * bigk + 2
        e2 = -ab * bigk * bigk + 2 * (a + b) * bigk - 2
        num[e1] = num.get(e1, 0) + 1
        num[e2] = num.get(e2, 0) - 1

    # divide by q**((n+1)/2) - q**(-(n+1)/2), then multiply by the
    # framing prefactor q**(ab n(n+2)/4)
    quot = LaurentPoly(num).exact_div(_binomial(n))
    return quot.shift(Fraction(ab * n * (n + 2), 4))


# the circle factor -A**2 - A**-2, the same map in A and in quarter-keys
_DELTA = LaurentPoly({2: -1, -2: -1})


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
    order = []
    open_arcs = set()
    while remaining:
        best = min(remaining, key=lambda idx: (
            -sum(1 for a in crossings[idx] if a in open_arcs), idx))
        order.append(best)
        remaining.discard(best)
        for a in crossings[best]:
            if a in open_arcs:
                open_arcs.discard(a)
            else:
                open_arcs.add(a)
    return order


def _apply_smoothing(pattern, pairing):
    """One smoothing of a crossing whose local situation is ``pattern``.

    The four slots are joined inside the crossing by ``pairing`` (two
    slot pairs) and outside it by the pattern links; a slot s with
    ``pattern[s] is None`` is an outward end.  Every slot meets one
    pairing edge and either one link or its outward end, so the strands
    are closed circles or paths between two outward ends.  Returns
    (the pairs of outward slots the paths join, closed circles).
    """
    mate = [0] * 4
    for s, t in pairing:
        mate[s], mate[t] = t, s
    seen = set()
    pairs, circles = [], 0
    # outward ends first, so that each path is walked from one of its ends
    for s in sorted(range(4), key=lambda s: pattern[s] is not None):
        if s in seen:
            continue
        t = mate[s]
        seen.update((s, t))
        while pattern[t] not in (None, s):
            t = mate[pattern[t]]
            seen.update((t, mate[t]))
        if pattern[t] is None:
            pairs.append((s, t))
        else:
            circles += 1
    return tuple(pairs), circles


_A_PAIRING = ((0, 1), (2, 3))
_B_PAIRING = ((1, 2), (3, 0))


# bytes per stored term of the state sum, as ru_maxrss above the 16 MB
# interpreter floor: 148 on 8_19's 3-cable (62,876 terms, 25.5 MB), 145 on
# 9_42's (50,577 terms), 119-143 on 8_19 at color 4 and 9_49 at color 3
_TERM_BYTES = 150


def _check_budget(entries, entry_limit):
    if entries > entry_limit:
        raise EngineLimitError(
            "bracket state sum exceeded the memory budget "
            "(%d stored terms); raise the limit to continue" % entries)


def _bracket_raw(crossings, free_circles, entry_limit):
    """Kauffman bracket of a raw crossing list as a LaurentPoly in q,
    with the peak number of terms the state sum stored.

    The open arcs after each step of the contraction order do not depend
    on the state, so they sit in one list per step and a state is the
    tuple of partner positions in that list: the strand that leaves
    through open arc i comes back through open arc ``state[i]``.  Each
    step works out its crossing's slots once: a slot's arc is a
    self-arc, whose other slot is its link in every state; an open arc
    the step consumes, at an index of ``consumed``; or an arc the step
    opens, at a new position of its own.  A smoothing's outcome depends
    on a state only through the partners of the consumed positions, so
    that tuple keys a per-step memo of rules (new links, A-shift,
    delta**circles factor) that ``_compile_rule`` fills on a miss.  The
    per-state polynomials are plain dicts keyed by A-exponents, turned
    into q once at the end.
    """
    result_scale = _DELTA ** free_circles
    if not crossings:
        return result_scale, 0
    peak = 0
    open_arcs = []
    dp = {(): {0: 1}}
    for idx in _pick_order(crossings):
        arcs = crossings[idx]
        where = {a: i for i, a in enumerate(open_arcs)}
        consumed = [where[a] for a in arcs if a in where]
        at = [s for s, a in enumerate(arcs) if a in where]
        kept = [i for i in range(len(open_arcs)) if i not in consumed]
        remap = [-1] * len(open_arcs)
        for new, old in enumerate(kept):
            remap[old] = new
        open_arcs = [open_arcs[i] for i in kept]
        self_links, ends = [None] * 4, [None] * 4
        for s, a in enumerate(arcs):
            if a not in where:
                other = [t for t in range(4) if t != s and arcs[t] == a]
                if other:
                    self_links[s] = other[0]
                else:
                    ends[s] = len(open_arcs)
                    open_arcs.append(a)
        opened = [-1] * (len(open_arcs) - len(kept))
        rules = {}
        ndp = {}
        for state, poly in dp.items():
            local = tuple([state[i] for i in consumed])
            rule = rules.get(local)
            if rule is None:
                rule = rules[local] = _compile_rule(
                    local, consumed, at, self_links, ends, remap)
            # a kept position whose partner was consumed, and each
            # opened arc, hold -1 until the rule's links fill them
            base = [remap[state[i]] for i in kept] + opened
            for links, shift, scale in rule:
                nt = base[:]
                for u, v in links:
                    nt[u] = v
                    nt[v] = u
                key = tuple(nt)
                dst = ndp.get(key)
                if scale is None:
                    if dst is None:
                        ndp[key] = {k + shift: c for k, c in poly.items()}
                        continue
                    for k, c in poly.items():
                        k += shift
                        c += dst.get(k, 0)
                        if c:
                            dst[k] = c
                        else:
                            del dst[k]
                else:
                    if dst is None:
                        dst = ndp[key] = {}
                    for k, c in poly.items():
                        for ks, cs in scale:
                            k2 = k + ks
                            c2 = dst.get(k2, 0) + c * cs
                            if c2:
                                dst[k2] = c2
                            else:
                                dst.pop(k2, None)
        dp = {k: v for k, v in ndp.items() if v}
        entries = sum(len(p) for p in dp.values())
        _check_budget(entries, entry_limit)
        peak = max(peak, entries)
    if list(dp) != [()]:
        raise AssertionError("frontier did not close up")
    return LaurentPoly(dp[()]).mirror() * result_scale, peak


def _compile_rule(local, consumed, at, self_links, ends, remap):
    """The A and B outcomes of one step for the states whose consumed
    positions have the partners ``local``: the links between new
    positions, the A-shift, and the delta**circles factor as shifted
    (exponent, coefficient) pairs, or None.  ``consumed[j]`` sits at
    slot ``at[j]``; a consumed partner links two slots as a self-arc
    does, and a kept partner makes the slot an outward end at the
    partner's new position, as an opened arc is."""
    pattern, ends = list(self_links), list(ends)
    for s, p in zip(at, local):
        if p in consumed:
            pattern[s] = at[consumed.index(p)]
        else:
            ends[s] = remap[p]
    return [(tuple((ends[s], ends[t]) for s, t in pairs), shift, scale)
            for pairs, shift, scale in _pattern_rule(tuple(pattern))]


@functools.cache
def _pattern_rule(pattern):
    """The A and B outcomes of a 4-slot pattern: the pairs of outward
    slots each smoothing joins, its A-shift and its delta**circles
    factor.  This is the whole Temperley-Lieb local algebra of the
    state sum; it is worked out once per pattern and process."""
    rule = []
    for pairing, shift in ((_A_PAIRING, 1), (_B_PAIRING, -1)):
        pairs, circles = _apply_smoothing(pattern, pairing)
        scale = None
        if circles:
            scale = tuple((k + shift, c)
                          for k, c in (_DELTA ** circles).terms.items())
        rule.append((pairs, shift, scale))
    return tuple(rule)


# (pd, m) -> (bracket of the m-parallel, peak stored terms of its sum),
# holding at most _BRACKET_CACHE_SIZE entries in insertion order
_BRACKET_CACHE = {}
_BRACKET_CACHE_SIZE = 64


def _cable_bracket(pd, m, entry_limit):
    """Bracket of the m-parallel of pd.  A cached bracket is refused
    under a budget that its state sum exceeded; a full memo drops its
    oldest entry."""
    key = (pd, m)
    hit = _BRACKET_CACHE.get(key)
    if hit is None:
        crossings, circles = _cable(pd, m)
        hit = _bracket_raw(crossings, circles, entry_limit)
        if len(_BRACKET_CACHE) >= _BRACKET_CACHE_SIZE:
            del _BRACKET_CACHE[next(iter(_BRACKET_CACHE))]
        _BRACKET_CACHE[key] = hit
    val, peak = hit
    _check_budget(peak, entry_limit)
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
    entry_limit = int(budget_mb * (1 << 20) / _TERM_BYTES)
    w = _classify(pd)[0].writhe

    # <cable_n> = sum_i (-1)^i C(n-i, i) <parallel_(n-2i)>
    total = LaurentPoly()
    for i in range(n // 2 + 1):
        total += ((-1) ** i * comb(n - i, i)
                  * _cable_bracket(pd, n - 2 * i, entry_limit))

    # divide by (-1)^n [n+1] = (-1)^n (q^((n+1)/2) - q^(-(n+1)/2)) /
    # (q^(1/2) - q^(-1/2)), then correct the writhe framing by
    # mu_n^(-w) with mu_n = (-1)^n q^(-(n^2 + 2n)/4)
    poly = (total * _binomial(0)).exact_div(_binomial(n))
    if (n + n * w) % 2:
        poly = -poly
    poly = poly.shift(Fraction(w * (n * n + 2 * n), 4))
    if not poly.is_integral():
        raise AssertionError("bracket normalization left fractional powers")
    return poly


# ---------------------------------------------------------------------------
# degree sequences


_SEQ_DIR = os.path.join(os.path.dirname(__file__), "data", "sequences")


def _seq_file(name, kind):
    return os.path.join(_SEQ_DIR, "%s.%s.seq" % (name, kind))


def bundled_degrees_available(name):
    """Whether packaged degree files cover the named knot."""
    return (os.path.exists(_seq_file(name, "max"))
            and os.path.exists(_seq_file(name, "min")))


def bundled_degrees(name, n_max):
    """Packaged maximum- and minimum-degree lists of the named knot for
    colors 0..n_max."""
    dmax, dmin = (_load_seq(_seq_file(name, kind)) for kind in ("max", "min"))
    covered = min(len(dmax), len(dmin))
    if n_max + 1 > covered:
        raise ValueError("bundled degree data for %s covers colors up to %d"
                         % (name, covered - 1))
    return dmax[:n_max + 1], dmin[:n_max + 1]


_load_seq = load_sequence


# how each degree kind combines the maximum- and minimum-degree lists
_KINDS = {
    "max": lambda dmax, dmin: dmax,
    "min": lambda dmax, dmin: dmin,
    "span": lambda dmax, dmin: [a - b for a, b in zip(dmax, dmin)],
    "sum": lambda dmax, dmin: [a + b for a, b in zip(dmax, dmin)],
}


def degree_sequence(spec, kind, n_max, limit_mb=None):
    """Degree sequence [value at color 0, ..., value at color n_max].

    kind is one of max, min, span, sum, and is checked before any
    degree work.  The spec checks n_max and supplies the maximum and
    minimum degrees (``spec.degrees``): torus knots through Morton's
    formula, ``alt:`` specs through the adequate closed forms, and
    pretzel, named and ``pd:`` diagrams through one rule: an adequate
    side from the closed form, any other side from the pretzel
    generating functions, bundled degree files or the cabled bracket,
    checked against the closed form of an adequate side.  Every spec
    computes them for the unmirrored knot, and the one mirror rule of
    ``knots._Spec`` turns (dmax, dmin) into (-dmin, -dmax).
    """
    combine = _KINDS.get(kind)
    if combine is None:
        raise ValueError("unknown degree kind %r" % kind)
    return combine(*spec.degrees(n_max, limit_mb))
