"""Exact colored Jones polynomials.

Two independent evaluators live here.  ``morton_colored_jones`` computes
torus knots through the closed-form state sum; ``bracket_colored_jones``
works on any planar diagram by cabling it, expanding the Kauffman
bracket of the cables with a frontier dynamic program, and normalizing.
Both return Laurent polynomials in q, indexed so that color 0 is the
unknot normalization (constant 1) and color 1 is the Jones polynomial.

``LaurentPoly`` is the only polynomial type: both evaluators divide by
q**((n+1)/2) - q**(-(n+1)/2) through ``LaurentPoly.exact_div``.  That
divisor is a binomial with coefficients +-1 of opposite signs, so the
division takes ``exact_div``'s residue-class route, linear in the
quotient, and not the long division that other divisors need.  Both
evaluators apply their framing shift to the dividend, so no pass over
the quotient follows the division.  The bracket state sum runs in A with
q = A**-4.  Every closed circle, the last one included, is a factor
-A**2 - A**-2; the empty diagram has bracket 1.

Each frontier state's polynomial is packed into one Python int
(Kronecker substitution).  All its A-exponents agree mod 4, so it is a
pair (lo, packed): its lowest A-exponent and the polynomial in X = A**4
above it, evaluated at X = 2**bits.  A merge of two states is one shift
and add, a circle factor is lo - 2 and a multiply by -(1 + 2**bits), and
the bracket is decoded once, from signed base-2**bits digits straight
into mirrored q quarter-keys.  ``bits`` = 2N + 3 for an N-crossing cable
is a proven bound on every coefficient; ``_bracket_raw`` gives the
argument and the mod-4 one.  The memory budget charges each stored state
a calibrated overhead plus its packed int's bytes, over the frontier a
step reads and the one it writes, and is checked every 4096 new states
as well as after each step.

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

The contraction order is searched.  A greedy pass from a starting
crossing takes next the crossing sharing the most open arcs, from a
candidate set that it updates as arcs open, and its estimate is the sum
over steps of Catalan(open arcs / 2), which bounds the planar matchings
of each frontier.  ``_pick_order`` runs passes from crossings 0, 1, 2,
... and keeps the cheapest, and stops before the passes, at about
``_PASS_COST`` states per crossing each, would cost as much as the
cheapest estimate so far.  So the 1-cables of the bundled diagrams run
one or two passes, their 2-cables at most 19, and their 4-cables every
start.
"""

import functools
from fractions import Fraction
from math import comb, gcd

from .laurent import LaurentPoly, _wrap
from .knots import _A_PAIRING, _B_PAIRING, _classify, validate_pd
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

    # numerator sum over K = 2k, K = -n, -n+2, ..., n, as quarter-keys,
    # times the framing prefactor q**(ab n(n+2)/4): shifting the 2(n+1)
    # numerator terms costs less than shifting the quotient
    num = {}
    ab = a * b
    frame = ab * n * (n + 2)
    for bigk in range(-n, n + 1, 2):
        e1 = frame - ab * bigk * bigk + 2 * (a - b) * bigk + 2
        e2 = frame - ab * bigk * bigk + 2 * (a + b) * bigk - 2
        num[e1] = num.get(e1, 0) + 1
        num[e2] = num.get(e2, 0) - 1

    # divide by q**((n+1)/2) - q**(-(n+1)/2)
    return LaurentPoly(num).exact_div(_binomial(n))


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


# a greedy pass costs about as much as this many frontier states per
# crossing of the cable
_PASS_COST = 4


def _pick_order(crossings):
    """Contraction order of the state sum: of the greedy passes from
    crossings 0, 1, 2, ..., the one with the fewest estimated states,
    the earliest on a tie.  No further start is tried once the passes
    run so far, at ``_PASS_COST`` states per crossing each, cost as much
    as the cheapest estimate."""
    ends = {}
    for idx, arcs in enumerate(crossings):
        for a in arcs:
            ends.setdefault(a, []).append(idx)
    order, best = [], None
    for start in range(len(crossings)):
        if best is not None and start * len(crossings) * _PASS_COST >= best:
            break
        found, estimate = _greedy_order(crossings, ends, start)
        if best is None or estimate < best:
            order, best = found, estimate
    return order


def _greedy_order(crossings, ends, start):
    """One greedy pass from crossing ``start``, with ``ends[a]`` the
    crossings of arc a: each next crossing is the candidate sharing the
    most open arcs, ties broken by index, and a crossing sharing none
    is taken, lowest index first, only when no candidate is left.
    Returns the order and its estimated states, the sum over steps of
    Catalan(open arcs / 2), which bounds the frontier's planar
    matchings."""
    done = [False] * len(crossings)
    shared = {}                 # candidate -> open arcs it shares
    order, width, estimate = [], 0, 0
    idx = start
    while True:
        done[idx] = True
        order.append(idx)
        for a in crossings[idx]:
            u, v = ends[a]
            other = v if u == idx else u
            if other == idx:
                continue        # a self-arc never opens
            if done[other]:
                width -= 1
            else:
                width += 1
                shared[other] = shared.get(other, 0) + 1
        estimate += comb(width, width // 2) // (width // 2 + 1)
        if shared:
            idx = max(shared, key=lambda c: (shared[c], -c))
            del shared[idx]
        elif len(order) < len(crossings):
            idx = done.index(False)
        else:
            return order, estimate


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


# bytes charged per stored frontier state besides its packed int's bits/8:
# its key tuple, its (lo, packed) pair, the int lo, the int's header and
# a dict slot.  Fitted so that the peak charge meets the growth of
# ru_maxrss above the 16 MB interpreter floor, it is 352 on 8_19's
# 3-cable (5.3 MB charged, 5.2 MB grown), 232 on 9_42's (5.3, 4.2), 471
# on 9_49's (8.8, 9.9) and 194 on 8_19's 4-cable (444, 376); 9_42's
# 4-cable grows less than its packed ints' bytes (495, 345), as read and
# written states share many packed ints
_STATE_BYTES = 360

# new states of a step between two checks of the running stored bytes
_CHECK_EVERY = 4096


def _pack(coeffs, bits):
    """The polynomial sum(c_i * X**i) at X = 2**bits, as one int."""
    packed = 0
    for c in reversed(coeffs):
        packed = (packed << bits) + c
    return packed


def _unpack(packed, bits):
    """The coefficients c_0, c_1, ... of a packed polynomial, lowest
    first and without trailing zeros: the signed base-2**bits digits of
    ``packed``, which are the coefficients when every
    |c_i| < 2**(bits - 1)."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    coeffs = []
    while packed:
        c = packed & mask
        if c >= half:
            c -= 1 << bits
        coeffs.append(c)
        packed = (packed - c) >> bits
    return coeffs


def _check_budget(byte_limit, step, read, written, bits):
    """The stored bytes of a step that has read a frontier of ``read``
    states and written ``written`` so far, whose packed ints hold
    ``bits`` bits in all.  Raises EngineLimitError above ``byte_limit``.
    """
    stored = (read + written) * _STATE_BYTES + (bits >> 3)
    if stored > byte_limit:
        raise EngineLimitError(
            "bracket state sum exceeded the memory budget in step %d, at "
            "%d new frontier states on %d read (%d stored bytes); raise "
            "the limit to continue" % (step, written, read, stored))
    return stored


def _bracket_raw(crossings, free_circles, byte_limit):
    """Kauffman bracket of a raw crossing list as a LaurentPoly in q,
    with the peak stored bytes of the state sum.

    The open arcs after each step of the contraction order do not depend
    on the state, so they sit in one list per step and a state is the
    tuple of partner positions in that list: the strand that leaves
    through open arc i comes back through open arc ``state[i]``.  Each
    step works out its crossing's slots once: a slot's arc is a
    self-arc, whose other slot is its link in every state; an open arc
    the step consumes, at an index of ``consumed``; or an arc the step
    opens, at a new position of its own.  A smoothing's outcome depends
    on a state only through the partners of the consumed positions, so
    that tuple keys a per-step memo of rules (new links, A-shift, packed
    circle factor) that ``_compile_rule`` fills on a miss.

    A state's polynomial is a pair (lo, packed): its lowest A-exponent
    lo, and the polynomial in X = A**4 above it evaluated at X = 2**bits.
    The lowest slot is never zero, as a merge whose lowest slots cancel
    moves lo up.  All exponents of a state agree mod 4, and so do those
    of every partial smoothing with the same frontier matching: after k
    crossings with b B-smoothings and L closed loops an exponent is
    k - 2(b + L) mod 4, and completing two such partial smoothings alike
    gives full states whose b + circles have one parity, since one
    smoothing switch changes the circles of a planar diagram by +-1.
    So a merge is one shift and add, and a misaligned merge raises.  The
    circle factor delta**c = (-1)**c A**(-2c) (1 + X)**c moves lo by -2c
    and multiplies by a packed constant.

    ``bits`` = 2N + 3 for N crossings is a proven bound.  A coefficient
    of a state is at most the sum of 2**L(s) over its partial smoothings
    s in absolute value, since those of delta**L are +-C(L, j).  There
    are at most 2**N of them, and L(s) <= N + 1: the closed loops of s
    stay circles of every completion, and a state of a connected diagram
    has at most N + 1 circles, because its circles and crossings form a
    connected graph.  So every |c| <= 2**(2N + 1) < 2**(bits - 1), and
    ``_unpack`` reads the bracket back exactly.  The diagram is
    connected when no step but the first starts on an empty frontier,
    which is checked.

    The budget charges each stored state ``_STATE_BYTES`` plus its
    packed int's bytes, for the frontier a step reads and the one it
    writes, which are alive together.  It is checked after every
    ``_CHECK_EVERY`` new states and at the end of each step, and the
    largest charge seen is the peak.
    """
    result_scale = _DELTA ** free_circles
    if not crossings:
        return result_scale, 0
    bits = 2 * len(crossings) + 3
    low = (1 << bits) - 1
    # a smoothing closes at most two circles, each through two slots
    factors = (None,) + tuple(
        _pack([(-1) ** c * comb(c, j) for j in range(c + 1)], bits)
        for c in (1, 2))
    peak = held_bits = 0
    open_arcs = []
    dp = {(): (0, 1)}
    for step, idx in enumerate(_pick_order(crossings), 1):
        if step > 1 and not open_arcs:
            raise AssertionError("the crossings do not form a connected "
                                 "diagram")
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
        new_bits = 0
        for state, (lo, packed) in dp.items():
            local = tuple([state[i] for i in consumed])
            rule = rules.get(local)
            if rule is None:
                rule = rules[local] = _compile_rule(
                    local, consumed, at, self_links, ends, remap, factors)
            # a kept position whose partner was consumed, and each
            # opened arc, hold -1 until the rule's links fill them
            base = [remap[state[i]] for i in kept] + opened
            for links, shift, factor in rule:
                nt = base[:]
                for u, v in links:
                    nt[u] = v
                    nt[v] = u
                key = tuple(nt)
                e = lo + shift
                p = packed if factor is None else packed * factor
                dst = ndp.get(key)
                if dst is None:
                    ndp[key] = e, p
                    new_bits += p.bit_length()
                    if not len(ndp) % _CHECK_EVERY:
                        peak = max(peak, _check_budget(
                            byte_limit, step, len(dp), len(ndp),
                            held_bits + new_bits))
                    continue
                lo0, p0 = dst
                d = e - lo0
                if d & 3:
                    raise AssertionError("misaligned merge of A-exponents "
                                         "%d and %d" % (lo0, e))
                # align on the lower exponent by shifting the other
                # polynomial up, add, and normalise a zero lowest slot,
                # which only equal exponents can leave
                old_bits = p0.bit_length()
                if d > 0:
                    p <<= (d >> 2) * bits
                    e = lo0
                elif d:
                    p0 <<= (-d >> 2) * bits
                p += p0
                if not (d or p & low):
                    if not p:
                        new_bits -= old_bits
                        del ndp[key]
                        continue
                    z = ((p & -p).bit_length() - 1) // bits
                    p >>= z * bits
                    e += 4 * z
                new_bits += p.bit_length() - old_bits
                ndp[key] = e, p
        peak = max(peak, _check_budget(byte_limit, step, len(dp), len(ndp),
                                       held_bits + new_bits))
        dp, held_bits = ndp, new_bits
    if list(dp) != [()]:
        raise AssertionError("frontier did not close up")
    lo, packed = dp[()]
    terms = {-lo - 4 * i: c for i, c in enumerate(_unpack(packed, bits)) if c}
    return _wrap(terms) * result_scale, peak


def _compile_rule(local, consumed, at, self_links, ends, remap, factors):
    """The A and B outcomes of one step for the states whose consumed
    positions have the partners ``local``: the links between new
    positions, the A-shift, and the packed circle factor
    ``factors[circles]``, None for no circle.  ``consumed[j]`` sits at
    slot ``at[j]``; a consumed partner links two slots as a self-arc
    does, and a kept partner makes the slot an outward end at the
    partner's new position, as an opened arc is."""
    pattern, ends = list(self_links), list(ends)
    for s, p in zip(at, local):
        if p in consumed:
            pattern[s] = at[consumed.index(p)]
        else:
            ends[s] = remap[p]
    return [(tuple((ends[s], ends[t]) for s, t in pairs), shift,
             factors[circles])
            for pairs, shift, circles in _pattern_rule(tuple(pattern))]


@functools.cache
def _pattern_rule(pattern):
    """The A and B outcomes of a 4-slot pattern: the pairs of outward
    slots each smoothing joins, its A-shift with the A**(-2c) of its
    delta**c, and the number c of circles it closes.  This is the whole
    Temperley-Lieb local algebra of the state sum; it is worked out
    once per pattern and process."""
    rule = []
    for pairing, shift in ((_A_PAIRING, 1), (_B_PAIRING, -1)):
        pairs, circles = _apply_smoothing(pattern, pairing)
        rule.append((pairs, shift - 2 * circles, circles))
    return tuple(rule)


# (pd, m) -> (bracket of the m-parallel, peak stored bytes of its sum),
# holding at most _BRACKET_CACHE_SIZE entries in insertion order
_BRACKET_CACHE = {}
_BRACKET_CACHE_SIZE = 64


def _cable_bracket(pd, m, byte_limit):
    """Bracket of the m-parallel of pd.  A cached bracket is refused
    under a budget that its state sum exceeded; a full memo drops its
    oldest entry."""
    key = (pd, m)
    hit = _BRACKET_CACHE.get(key)
    if hit is None:
        crossings, circles = _cable(pd, m)
        hit = _bracket_raw(crossings, circles, byte_limit)
        if len(_BRACKET_CACHE) >= _BRACKET_CACHE_SIZE:
            del _BRACKET_CACHE[next(iter(_BRACKET_CACHE))]
        _BRACKET_CACHE[key] = hit
    val, peak = hit
    if peak > byte_limit:
        raise EngineLimitError(
            "bracket state sum of the %d-parallel peaked at %d stored bytes, "
            "over the memory budget; raise the limit to continue" % (m, peak))
    return val


def bracket_colored_jones(pd, n, limit_mb=None):
    """Colored Jones polynomial at color n from a planar diagram.

    Cables the diagram, expands the bracket of the cables along the
    Chebyshev recursion, corrects for the writhe framing, and divides
    by the unknot value.  Each cable's bracket is a frontier state sum
    whose states hold their polynomials packed into one int each, on the
    stride-4 lattice of A-exponents, at 2N + 3 bits a coefficient for N
    cable crossings (see ``_bracket_raw``).  Raises EngineLimitError, in
    the step that overflows, when the stored bytes of the state sum
    exceed ``limit_mb`` MiB (default 512): each stored state is charged
    a calibrated overhead plus its packed int's bytes, for the frontier
    a step reads and the one it writes.  At color 4, 8_19 peaks at about
    423 MiB and 9_42 at about 472 MiB.
    """
    if n < 0:
        raise ValueError("color must be nonnegative")
    pd = validate_pd(pd)
    if n == 0:
        return LaurentPoly.one()
    byte_limit = (512 if limit_mb is None else limit_mb) << 20
    w = _classify(pd)[0].writhe

    # <cable_n> = sum_i (-1)^i C(n-i, i) <parallel_(n-2i)>
    total = LaurentPoly()
    for i in range(n // 2 + 1):
        total += ((-1) ** i * comb(n - i, i)
                  * _cable_bracket(pd, n - 2 * i, byte_limit))

    # correct the writhe framing by mu_n^(-w) with mu_n = (-1)^n
    # q^(-(n^2 + 2n)/4), on the dividend, then divide by (-1)^n [n+1] =
    # (-1)^n (q^((n+1)/2) - q^(-(n+1)/2)) / (q^(1/2) - q^(-1/2))
    num = (total * _binomial(0)).shift(Fraction(w * (n * n + 2 * n), 4))
    if (n + n * w) % 2:
        num = -num
    poly = num.exact_div(_binomial(n))
    if not poly.is_integral():
        raise AssertionError("bracket normalization left fractional powers")
    return poly


# ---------------------------------------------------------------------------
# degree sequences


_SEQ_DIR = os.path.join(os.path.dirname(__file__), "data", "sequences")


def _seq_file(name, kind):
    return os.path.join(_SEQ_DIR, "%s.%s.seq" % (name, kind))


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
    minimum degrees (``spec.degrees``) by the one rule of
    ``knots._Spec._degrees``: an adequate side from its closed form,
    and any other side from the kind's source, checked against the
    closed form of an adequate side.  The sources are Morton's formula
    for torus knots, the bundled degree files for named knots, the
    bracket at colors 0..2 extended by the family's generating
    functions for pretzel knots, and the cabled bracket for ``pd:``
    diagrams; an ``alt:`` spec is adequate on both sides.  Every spec
    computes its degrees for the unmirrored knot, and the one mirror
    rule of ``knots._Spec`` turns (dmax, dmin) into (-dmin, -dmax).
    """
    combine = _KINDS.get(kind)
    if combine is None:
        raise ValueError("unknown degree kind %r" % kind)
    return combine(*spec.degrees(n_max, limit_mb))
