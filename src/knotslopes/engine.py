"""Exact colored Jones polynomials.

Two independent evaluators are public here.  ``morton_colored_jones``
computes torus knots through Morton's closed-form state sum;
``bracket_colored_jones`` works on any planar diagram by the colored
R-matrix vertex model, run on the diagram itself, and normalizes.  A
third route, the cabled Kauffman bracket (``_cabled_colored_jones``),
is on no user path: the tests cross-check the vertex model with it.
All return Laurent polynomials in q, indexed so that color 0 is the
unknot normalization (constant 1) and color 1 is the Jones polynomial.
``morton_degrees`` reads the maximum and minimum degree of Morton's
polynomial off the numerator of the formula, whose 2(n+1) terms fix
both, without building the quotient, whose degree span is O(ab n**2)
(``LaurentPoly.quotient_degrees``); it shares the numerator and the
argument checks with ``morton_colored_jones`` (``_morton_numerator``),
and ``Torus`` specs take their degrees from it.

``LaurentPoly`` is the only polynomial type: every evaluator divides by
q**((n+1)/2) - q**(-(n+1)/2) through ``LaurentPoly.exact_div``.  That
divisor is a binomial with coefficients +-1 of opposite signs, so the
division takes ``exact_div``'s residue-class route, linear in the
quotient, and not the long division that other divisors need; the
degree reader checks the same route's remainder rule.

One frontier core, ``_frontier``, contracts a diagram crossing by
crossing and takes a local algebra.  Which arcs are open after each
step of the contraction order does not depend on the state, so each
arc gets a fixed register when a step opens it, the lowest free one,
and keeps it until a step consumes it (``_steps``); there are as many
registers as the order's frontier width.  A state is one int, the
values of the open arcs in fields of ``algebra.width`` bits, one field
a register.  A step reads the fields of the registers it consumes,
``local = key & cmask``, and that int keys its rules directly.  Each
rule outcome holds one int ``flip`` that clears those fields and
writes the new values, so the new state is ``key ^ flip``, with an
exponent shift and the index of a packed factor.  A new state is
multiplied and stored only if the next step has a rule for its
consumed fields: one with none has no continuation and adds nothing
to the sum, so it is dropped, and every stored polynomial, and with
it every coefficient bound, is what it was without that test.  The
two local algebras are

- weight labels on arcs (``_Weights``), the vertex model of
  Reshetikhin-Turaev and Kirby-Melvin: a value is the label of a basis
  vector of V_n, a crossing acts by the R-matrix or its inverse, tabled
  once per color (``_r_tables``), and each arc carries a power of q
  from its turning number (``_turning_numbers``).  What does not depend
  on the color (the steps, crossing signs, writhe and turning numbers)
  is one frame per diagram (``_frame``, cached), which gives each
  step a shape.  A step's table is built once per process per (color,
  shape, registers), on plain ints straight from the R-matrix entries
  (``_placed``), and the state sum reads it in place: an outcome names
  its factor by an index, and a call only packs the distinct
  coefficient tuples of its shapes at its bits, and still charges the
  rules of each shape it reads;
- Temperley-Lieb matchings (``_Matchings``) for the cabled bracket: a
  value is the register of the open arc that the strand comes back
  by, which stays put while both arcs are open, and ``_pattern_rule``
  works out the smoothings of each 4-slot pattern once per process.
  The bracket runs in A with q = A**-4; every closed circle, the last
  one included, is a factor -A**2 - A**-2, and the empty diagram has
  bracket 1.

Each state's polynomial is packed into one Python int (Kronecker
substitution): its lowest exponent, and the polynomial above it at a
fixed stride (2 in quarter-keys for weights, 4 in A-exponents for
matchings) evaluated at 2**bits.  A merge of two states is one shift
and add, and the sum is decoded once, from signed base-2**bits digits.
``bits`` is a proven bound on every coefficient in either algebra; the
docstrings of ``_Weights`` and ``_bracket_raw`` give the arguments.  The
memory budget is one rule for both algebras (``_check_budget``): each
stored state of the frontier a step reads and of the one it writes is
charged ``_STATE_BYTES`` plus its packed int's bytes, an int the two
frontiers share counting once, and the rules of each distinct step
shape are charged once (``table_bytes``, 0 for matchings).  It is
checked every ``_CHECK_EVERY`` new states as well as after each step,
under ``_LIMIT_MB`` MiB unless the caller passes a limit.

The contraction order is searched.  A greedy pass from a starting
crossing takes next the crossing sharing the most open arcs, from a
candidate set that it updates as arcs open, and its estimate is the sum
over steps of Catalan(open arcs / 2), which bounds the frontier's planar
matchings.  ``_pick_order`` runs passes from crossings 0, 1, 2,
... and keeps the cheapest, and stops before the passes, at about
``_PASS_COST`` states per crossing each, would cost as much as the
cheapest estimate so far.  So the bundled diagrams run one or two
passes, their 2-cables at most 19, and their 4-cables every start.
"""

import functools
import heapq
import os
from fractions import Fraction
from math import comb, prod

from .laurent import LaurentPoly, _wrap
from .knots import (_A_PAIRING, _B_PAIRING, _check_torus, _classify,
                    _int_pd, _reading, validate_pd)
from .quasifit import load_sequence

__all__ = [
    "morton_colored_jones", "morton_degrees", "bracket_colored_jones",
    "degree_sequence", "EngineLimitError",
]


class EngineLimitError(RuntimeError):
    """Raised when a state sum exceeds its memory budget."""


# ---------------------------------------------------------------------------
# torus knots: closed-form state sum


def _binomial(n):
    """q**((n+1)/2) - q**(-(n+1)/2); both evaluators divide by it."""
    return LaurentPoly({2 * n + 2: 1, -2 * n - 2: -1})


def _morton_numerator(a, b, n):
    """The dividend of Morton's formula for the (a, |b|) torus knot at
    color n, after the argument checks that ``morton_colored_jones`` and
    ``morton_degrees`` share; its quotient by ``_binomial(n)`` is J_n.

    The dividend sums over K = 2k, K = -n, -n+2, ..., n, as quarter-keys,
    times the framing prefactor q**(ab n(n+2)/4): shifting its 2(n+1)
    terms costs less than shifting the quotient.
    """
    if n < 0:
        raise ValueError("color must be nonnegative")
    _check_torus(a, b)
    b = abs(b)
    ab = a * b
    frame = ab * n * (n + 2)
    num = {}
    for bigk in range(-n, n + 1, 2):
        e1 = frame - ab * bigk * bigk + 2 * (a - b) * bigk + 2
        e2 = frame - ab * bigk * bigk + 2 * (a + b) * bigk - 2
        num[e1] = num.get(e1, 0) + 1
        num[e2] = num.get(e2, 0) - 1
    return LaurentPoly(num)


def morton_colored_jones(a, b, n):
    """Colored Jones polynomial of the (a,b) torus knot at color n.

    A negative b gives the mirror image.  The result is an honest
    Laurent polynomial in q; the half-integer powers that appear along
    the way always cancel.
    """
    j = _morton_numerator(a, b, n).exact_div(_binomial(n))
    return j.mirror() if b < 0 else j


def morton_degrees(a, b, n):
    """(deg, mindeg) of ``morton_colored_jones(a, b, n)``, as Fractions,
    read off the numerator of Morton's formula without building the
    polynomial: with the numerator's zero coefficients dropped, deg is
    (max key - (2n+2))/4 and mindeg is (min key + (2n+2))/4, once the
    division by q**((n+1)/2) - q**(-(n+1)/2) is checked to be exact
    (``LaurentPoly.quotient_degrees``).  O(n) per color, where the
    polynomial spans O(ab n**2) degrees.  A negative b gives the mirror
    image.
    """
    deg, mindeg = _morton_numerator(a, b, n).quotient_degrees(_binomial(n))
    return (-mindeg, -deg) if b < 0 else (deg, mindeg)


# the circle factor -A**2 - A**-2, the same map in A and in quarter-keys
_DELTA = LaurentPoly({2: -1, -2: -1})


# ---------------------------------------------------------------------------
# the frontier core: contraction order, step bookkeeping, packed states


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


# new states of a step between two checks of the running stored bytes
_CHECK_EVERY = 1024

# the memory budget of a state sum in MiB when the caller sets none
_LIMIT_MB = 512

# bytes charged per stored frontier state besides its packed int's
# digits: its int key, its (lo, packed, own) triple, the int lo, the
# packed int's header and a dict slot.  By sys.getsizeof these come to
# 177-201 bytes at the largest step of the vertex model on 8_19 at
# colors 5 and 7 and on 9_49 at colors 4 and 5, and to 183 and 207 on
# the cabled bracket of 8_19's 3- and 4-cable (239-274 on the vertex
# model with tuple keys).  From the command line's post-import floor,
# the running peak charge stays at or above the growth of VmHWM past
# 2 MiB from 25 bytes on 8_19 at color 5, 165 at 6 and 238 at 7, 89 and
# 179 on 9_49 at 4 and 5, 84 on 9_42 at 6, and 72 and 161 on 8_20 at 6
# and 7.  8_19's cabled 4-cable peaks at 342,701,310 charged bytes with
# ru_maxrss growing by 312,768 KiB (405,816 KiB in all with tuple keys)
_STATE_BYTES = 360


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


def _check_budget(byte_limit, step, read, written, bits, table_bytes):
    """The stored bytes of a step that has read a frontier of ``read``
    states and written ``written`` so far, whose distinct packed ints
    hold ``bits`` bits in all, on top of the local algebra's
    ``table_bytes``.  Raises EngineLimitError above ``byte_limit``."""
    # CPython keeps an int in 30-bit digits of 4 bytes each
    stored = table_bytes + (read + written) * _STATE_BYTES + bits * 2 // 15
    if stored > byte_limit:
        raise EngineLimitError(
            "state sum exceeded the memory budget in step %d, at %d new "
            "frontier states on %d read (%d stored bytes); raise the "
            "limit to continue" % (step, written, read, stored))
    return stored


def _steps(crossings, order):
    """The bookkeeping of each step of ``order``, which does not depend
    on the state, and the number of registers it uses.  A step frees
    the registers of the arcs it consumes, then gives each arc it opens
    the lowest free register, which the arc keeps until a step consumes
    it; so the register count is the order's frontier width.  A step's
    crossing slot is a self-arc, linked to the other slot of its arc
    (``links``); an open arc the step consumes, at slot ``at[j]`` in
    register ``consumed[j]``; or an arc it opens, in register
    ``opens[slot]``.  Returns (one tuple (crossing, at, consumed,
    links, opens) per step, register count).  Raises when a step but
    the first starts on an empty frontier, as the crossings then do not
    form a connected diagram, or when an arc is still open after the
    last step."""
    steps, held, free, registers = [], {}, [], 0
    for k, idx in enumerate(order):
        if k and not held:
            raise AssertionError("the crossings do not form a connected "
                                 "diagram")
        arcs = crossings[idx]
        at = [s for s, a in enumerate(arcs) if a in held]
        consumed = [held.pop(arcs[s]) for s in at]
        for r in consumed:
            heapq.heappush(free, r)
        links, opens = [None] * 4, [None] * 4
        for s, a in enumerate(arcs):
            if s in at:
                continue
            other = [t for t in range(4) if t != s and arcs[t] == a]
            if other:
                links[s] = other[0]
                continue
            if free:
                opens[s] = heapq.heappop(free)
            else:
                opens[s], registers = registers, registers + 1
            held[a] = opens[s]
        steps.append((idx, at, consumed, links, opens))
    if held:
        raise AssertionError("frontier did not close up")
    return steps, registers


def _frontier(steps, algebra, byte_limit):
    """The frontier state sum along precompiled ``steps``, with the
    local algebra ``algebra``; returns (lo, packed, peak stored bytes).

    A state is one int key, the value of each open arc in the field of
    its register, ``algebra.width`` bits a field, and its polynomial a
    triple (lo, packed, own): its lowest exponent lo, the polynomial in
    X = q**(stride/4) above it evaluated at X = 2**bits, and whether
    the packed int is its own rather than the read state's.  A step
    reads the fields of its consumed registers, ``local = key & cmask``,
    and maps the state through the rule of ``local`` in the algebra's
    per-step table: for each outcome an int ``flip``, an exponent
    shift, and an index i into the step's packed factors, with i = 0
    for 1.  ``key ^ flip`` is the new state: ``flip`` clears the
    consumed fields and writes the opened arcs' values, and in a
    matching it also rewrites each kept register whose partner was
    consumed.  A field that no open arc holds is 0, so the state after
    the last step is 0, and it alone is alive there.

    Each step's rules are fetched once, and a step looks ahead at the
    next step's: a new state is multiplied by its factor and stored only
    if the next step has a rule for its consumed labels, which the
    algebra's table holds or compiles on a miss and keeps when it has
    an outcome.  A table of ``_Weights`` has every rule, so a miss there
    has none: the state has no continuation, adds nothing to the sum,
    and is dropped, and nothing is written to the table.  A matching
    always has two outcomes, so the cabled bracket drops nothing.  So
    every state a step reads has its rule, and the states that remain
    have exactly the polynomials they had without the look-ahead, so
    every bound on them, ``bits`` among them, still holds.  A stored
    state may still have no completion further on.  Every exponent of
    a state agrees modulo the stride, so a merge is one shift and add,
    and a misaligned merge raises.

    The budget (``_check_budget``) charges the states and the packed
    ints' bits of the frontier a step reads and the one it writes,
    which are alive together, and ``algebra.table_bytes``.  An int
    written unchanged from the read state is charged once, and the
    written frontier's ints count once each as the next step's read
    frontier.  The budget is checked after every ``_CHECK_EVERY`` new
    states and at the end of each step, and the largest charge seen is
    the peak.
    """
    bits, sh, width = algebra.bits, algebra.shift, algebra.width
    low, stride, field = (1 << bits) - 1, 1 << sh, (1 << width) - 1
    table_bytes = algebra.table_bytes
    peak = held_bits = 0
    masks = [sum(field << (r * width) for r in info[2]) for info in steps]
    # each step's rules are fetched once, as the next step's at the
    # look-ahead; the empty state's rule is the first step's only one
    nrules, nfactors, ncompile = algebra.rules(0, steps[0])
    if 0 not in nrules:
        nrules[0] = ncompile(0)
    dp = {0: (0, 1, True)}
    for step, cmask in enumerate(masks, 1):
        rules, factors = nrules, nfactors
        if step < len(steps):
            nmask = masks[step]
            nrules, nfactors, ncompile = algebra.rules(step, steps[step])
        else:
            # the state after the last step is 0, and it is the sum
            nmask, nrules = 0, {0: ()}
        ndp = {}
        new_bits = 0
        for key, (lo, packed, _) in dp.items():
            for flip, shift, i in rules[key & cmask]:
                new = key ^ flip
                e = lo + shift
                dst = ndp.get(new)
                if dst is None:
                    # a new state is written only if the next step has a
                    # rule for it, compiled here on a miss
                    local = new & nmask
                    if local not in nrules:
                        rule = ncompile(local)
                        if not rule:
                            continue
                        nrules[local] = rule
                    p = packed * factors[i] if i else packed
                    own = p is not packed
                    ndp[new] = e, p, own
                    if own:
                        new_bits += p.bit_length()
                    if not len(ndp) % _CHECK_EVERY:
                        peak = max(peak, _check_budget(
                            byte_limit, step, len(dp), len(ndp),
                            held_bits + new_bits, table_bytes))
                    continue
                p = packed * factors[i] if i else packed
                lo0, p0, own = dst
                d = e - lo0
                if d & (stride - 1):
                    raise AssertionError("misaligned merge of exponents "
                                         "%d and %d" % (lo0, e))
                # align on the lower exponent by shifting the other
                # polynomial up, add, and normalise a zero lowest slot,
                # which only equal exponents can leave
                if own:
                    new_bits -= p0.bit_length()
                if d > 0:
                    p <<= (d >> sh) * bits
                    e = lo0
                elif d:
                    p0 <<= (-d >> sh) * bits
                p += p0
                if not (d or p & low):
                    if not p:
                        del ndp[new]
                        continue
                    z = ((p & -p).bit_length() - 1) // bits
                    p >>= z * bits
                    e += stride * z
                new_bits += p.bit_length()
                ndp[new] = e, p, True
        peak = max(peak, _check_budget(byte_limit, step, len(dp), len(ndp),
                                       held_bits + new_bits, table_bytes))
        # the ints the written frontier shares with the read one, each
        # counted once, as several written states may share one
        shared = {id(v[1]): v[1] for v in ndp.values() if not v[2]}
        dp, held_bits = ndp, new_bits + sum(
            p.bit_length() for p in shared.values())
    lo, packed, _ = dp[0]
    return lo, packed, peak


# ---------------------------------------------------------------------------
# weight labels on arcs: the colored R-matrix vertex model


# bytes charged per rule of a shape's table besides its packed factor's
# digits.  By sys.getsizeof, a placement of a shape (``_placed``) holds
# its rules in 160-167 bytes a rule, a dict slot and an int key per
# consumed-label tuple and a rule's (flip, shift, index) tuple with its
# ints, on 8_19 at colors 2, 5 and 7 and on 9_49 at colors 4 and 5,
# whose 11 steps have 7 shapes and 11 placements.  With their
# coefficient tuples and use counts and a call's packed factors, the
# placements a sum reads hold 16,080 bytes where 24,462 are charged on
# 8_19 at color 2, 108,360 for 190,588 at 5 and 265,616 for 553,604 at
# 7, and 117,728 for 152,152 and 200,996 for 282,712 on 9_49 at 4 and
# 5; so charging each shape's rules once at this rate bounds them, though
# they are kept for the process, as the frames and ``_r_tables`` are,
# and every budget and pinned peak keeps the rate it was set at.  From
# the command line's post-import floor, VmHWM growth stays 0.4-4.1 MiB
# below the peak charge on 8_19 at colors 6 and 7, 9_49 at 4 and 5, and
# 9_42 and 8_20 at 6, on a 2-core VM with CPython 3.11 (the probe varies
# by about 1.5 MiB from run to run)
_RULE_BYTES = 344


@functools.cache
def _r_tables(n):
    """The entries of R and R**-1 on V_n (x) V_n, keyed by crossing sign,
    True for R at a positive crossing: tuples (a, b, nw, ne, lo, coeffs,
    norm), one per term e_nw (x) e_ne of the image of e_a (x) e_b, whose
    coefficient has lowest quarter-key ``lo`` and the int coefficients
    ``coeffs`` at stride 2 from it, None for the monomial 1; ``norm`` is
    the sum of their absolute values.  In the basis e_i of weight n - 2i,

        R(e_a (x) e_b) = sum_k q**(k(k-1)/4) [n-a+k choose k]
            prod_{j=1..k} (q**((b+j)/2) - q**(-(b+j)/2))
            q**(w(a-k) w(b+k)/4) e_{b+k} (x) e_{a-k},
        R**-1(e_a (x) e_b) = sum_k (-1)**k q**(-k(k-1)/4) [n-b+k choose k]
            prod_{j=1..k} (q**((a+j)/2) - q**(-(a+j)/2))
            q**(-w(a) w(b)/4) e_{b-k} (x) e_{a+k},

    with w(i) = n - 2i and symmetric quantum binomials.  An entry is a
    monomial times a Laurent polynomial in v = q**(1/2), whose powers
    are quarter-keys 2 apart, so its coefficients are at stride 2; its
    lowest key has the parity of n**2, which is checked.  Cached per
    color, as are the step tables built from these entries
    (``_placed``)."""
    # [m choose k] = v**-(m-k) [m-1 choose k-1] + v**k [m-1 choose k],
    # as coefficients of the powers of v from v**(-k(m-k))
    binom = [[[1]]]
    for m in range(1, n + 1):
        prev = binom[-1] + [[]]
        row = [[1]]
        for k in range(1, m + 1):
            c = prev[k - 1] + [0] * (2 * k * (m - k) + 1 - len(prev[k - 1]))
            for i, x in enumerate(prev[k], 2 * k):
                c[i] += x
            row.append(c)
        binom.append(row)

    def entry(a, b, nw, ne, key, sign, m, k, j0):
        # sign q**(key/4) [m choose k] prod_{j=j0+1..j0+k} (v**j - v**-j)
        c, lo = binom[m][k], key - 2 * k * (m - k)
        for j in range(j0 + 1, j0 + k + 1):
            c = [-x for x in c] + [0] * (2 * j)
            for i, x in enumerate(c[:-2 * j]):
                c[i + 2 * j] -= x
            lo -= 2 * j
        if (lo - n) & 1:
            raise AssertionError("R-matrix entry exponents of mixed parity")
        coeffs = None if c == [1] and sign == 1 else tuple(
            [sign * x for x in c])
        return a, b, nw, ne, lo, coeffs, sum(map(abs, c))
    w = [n - 2 * i for i in range(n + 1)]
    tables = {True: [], False: []}
    for a in range(n + 1):
        for b in range(n + 1):
            for k in range(n + 1):
                if k <= a and b + k <= n:
                    tables[True].append(entry(
                        a, b, b + k, a - k, k * (k - 1) + w[a - k] * w[b + k],
                        1, n - a + k, k, b))
                if k <= b and a + k <= n:
                    tables[False].append(entry(
                        a, b, b - k, a + k, -k * (k - 1) - w[a] * w[b],
                        (-1) ** k, n - b + k, k, a))
    return {sign: tuple(entries) for sign, entries in tables.items()}


def _turning_numbers(pd, ends, left_faces, into):
    """The integer turning number of each arc of a diagram whose
    crossings stand upright, their in-slots (``into[crossing, slot]``)
    at the bottom, from its arc ends and its faces
    (``knots._left_faces``).  Along a face's walk a corner
    between two in-slots or two out-slots is a cusp, which turns by
    1/2, and an arc turns by its number, with the sign of the walk's
    direction along it.  A bounded face turns by +1 in all and the outer
    one, face 0, by -1.  Solved on a breadth-first tree of the dual
    graph rooted at the outer face, with 0 on the arcs off the tree;
    Euler's formula makes the demands consistent, which is checked on
    the outer face."""
    face_of, walks = left_faces
    # (cusps, [(arc, +-1), ...]) per face
    faces = [(sum(into[ci, s] == into[ci, (s + 3) % 4] for ci, s in walk),
              [(pd[ci][s], 1 if into[ci, s] else -1) for ci, s in walk])
             for walk in walks]
    turning = dict.fromkeys(ends, 0)
    parent, queue = {0: None}, [0]
    for f in queue:
        for arc, _ in faces[f][1]:
            for g in (face_of[e] for e in ends[arc]):
                if g not in parent:
                    parent[g] = arc
                    queue.append(g)
    # 2 (sum of signed turning numbers) + cusps = 2 on a bounded face
    for f in reversed(queue[1:]):
        cusps, walked = faces[f]
        arc = parent[f]
        rest = sum(sign * turning[a] for a, sign in walked if a != arc)
        sign = next(sign for a, sign in walked if a == arc)
        turning[arc] = sign * (1 - cusps // 2 - rest)
    cusps, walked = faces[0]
    if 2 * sum(sign * turning[a] for a, sign in walked) + cusps != -2 or \
            any(c % 2 for c, _ in faces):
        raise AssertionError("turning numbers do not close up")
    return turning


@functools.cache
def _frame(pd):
    """The color-independent frame of the vertex model on a diagram
    ``pd`` of int labels (``knots._int_pd``): (steps, writhe, shapes),
    with ``steps`` the bookkeeping (``_steps``) of the order
    ``_pick_order`` picks and ``shapes`` one shape per step.  The empty
    diagram has no steps.

    A step's rules at color n, keyed by labels, depend only on its
    shape: the sign of its crossing, its consumed slots ``at``, its
    ``links``, its opened slots, and its ``turns``, the slots whose arc
    factor it charges, each with twice its arc's turning number
    (``_turning_numbers``): its opened slots and the first slot of each
    self-arc.  A shape names slots, not registers, so steps of one
    shape and registers, in any diagram, share one table per color
    (``_placed``).  The signs and turning numbers are read off the
    diagram's strand walk and faces (``knots._reading``, which checks
    it).

    Cached, as the pretzel seeds ask for colors 0, 1 and 2 of one
    diagram, so every caller shares the frame and only reads it.  An
    invalid diagram raises and is not cached, so it raises on every
    call."""
    ends, walk, faces = _reading(pd)
    if not pd:
        return (), 0, ()
    steps, _ = _steps(pd, _pick_order(pd))
    signs = [None] * len(pd)
    for ci, slot in walk:
        if slot % 2:
            signs[ci] = slot == 3
    into = {(ci, s): i < 2 for ci, sign in enumerate(signs)
            for i, s in enumerate(_upright(sign))}
    turning = _turning_numbers(pd, ends, faces, into)
    shapes = []
    for idx, at, _, links, opens in steps:
        opened = tuple(s for s in range(4) if opens[s] is not None)
        charged = opened + tuple(s for s, t in enumerate(links)
                                 if t is not None and t > s)
        shapes.append((signs[idx], tuple(at), tuple(links), opened,
                       tuple((s, 2 * turning[pd[idx][s]]) for s in charged)))
    return steps, _classify(pd)[0].writhe, tuple(shapes)


def _upright(sign):
    """The PD slots at (SW, SE, NE, NW) of a crossing of ``sign`` that
    stands upright with its in-slots at the bottom."""
    return (3, 0, 1, 2) if sign else (0, 1, 2, 3)


@functools.cache
def _placed(n, shape, consumed, opened):
    """The rules of a step of ``shape`` (``_frame``) at color n whose
    consumed arcs sit in the registers ``consumed`` and whose opened
    arcs go to ``opened``, both in slot order, built once per process
    straight from the R-matrix entries (``_r_tables``): (table, h,
    coeffs, uses).

    ``table`` maps each consumed-label tuple with an outcome, as
    ``local``, its labels in their registers' fields of n.bit_length()
    bits, to its outcomes (flip, shift, i): ``flip`` is the xor of
    ``local`` and the opened labels in their fields, ``shift`` the
    outcome's lowest quarter-key, and ``coeffs[i]`` its coefficients at
    stride 2 from that key, None at i = 0 for the monomial 1.  Each
    entry whose labels agree on the two slots of every self-arc gives
    the outcome of its labels, shifted by (2 label - n) t over the
    shape's ``turns``; entries that differ only in a self-arc's label
    share an outcome, the sum of their polynomials, and a sum that is 0
    has none.  ``uses[i]`` counts the outcomes with factor i, and ``h``
    is the step's factor of the coefficient bound (``_Weights``).  The
    state sum reads ``table`` in place and writes nothing to it, and a
    state whose consumed labels have no entry is not stored
    (``_frontier``)."""
    sign, at, links, opened_at, turns = shape
    sw, se, ne, nw = _upright(sign)
    linked = [(s, t) for s, t in enumerate(links) if t is not None and t > s]
    width = n.bit_length()
    found, norms, label = {}, {}, [0] * 4
    for a, b, to_nw, to_ne, lo, coeffs, norm in _r_tables(n)[sign]:
        label[sw], label[se], label[nw], label[ne] = a, b, to_nw, to_ne
        if linked and any(label[s] != label[t] for s, t in linked):
            continue
        local = writes = 0
        for s, r in zip(at, consumed):
            local |= label[s] << (r * width)
        for s, r in zip(opened_at, opened):
            writes |= label[s] << (r * width)
        norms[writes] = norms.get(writes, 0) + norm
        shift = lo + sum([(2 * label[s] - n) * t for s, t in turns])
        found.setdefault(local, {}).setdefault(local ^ writes, []).append(
            (shift, coeffs))
    index, uses, table = {None: 0}, [0], {}
    for local, outs in found.items():
        rule = []
        for flip, terms in outs.items():
            shift, coeffs = terms[0]
            if len(terms) > 1:
                # every entry's lowest key has the parity of n**2 and
                # every turn is even, so the sum keeps the stride 2
                poly = {}
                for lo, c in terms:
                    for i, x in enumerate(c or (1,)):
                        poly[lo + 2 * i] = poly.get(lo + 2 * i, 0) + x
                keys = [key for key, x in poly.items() if x]
                if not keys:
                    continue
                shift = min(keys)
                coeffs = tuple([poly.get(key, 0)
                                for key in range(shift, max(keys) + 1, 2)])
                if coeffs == (1,):
                    coeffs = None
            i = index.setdefault(coeffs, len(index))
            if i == len(uses):
                uses.append(0)
            uses[i] += 1
            rule.append((flip, shift, i))
        if rule:
            table[local] = tuple(rule)
    return table, max(norms.values()), tuple(index), tuple(uses)


class _Weights:
    """The local algebra of weight labels on arcs: the colored R-matrix
    vertex model at color n of a diagram whose steps have the ``shapes``
    of its frame (``_frame``).

    Each crossing stands upright with its in-slots at the bottom: as
    (SW, SE, NE, NW), a positive crossing, which the strand walk enters
    at slot 3, has PD slots (3, 0, 1, 2), and a negative one (0, 1, 2,
    3).  A state value is the label i in 0..n of an open arc, and a
    crossing maps the labels (a, b) of (SW, SE) to those of (NW, NE) by
    R at a positive crossing and R**-1 at a negative one
    (``_r_tables``).  An arc of label i and turning number t
    (``_turning_numbers``) carries q**(-(n - 2i) t / 2), charged at the
    step that opens it, or, for a self-arc, at its crossing.  A step's
    rules are worked out for every consumed-label tuple before the sum
    runs, once per process per (color, shape, registers) (``_placed``),
    and ``tables`` holds those cached tables themselves, one per step,
    so that steps of one shape and registers share one.  What depends
    on ``bits`` is all that a call builds: it packs each distinct
    coefficient tuple of its shapes once, and ``factors`` holds per step
    the packed factors that its table's outcomes index, None at index 0
    for 1.  A register holds a label in ``width`` = n.bit_length() bits.

    Exponents are quarter-keys at stride 2.  Every entry's exponents
    share the parity of n**2: k(k-1), the quantum binomials' and the
    binomial factors' exponents are even, and w(a) w(b) has the parity
    of n**2; so does every arc factor's, which is even.  So after s
    steps every exponent of every state has the parity of s n**2.

    ``bits`` is a proven bound.  Let h be, for a step, the largest sum
    of ``norm`` over the entries with one tuple of opened labels, whose
    summed labels are those of the consumed arcs and self-arcs.  A new
    state's polynomial is a sum over such entries, each times the one
    read state it continues, whose kept and consumed labels it fixes;
    arc factors are monomials.  So the sum of the absolute values of a
    state's coefficients after a step is at most h times its largest
    value before it, and every coefficient is at most the product H of
    the steps' h (``bound``).  ``bits`` = H.bit_length() + 1 gives
    |c| < 2**(bits - 1), which ``_unpack`` reads back exactly; the
    decoded sum is checked against H.  ``_frontier`` drops a new state
    whose consumed labels have no rule at the next step, before it is
    multiplied or stored: such a state adds nothing to the sum, and
    every state it keeps has the polynomial it had without the test,
    so the bound holds for each.  About a third of 8_19's stored states
    still have no completion at colors 5 and 7, and a tenth of 9_49's
    at 5 and 8_20's at 7: their labels have rules at the next step but
    not at some later one.

    The budget charges the rules of each distinct shape that a call
    reads once, in ``table_bytes``: ``_RULE_BYTES`` a rule plus its
    packed factor's bytes, on top of the frontier states, though the
    placed tables outlive the call.  The placements of one shape hold
    its rules on other registers and share its packed factors (see
    ``_RULE_BYTES``).
    """

    shift = 1

    def __init__(self, n, steps, shapes):
        placed = [_placed(n, shape, tuple(consumed),
                          tuple([opens[s] for s in shape[3]]))
                  for shape, (_, _, consumed, _, opens) in zip(shapes, steps)]
        bound = prod(h for _, h, _, _ in placed)
        self.bound, self.bits = bound, bound.bit_length() + 1
        # the placements of one shape share its coefficient tuples and
        # their counts; each distinct tuple is packed once
        packed, factors, count, digits = {None: None}, {}, 0, 0
        for shape, (_, _, coeffs, uses) in dict(zip(shapes, placed)).items():
            for c, used in zip(coeffs, uses):
                if c not in packed:
                    packed[c] = _pack(c, self.bits)
                if c is not None:
                    digits += used * packed[c].bit_length()
                count += used
            factors[shape] = tuple([packed[c] for c in coeffs])
        self.table_bytes = count * _RULE_BYTES + digits * 2 // 15
        self.width = n.bit_length()
        self.tables = [table for table, _, _, _ in placed]
        self.factors = [factors[shape] for shape in shapes]

    def rules(self, k, step):
        # a consumed-label key without a rule has no outcome
        return self.tables[k], self.factors[k], lambda local: ()


def bracket_colored_jones(pd, n, limit_mb=None):
    """Colored Jones polynomial at color n from a planar diagram.

    Runs the colored R-matrix vertex model on the diagram itself
    (``_Weights``): the sum Z over the weight labellings of its arcs of
    the products of R and R**-1 entries and arc factors, contracted
    along the frontier core.  The diagram's frame (``_frame``: the
    contraction steps, the writhe and each step's shape) is built once
    per diagram and cached, at color 0 too.  A step's table is built
    once per process per (color, shape, registers) and read in place; a
    call only packs the factors at its bits.  With w the writhe,
    J_n = mirror(Z q**(-w (n**2 + 2n)/4) / [n+1]), with
    [n+1] = (q**((n+1)/2) - q**(-(n+1)/2)) / (q**(1/2) - q**(-1/2)).  Each
    state's polynomial is packed into one int at stride 2 in
    quarter-keys, at a proven bound of bits a coefficient (see
    ``_Weights``).  Raises EngineLimitError, in the step that
    overflows, when the stored bytes of the state sum exceed
    ``limit_mb`` MiB (default ``_LIMIT_MB``, 512), as ``_check_budget``
    charges them.
    """
    if n < 0:
        raise ValueError("color must be nonnegative")
    steps, writhe, shapes = _frame(_int_pd(pd))
    if n == 0 or not steps:
        return LaurentPoly.one()
    byte_limit = (_LIMIT_MB if limit_mb is None else limit_mb) << 20
    algebra = _Weights(n, steps, shapes)
    lo, packed, _ = _frontier(steps, algebra, byte_limit)
    coeffs = _unpack(packed, algebra.bits)
    if sum(map(abs, coeffs)) > algebra.bound:
        raise AssertionError("the state sum exceeds its coefficient bound")
    lo -= writhe * (n * n + 2 * n)
    z = _wrap({lo + 2 * i: c for i, c in enumerate(coeffs) if c})
    poly = (z * _binomial(0)).exact_div(_binomial(n)).mirror()
    if not poly.is_integral():
        raise AssertionError("vertex model normalization left fractional "
                             "powers")
    return poly


# ---------------------------------------------------------------------------
# Temperley-Lieb matchings: the cabled bracket, kept as a cross-check


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


class _Matchings:
    """The Temperley-Lieb local algebra of the cabled bracket, with
    ``bits`` a coefficient, over ``registers`` registers: a state value
    is the register of the open arc that the strand through this one
    comes back by, in ``width`` bits, enough for any register, and the
    rules are the A and B smoothings of ``_compile_rule``, compiled on
    a miss into a per-step memo.  An outcome's factor index is the
    number of circles it closes, and ``factors[c]`` is delta**c packed
    without its power of A, None for c = 0.  It holds no tables, so the
    budget charges its states only."""

    shift, table_bytes = 2, 0

    def __init__(self, bits, registers):
        self.bits = bits
        self.width = max(1, (registers - 1).bit_length())
        # a smoothing closes at most two circles, each through two slots
        self.factors = (None,) + tuple(
            _pack([(-1) ** c * comb(c, j) for j in range(c + 1)], bits)
            for c in (1, 2))

    def rules(self, k, step):
        _, at, consumed, links, opens = step
        return {}, self.factors, lambda local: _compile_rule(
            local, at, consumed, links, opens, self.width)


def _bracket_raw(crossings, free_circles, byte_limit):
    """Kauffman bracket of a raw crossing list as a LaurentPoly in q,
    with the peak stored bytes of the state sum.

    A state is an int holding, in the field of each open arc's
    register, the register of its partner: the strand that leaves
    through that arc comes back through the partner.  A smoothing's
    outcome depends on a state only through the partners of the
    consumed registers, so those fields key a per-step memo of rules
    (new links as a ``flip``, A-shift, circles closed) that
    ``_compile_rule`` fills on a miss.

    A state's polynomial is its lowest A-exponent lo and the polynomial
    in X = A**4 above it evaluated at X = 2**bits (``_frontier``).  The
    lowest slot is never zero, as a merge whose lowest slots cancel
    moves lo up.  All exponents of a state agree mod 4, and so do those
    of every partial smoothing with the same frontier matching: after k
    crossings with b B-smoothings and L closed loops an exponent is
    k - 2(b + L) mod 4, and completing two such partial smoothings alike
    gives full states whose b + circles have one parity, since one
    smoothing switch changes the circles of a planar diagram by +-1.
    So a merge is one shift and add.  The circle factor
    delta**c = (-1)**c A**(-2c) (1 + X)**c moves lo by -2c and
    multiplies by a packed constant.

    ``bits`` = 2N + 3 for N crossings is a proven bound.  A coefficient
    of a state is at most the sum of 2**L(s) over its partial smoothings
    s in absolute value, since those of delta**L are +-C(L, j).  There
    are at most 2**N of them, and L(s) <= N + 1: the closed loops of s
    stay circles of every completion, and a state of a connected diagram
    has at most N + 1 circles, because its circles and crossings form a
    connected graph.  So every |c| <= 2**(2N + 1) < 2**(bits - 1), and
    ``_unpack`` reads the bracket back exactly.  The diagram is
    connected when no step but the first starts on an empty frontier,
    which ``_steps`` checks.
    """
    result_scale = _DELTA ** free_circles
    if not crossings:
        return result_scale, 0
    steps, registers = _steps(crossings, _pick_order(crossings))
    algebra = _Matchings(2 * len(crossings) + 3, registers)
    lo, packed, peak = _frontier(steps, algebra, byte_limit)
    terms = {-lo - 4 * i: c
             for i, c in enumerate(_unpack(packed, algebra.bits)) if c}
    return _wrap(terms) * result_scale, peak


def _compile_rule(local, at, consumed, self_links, ends, width):
    """The A and B outcomes of one step for the states whose consumed
    registers hold the partners in ``local`` (fields of ``width``
    bits): for each, the ``flip`` that clears the consumed fields and
    links the outward ends, the A-shift, and the number of circles it
    closes, which indexes ``_Matchings.factors``.  ``consumed[j]`` sits at
    slot ``at[j]``, and ``ends[s]`` is the register an opened slot s
    goes to.  A consumed partner links two slots as a self-arc does; a
    kept partner makes the slot an outward end at the partner's
    register, as an opened arc is, and that register, which held the
    consumed one, is rewritten by every outcome, as every outward end
    is joined to another."""
    field = (1 << width) - 1
    pattern, ends = list(self_links), list(ends)
    clear = local
    for s, r in zip(at, consumed):
        p = (local >> (r * width)) & field
        if p in consumed:
            pattern[s] = at[consumed.index(p)]
        else:
            ends[s] = p
            clear ^= r << (p * width)
    rules = []
    for pairs, shift, circles in _pattern_rule(tuple(pattern)):
        flip = clear
        for s, t in pairs:
            flip ^= (ends[t] << (ends[s] * width)) | \
                (ends[s] << (ends[t] * width))
        rules.append((flip, shift, circles))
    return rules


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


# (pd, m) -> the bracket of the m-parallel of pd
_BRACKET_CACHE = {}


def _cable_bracket(pd, m):
    """Bracket of the m-parallel of pd, memoized in ``_BRACKET_CACHE``."""
    key = (pd, m)
    if key not in _BRACKET_CACHE:
        _BRACKET_CACHE[key] = _bracket_raw(*_cable(pd, m), _LIMIT_MB << 20)[0]
    return _BRACKET_CACHE[key]


def _cabled_colored_jones(pd, n):
    """The colored Jones polynomial at color n by the cabled bracket: the
    cross-check of ``bracket_colored_jones``, on no user path.

    Cables the diagram, expands the bracket of the cables along the
    Chebyshev recursion, corrects for the writhe framing, and divides
    by the unknot value.  Each cable's bracket is a frontier state sum
    of matchings, at 2N + 3 bits a coefficient for N cable crossings
    (see ``_bracket_raw``), under the default budget of ``_LIMIT_MB``
    MiB.  At color 4, 8_19 peaks at about 327 MiB and 9_42 at about
    295 MiB.
    """
    if n < 0:
        raise ValueError("color must be nonnegative")
    pd = validate_pd(pd)
    if n == 0:
        return LaurentPoly.one()
    w = _classify(pd)[0].writhe

    # <cable_n> = sum_i (-1)^i C(n-i, i) <parallel_(n-2i)>
    total = LaurentPoly()
    for i in range(n // 2 + 1):
        total += ((-1) ** i * comb(n - i, i)
                  * _cable_bracket(pd, n - 2 * i))

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
    closed form of an adequate side.  The sources are the numerator of
    Morton's formula for torus knots (``morton_degrees``), the bundled
    degree files for named knots, the vertex model at colors 0..2
    extended by the family's generating functions for pretzel knots,
    and the vertex model for ``pd:`` diagrams; an ``alt:`` spec is
    adequate on both sides.  Every spec computes its degrees for the
    unmirrored knot, and the one mirror rule of ``knots._Spec`` turns
    (dmax, dmin) into (-dmin, -dmax).
    """
    combine = _KINDS.get(kind)
    if combine is None:
        raise ValueError("unknown degree kind %r" % kind)
    return combine(*spec.degrees(n_max, limit_mb))
