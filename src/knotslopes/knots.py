"""Knot descriptions, planar diagrams, and the bundled data tables.

A planar diagram (PD) is a list of crossings ``(a, b, c, d)`` listing
the four incident arc labels counterclockwise, starting from the
incoming under-strand arc.  The under-strand runs a -> c; the
over-strand occupies b and d.

Knots enter through a small grammar:

    torus:a,b | pretzel:-2,3,p | alt:c+,c-,|A|,|B| | pd:[...] | name:<key>

with an optional ``mirror:`` prefix.  Each kind is a frozen value that
answers every per-knot question of the pipeline: ``degrees`` up to a
color, the ``polynomial`` at one color, ``default_colors``,
``diagram_stats``, ``alternating_data`` (only ``alt:`` specs and
reduced alternating diagrams get the alternating checks) and
``boundary_slopes``.  The ``pretzel:``, ``name:`` and ``pd:`` kinds
read their degrees off a diagram by the one rule of ``_DiagramSpec``.
A kind answers for the unmirrored knot, and one rule in ``_Spec``
applies the mirror: degrees (dmax, dmin) become (-dmin, -dmax), the
polynomial takes q -> 1/q, diagram counts swap c+ with c- and |A| with
|B|, and finite boundary slopes are negated.  A mirror torus knot is
Torus(a, -b); every other spec carries a ``mirror`` flag.
"""

import functools
import os
import re
from fractions import Fraction
from math import gcd

__all__ = [
    "Torus", "Pretzel237", "AlternatingData", "Diagram", "Named",
    "parse_knot", "DiagramStats", "validate_pd", "mirror_pd",
    "smoothing_counts", "braid_pd", "pretzel_pd", "torus_pd",
    "two_bridge_pd", "INFINITY", "load_slope_db", "load_knot_table",
    "bundled_slope_db", "bundled_knot_table",
]

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# ---------------------------------------------------------------------------
# knot specifications


def _split(pairs):
    """The maximum-degree and minimum-degree lists of (max, min) pairs."""
    return [hi for hi, _ in pairs], [lo for _, lo in pairs]


class _Frozen:
    """Immutable value whose fields are the keywords its constructor
    passes to ``_Frozen.__init__``.  As for a frozen dataclass, equality,
    hashing and repr go by the fields, and assignment raises
    ``dataclasses.FrozenInstanceError``.  Importing ``dataclasses`` itself,
    with the ``inspect`` module it loads, would add half again to the
    start-up of every command line call (Python 3.11, 2-core Xeon VM)."""

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % field for field in vars(self).items()))


class _Spec(_Frozen):
    """The per-knot answers of a spec kind.  A kind computes each one for
    the unmirrored knot in the underscored methods, and the public
    methods apply the mirror rule.  Layer functions are looked up on
    their modules at call time, so a wrapper on a module attribute sees
    every call."""

    def render(self):
        return ("mirror:" if self.mirror else "") + self._render()

    def degrees(self, n_max, limit_mb=None):
        """Maximum- and minimum-degree lists for colors 0..n_max.  A
        negative n_max is refused before any work."""
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        dmax, dmin = self._degrees(n_max, limit_mb)
        if self.mirror:
            return [-v for v in dmin], [-v for v in dmax]
        return dmax, dmin

    def polynomial(self, n, limit_mb=None):
        """The colored Jones polynomial at color n."""
        j = self._polynomial(n, limit_mb)
        return j.mirror() if self.mirror else j

    def diagram_stats(self):
        """Signed crossing and smoothing-circle counts of the diagram."""
        st = self._diagram_stats()
        if self.mirror:
            return DiagramStats(st.c_minus, st.c_plus,
                                st.b_circles, st.a_circles)
        return st

    def boundary_slopes(self, db=None):
        """Boundary-slope set from a closed form or the table db, or
        None when there is no data.  The default table is the bundled
        ``data/boundary_slopes.tsv`` (``bundled_slope_db``)."""
        if db is None:
            db = bundled_slope_db()
        slopes = self._boundary_slopes(db)
        if slopes is None or not self.mirror:
            return slopes
        return frozenset(s if s is INFINITY else -s for s in slopes)

    def alternating_data(self):
        """Data for the alternating-knot checks, or None when the spec
        does not get them."""
        return None

    def _degrees(self, n_max, limit_mb):
        polys = (self._polynomial(n, limit_mb) for n in range(n_max + 1))
        return _split([(j.deg(), j.mindeg()) for j in polys])

    def _boundary_slopes(self, db):
        return None


class Torus(_Spec):
    """The (a,b) torus knot; a negative b denotes the mirror image."""

    def __init__(self, a, b):
        if gcd(a, abs(b)) != 1:
            raise ValueError("torus parameters must be coprime: (%d,%d)"
                             % (a, b))
        if a < 2 or abs(b) < 2:
            raise ValueError(
                "torus parameters must be at least 2 in magnitude")
        super().__init__(a=a, b=b)

    @property
    def mirror(self):
        return self.b < 0

    def render(self):
        return "torus:%d,%d" % (self.a, self.b)

    def default_colors(self):
        return 16

    def _polynomial(self, n, limit_mb):
        from . import engine
        return engine.morton_colored_jones(self.a, abs(self.b), n)

    def _diagram_stats(self):
        return smoothing_counts(torus_pd(self.a, abs(self.b)))

    def _boundary_slopes(self, db):
        return frozenset({Fraction(0), Fraction(self.a * abs(self.b))})


class AlternatingData(_Spec):
    """Crossing and smoothing-circle counts of a reduced alternating diagram."""

    def __init__(self, c_plus, c_minus, a_circles, b_circles, mirror=False):
        if min(c_plus, c_minus) < 0 or min(a_circles, b_circles) < 1:
            raise ValueError("counts out of range")
        if a_circles + b_circles != c_plus + c_minus + 2:
            raise ValueError(
                "|A|+|B| must equal c+2: got %d+%d != %d+2"
                % (a_circles, b_circles, c_plus + c_minus))
        super().__init__(c_plus=c_plus, c_minus=c_minus, a_circles=a_circles,
                         b_circles=b_circles, mirror=mirror)

    def _render(self):
        return "alt:%d,%d,%d,%d" % (self.c_plus, self.c_minus,
                                    self.a_circles, self.b_circles)

    def default_colors(self):
        return 20

    def alternating_data(self):
        return self

    def _degrees(self, n_max, limit_mb):
        from . import closedforms
        st = self._diagram_stats()
        return _split([closedforms.adequate_degrees(st, n)
                       for n in range(n_max + 1)])

    def _polynomial(self, n, limit_mb):
        raise ValueError("no polynomial route for %s specs; alt: data only "
                         "determines degrees" % self.render())

    def _diagram_stats(self):
        return DiagramStats(self.c_plus, self.c_minus,
                            self.a_circles, self.b_circles)


class _DiagramSpec(_Spec):
    """Answers read off the planar diagram ``pd``.  Degrees follow one
    rule: ``closedforms.adequate_degrees`` when both sides are adequate,
    else the kind's ``_source_degrees`` (by default the bracket), whose
    adequate side must equal that closed form at every color."""

    def default_colors(self):
        if self.alternating_data() is not None:
            return 20
        if not self.pd:
            return 6
        from . import engine
        raise engine.EngineLimitError(
            "a non-alternating diagram without bundled degrees has no "
            "default color depth: every color is a cabled state sum that "
            "costs about a hundred times the one before; pass --max-n")

    def alternating_data(self):
        """Counts of an alternating diagram adequate on both sides."""
        st, alternating, *adequate = _classify(self.pd)
        if not (alternating and all(adequate)):
            return None
        return AlternatingData(st.c_plus, st.c_minus, st.a_circles,
                               st.b_circles, self.mirror)

    def _degrees(self, n_max, limit_mb):
        from . import closedforms
        st, _, *adequate = _classify(self.pd)
        forms = _split([closedforms.adequate_degrees(st, n)
                        for n in range(n_max + 1)] if any(adequate) else [])
        if all(adequate):
            return forms
        got = self._source_degrees(n_max, limit_mb)
        for side, name in enumerate(("maximum", "minimum")):
            if adequate[side] and got[side] != forms[side]:
                raise AssertionError(
                    "%s: %s degrees %s differ from the closed form %s" % (
                        self._render(), name, " ".join(map(str, got[side])),
                        " ".join(map(str, forms[side]))))
        return got

    _source_degrees = _Spec._degrees

    def _polynomial(self, n, limit_mb):
        from . import engine
        return engine.bracket_colored_jones(self.pd, n, limit_mb=limit_mb)

    def _diagram_stats(self):
        return _classify(self.pd)[0]


class Diagram(_DiagramSpec):
    """An explicit planar diagram."""

    def __init__(self, pd, mirror=False):
        super().__init__(pd=validate_pd(pd), mirror=mirror)

    def _render(self):
        return "pd:[%s]" % ",".join("(%d,%d,%d,%d)" % x for x in self.pd)


class Named(_DiagramSpec):
    """A knot resolved through the bundled table; its degree source is
    the bundled degree files when they exist, else the bracket."""

    def __init__(self, name, mirror=False):
        if name not in bundled_knot_table():
            raise ValueError("unknown knot name %r" % name)
        super().__init__(name=name, mirror=mirror)

    @property
    def pd(self):
        return bundled_knot_table()[self.name]

    def _render(self):
        return "name:" + self.name

    def default_colors(self):
        from . import engine
        if engine.bundled_degrees_available(self.name):
            return 20
        return super().default_colors()

    def _source_degrees(self, n_max, limit_mb):
        from . import engine
        if engine.bundled_degrees_available(self.name):
            return engine.bundled_degrees(self.name, n_max)
        return super()._source_degrees(n_max, limit_mb)

    def _boundary_slopes(self, db):
        return db.get(self.name)


class Pretzel237(_DiagramSpec):
    """The (-2, 3, p) pretzel knot for odd p.  Its diagram is adequate on
    one side only; its degree source is ``closedforms.pretzel_degrees``."""

    def __init__(self, p, mirror=False):
        if p % 2 == 0:
            raise ValueError("pretzel parameter p must be odd, got %d" % p)
        super().__init__(p=p, mirror=mirror)

    @property
    def pd(self):
        return _pretzel237_pd(self.p)

    def _render(self):
        return "pretzel:-2,3,%d" % self.p

    def default_colors(self):
        from . import closedforms
        period, _, _ = closedforms.pretzel_slopes(self.p)
        return max(20, 3 * period + 6)

    def _source_degrees(self, n_max, limit_mb):
        from . import closedforms
        return closedforms.pretzel_degrees(self.p, n_max, limit_mb=limit_mb)

    def _boundary_slopes(self, db):
        """The family formula for p >= 7 and p <= -1; table rows for the
        exceptional p in {1, 3, 5}."""
        if self.p >= 7 or self.p <= -1:
            from . import closedforms
            return frozenset(closedforms.pretzel_boundary_slopes(self.p))
        return db.get(self._render())


@functools.cache
def _pretzel237_pd(p):
    return pretzel_pd([-2, 3, p])


_PD_TUPLE_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_knot(text):
    """Parse a knot specification string into a spec object."""
    s = text.strip()
    mirror = s.startswith("mirror:")
    if mirror:
        s = s[len("mirror:"):]
    kind = s[:s.find(":") + 1]
    body = s[len(kind):]
    if kind in ("torus:", "pretzel:", "alt:"):
        try:
            parts = [int(x) for x in body.split(",")]
        except ValueError:
            raise ValueError("knot spec %r needs integer parameters"
                             % text) from None
    if kind == "torus:":
        if len(parts) != 2:
            raise ValueError("torus spec needs two parameters: %r" % text)
        a, b = parts
        return Torus(a, -b if mirror else b)
    if kind == "pretzel:":
        if len(parts) != 3 or parts[0] != -2 or parts[1] != 3:
            raise ValueError("only the (-2,3,p) pretzel family is supported: %r" % text)
        return Pretzel237(parts[2], mirror=mirror)
    if kind == "alt:":
        if len(parts) != 4:
            raise ValueError("alt spec needs c+,c-,|A|,|B|: %r" % text)
        return AlternatingData(*parts, mirror=mirror)
    if kind == "pd:":
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("pd spec must be bracketed: %r" % text)
        inner = body[1:-1].strip()
        tuples = []
        pos = 0
        while pos < len(inner):
            m = _PD_TUPLE_RE.match(inner, pos)
            if not m:
                raise ValueError("malformed pd tuple at %r" % inner[pos:])
            tuples.append(tuple(int(g) for g in m.groups()))
            pos = m.end()
            while pos < len(inner) and inner[pos] in ", ":
                pos += 1
        return Diagram(tuple(tuples), mirror=mirror)
    if kind == "name:":
        return Named(body, mirror=mirror)
    raise ValueError("unrecognized knot spec %r" % text)


# ---------------------------------------------------------------------------
# planar diagram validation and statistics


class DiagramStats(_Frozen):
    """Signed crossing counts and smoothing-circle counts of a diagram."""

    def __init__(self, c_plus, c_minus, a_circles, b_circles):
        super().__init__(c_plus=c_plus, c_minus=c_minus,
                         a_circles=a_circles, b_circles=b_circles)

    @property
    def writhe(self):
        return self.c_plus - self.c_minus


def _arc_endpoints(pd):
    """Map each arc label to its two (crossing, slot) endpoints."""
    ends = {}
    for ci, cr in enumerate(pd):
        if len(cr) != 4:
            raise ValueError("crossing %d does not have four arcs" % ci)
        for slot, arc in enumerate(cr):
            ends.setdefault(arc, []).append((ci, slot))
    for arc, lst in ends.items():
        if len(lst) != 2:
            raise ValueError("arc %d appears %d times, expected 2" % (arc, len(lst)))
    return ends


def _component_walk(pd, ends):
    """Walk the strand from crossing 0; return the entry slot used at each
    crossing visit as a dict {(crossing, entry_slot): order}."""
    entries = {}
    # start on the under-strand of crossing 0, entering at slot 0
    ci, entry = 0, 0
    for step in range(2 * len(pd) + 1):
        if (ci, entry) in entries:
            if (ci, entry) != (0, 0):
                raise ValueError("strand walk closed early: not a single component")
            break
        entries[(ci, entry)] = step
        exit_slot = (entry + 2) % 4
        arc = pd[ci][exit_slot]
        (c1, s1), (c2, s2) = ends[arc]
        if (c1, s1) == (ci, exit_slot):
            ci, entry = c2, s2
        else:
            ci, entry = c1, s1
    if len(entries) != 2 * len(pd):
        raise ValueError("diagram has more than one component")
    return entries


def validate_pd(pd):
    """Check a PD code and return it as a tuple of 4-tuples.

    Requirements: every arc appears exactly twice, the diagram is a
    single closed component, the walk enters every under-strand at
    slot 0 (the PD orientation convention), and the rotation system is
    planar by the Euler formula.
    """
    pd = tuple(tuple(int(x) for x in cr) for cr in pd)
    if not pd:
        return pd  # the 0-crossing unknot
    ends = _arc_endpoints(pd)
    if len(ends) != 2 * len(pd):
        raise ValueError("a knot diagram with %d crossings needs %d arcs"
                         % (len(pd), 2 * len(pd)))
    entries = _component_walk(pd, ends)
    for (ci, entry) in entries:
        if entry == 2:
            raise ValueError(
                "crossing %d is entered at the outgoing under slot; "
                "arc direction violates the PD convention" % ci)
    # planarity: count faces of the rotation system
    faces = 0
    seen = set()
    for arc in ends:
        for start in range(2):
            if (arc, start) in seen:
                continue
            a, t = arc, start
            while (a, t) not in seen:
                seen.add((a, t))
                ci, slot = ends[a][t]
                nslot = (slot + 1) % 4
                narc = pd[ci][nslot]
                (c1, s1), (c2, s2) = ends[narc]
                if (c1, s1) == (ci, nslot):
                    a, t = narc, 1
                else:
                    a, t = narc, 0
            faces += 1
    v, e = len(pd), 2 * len(pd)
    if v - e + faces != 2:
        raise ValueError("diagram is not planar: V-E+F = %d" % (v - e + faces))
    return pd


def mirror_pd(pd):
    """Mirror image: switch over/under at every crossing.

    Rotating each tuple by one slot swaps the strand roles while keeping
    the counterclockwise reading; the result is re-canonicalized so the
    incoming under-strand sits in the first slot again.
    """
    rotated = [(b, c, d, a) for (a, b, c, d) in pd]
    return canonical_pd(rotated)


def canonical_pd(pd):
    """Rotate crossing tuples so each lists its incoming under-arc first.

    Accepts tuples whose under-strand occupies slots 0 and 2 in either
    direction, walks the component once, and rotates by two slots where
    the walk enters at slot 2.
    """
    pd = tuple(tuple(int(x) for x in cr) for cr in pd)
    if not pd:
        return pd
    entries = _component_walk(pd, _arc_endpoints(pd))
    fixed = []
    for ci, cr in enumerate(pd):
        if (ci, 0) in entries:
            fixed.append(cr)
        elif (ci, 2) in entries:
            fixed.append((cr[2], cr[3], cr[0], cr[1]))
        else:
            raise ValueError("walk never entered the under-strand of crossing %d" % ci)
    return validate_pd(tuple(fixed))


def smoothing_counts(pd):
    """Crossing signs and A/B smoothing circle counts for a diagram.

    The A smoothing joins the counterclockwise-adjacent arc pairs
    (slots 0,1) and (slots 2,3); the B smoothing joins (1,2) and (3,0).
    A crossing is positive when the strand walk traverses its over-strand
    from the fourth listed arc to the second.
    """
    pd = validate_pd(pd)
    if not pd:
        return DiagramStats(0, 0, 1, 1)
    ends = _arc_endpoints(pd)
    entries = _component_walk(pd, ends)
    c_plus = c_minus = 0
    for ci in range(len(pd)):
        if (ci, 3) in entries:
            c_plus += 1
        elif (ci, 1) in entries:
            c_minus += 1
        else:
            raise ValueError("crossing %d has no over-strand entry" % ci)
    a_circles = _circle_count(pd, ((0, 1), (2, 3)))
    b_circles = _circle_count(pd, ((1, 2), (3, 0)))
    return DiagramStats(c_plus, c_minus, a_circles, b_circles)


def _circle_count(pd, pairing):
    return len(set(_state_circles(pd, pairing).values()))


def _adequate(pd, pairing):
    """True when no crossing's smoothing by pairing meets the same state
    circle twice."""
    circle = _state_circles(pd, pairing)
    (i, _), (k, _) = pairing
    return all(circle[cr[i]] != circle[cr[k]] for cr in pd)


@functools.cache
def _classify(pd):
    """``smoothing_counts`` of a diagram, whether it alternates, and
    whether its all-B and its all-A state are adequate; cached, as a
    spec asks for it for its colors, degrees and checks, and the bracket
    for the writhe."""
    return (smoothing_counts(pd), is_alternating(pd),
            _adequate(pd, ((1, 2), (3, 0))), _adequate(pd, ((0, 1), (2, 3))))


def _state_circles(pd, pairing):
    """Arc -> a label of its circle in the state that smooths every
    crossing by pairing."""
    arcs = sorted({arc for cr in pd for arc in cr})
    parent = {a: a for a in arcs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for cr in pd:
        for i, j in pairing:
            union(cr[i], cr[j])
    return {a: find(a) for a in arcs}


def is_alternating(pd):
    """True when the strand walk alternates under and over passes."""
    pd = validate_pd(pd)
    if not pd:
        return False
    ends = _arc_endpoints(pd)
    entries = _component_walk(pd, ends)
    order = {step: slot for (ci, slot), step in entries.items()}
    kinds = [0 if order[s] == 0 else 1 for s in range(len(order))]
    return all(kinds[i] != kinds[(i + 1) % len(kinds)] for i in range(len(kinds)))


# ---------------------------------------------------------------------------
# diagram generators

class _Builder:
    """Accumulates crossings over provisional arc tokens, then resolves
    token identifications into a canonical PD."""

    def __init__(self):
        self.crossings = []
        self.parent = []

    def token(self):
        t = len(self.parent)
        self.parent.append(t)
        return t

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry

    def crossing(self, a, b, c, d):
        self.crossings.append((a, b, c, d))

    def finish(self):
        labels = {}
        out = []
        for cr in self.crossings:
            resolved = []
            for t in cr:
                r = self.find(t)
                if r not in labels:
                    labels[r] = len(labels) + 1
                resolved.append(labels[r])
            out.append(tuple(resolved))
        return canonical_pd(out)


def _twist_pair(builder, left, right, count):
    """Run ``abs(count)`` crossings between two downward strands.

    Positive count gives positive crossings: the left strand dives
    under toward the lower right.  Returns the outgoing (left, right)
    tokens.
    """
    for _ in range(abs(count)):
        out_l = builder.token()
        out_r = builder.token()
        if count > 0:
            # incoming under at NW (left): CCW order NW, SW, SE, NE
            builder.crossing(left, out_l, out_r, right)
        else:
            # incoming under at NE (right): CCW order NE, NW, SW, SE
            builder.crossing(right, left, out_l, out_r)
        left, right = out_l, out_r
    return left, right


def braid_pd(word, strands):
    """Trace closure of a braid word on the given number of strands.

    The word is a list of nonzero generator indices: ``+i`` crosses
    strands i and i+1 positively (left strand under), ``-i``
    negatively.
    """
    b = _Builder()
    tops = [b.token() for _ in range(strands)]
    cur = list(tops)
    touched = [False] * strands
    for g in word:
        i = abs(g) - 1
        if not (0 <= i < strands - 1):
            raise ValueError("generator %d out of range for %d strands" % (g, strands))
        cur[i], cur[i + 1] = _twist_pair(b, cur[i], cur[i + 1],
                                         1 if g > 0 else -1)
        touched[i] = touched[i + 1] = True
    if not all(touched):
        raise ValueError("closure has a free loop: some strand is never crossed")
    for j in range(strands):
        b.union(cur[j], tops[j])
    return b.finish()


def torus_pd(a, b_param):
    """Standard diagram of the (a,b) torus knot as a closed braid."""
    if gcd(a, abs(b_param)) != 1:
        raise ValueError("torus parameters must be coprime")
    word = []
    gens = list(range(1, a))
    for _ in range(abs(b_param)):
        word.extend(gens if b_param > 0 else [-g for g in gens])
    return braid_pd(word, a)


def pretzel_pd(twists):
    """Pretzel diagram with the given vertical twist counts.

    Each entry is a signed number of crossings in one vertical band;
    bands are joined left to right and closed around the outside.
    """
    if not twists or all(t == 0 for t in twists):
        raise ValueError("pretzel needs at least one twist")
    b = _Builder()
    ports = []
    for t in twists:
        tl, tr = b.token(), b.token()
        bl, br = _twist_pair(b, tl, tr, t)
        ports.append((tl, tr, bl, br))
    for j in range(len(ports) - 1):
        b.union(ports[j][1], ports[j + 1][0])      # top right to next top left
        b.union(ports[j][3], ports[j + 1][2])      # bottom right to next bottom left
    b.union(ports[0][0], ports[-1][1])             # outer top arc
    b.union(ports[0][2], ports[-1][3])             # outer bottom arc
    return b.finish()


def two_bridge_pd(partial_quotients):
    """Plat closure of a 4-strand braid built from a continued fraction.

    The entries alternate between twists of the middle pair and twists
    of the left pair; with all entries positive the diagram is
    alternating with sum(entries) crossings.
    """
    pq = [int(x) for x in partial_quotients]
    if not pq:
        raise ValueError("empty continued fraction")
    b = _Builder()
    tops = [b.token() for _ in range(4)]
    cur = list(tops)
    for i, a in enumerate(pq):
        if i % 2 == 0:
            cur[1], cur[2] = _twist_pair(b, cur[1], cur[2], a)
        else:
            cur[0], cur[1] = _twist_pair(b, cur[0], cur[1], -a)
    b.union(tops[0], tops[1])
    b.union(tops[2], tops[3])
    b.union(cur[0], cur[1])
    b.union(cur[2], cur[3])
    return b.finish()


# ---------------------------------------------------------------------------
# boundary-slope database


class _InfinitySlope:
    """The slope of the meridian; never participates in arithmetic."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __str__(self):
        return "inf"


INFINITY = _InfinitySlope()


def _parse_slope(tok):
    tok = tok.strip()
    if tok == "inf":
        return INFINITY
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError("unparseable slope %r" % tok)


def _tsv_rows(path):
    """The ``(line number, key, rest)`` rows of a ``key <TAB> rest``
    table.  ``#`` starts a comment and blank lines are skipped; a line
    without a tab, with a key seen before or that is not UTF-8 is
    rejected."""
    seen = set()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for ln, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].rstrip()
        except UnicodeDecodeError as exc:
            raise ValueError("%s:%d: %s" % (path, ln, exc)) from None
        if not line.strip():
            continue
        if "\t" not in line:
            raise ValueError("%s:%d: expected a tab separator" % (path, ln))
        key, rest = line.split("\t", 1)
        key = key.strip()
        if key in seen:
            raise ValueError("%s:%d: duplicate knot key %r" % (path, ln, key))
        seen.add(key)
        yield ln, key, rest


def load_slope_db(path):
    """Load a boundary-slope table: ``knot-key <TAB> slope(,slope)*``.

    Slopes are reduced fractions or ``inf``; ``#`` starts a comment.
    Duplicate keys and empty slopes are rejected.
    """
    return {key: frozenset(_parse_slope(t) for t in rest.split(","))
            for _, key, rest in _tsv_rows(path)}


def load_knot_table(path):
    """Load a knot table: ``knot-key <TAB> pd:[(a,b,c,d),...]``."""
    table = {}
    for ln, key, rest in _tsv_rows(path):
        rest = rest.strip()
        if not rest.startswith("pd:"):
            raise ValueError("%s:%d: expected pd:[...] entry" % (path, ln))
        table[key] = parse_knot(rest).pd
    return table


_SLOPE_DB = None
_KNOT_TABLE = None


def bundled_slope_db():
    global _SLOPE_DB
    if _SLOPE_DB is None:
        _SLOPE_DB = load_slope_db(os.path.join(DATA_DIR, "boundary_slopes.tsv"))
    return _SLOPE_DB


def bundled_knot_table():
    global _KNOT_TABLE
    if _KNOT_TABLE is None:
        _KNOT_TABLE = load_knot_table(os.path.join(DATA_DIR, "knots.tsv"))
    return _KNOT_TABLE
