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
``boundary_slopes``.  Every kind answers ``degrees`` by the one rule
of ``_Spec._degrees``: an adequate side is its closed form in the
diagram's counts, and every other side comes from the kind's
``_source_degrees``.  ``alt:`` specs are adequate on both sides and
``Torus`` specs on neither, so Morton's formula is their source: its
numerator gives both degrees without the polynomial.
The ``pretzel:``, ``name:`` and ``pd:`` kinds read their counts and
adequacy off a diagram with ``_classify``; their sources are the
vertex model's seeds plus the family's tails, the bundled ``.seq``
files and the vertex model.  Spec integers are ASCII digits.
A kind answers for the unmirrored knot, and one rule in ``_Spec``
applies the mirror: degrees (dmax, dmin) become (-dmin, -dmax), the
polynomial takes q -> 1/q, diagram counts swap c+ with c- and |A| with
|B|, and finite boundary slopes are negated.  A mirror torus knot is
Torus(a, -b); every other spec carries a ``mirror`` flag.
"""

import functools
import itertools
import operator
import os
import re
from fractions import Fraction
from math import gcd

from . import closedforms
from .quasifit import _INTEGER, _data_lines, _integer, _number

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

    # whether the maximum- and the minimum-degree side of the kind's
    # diagram are adequate; a kind without a diagram answers neither
    _adequate = (False, False)

    def _degrees(self, n_max, limit_mb):
        """The one degree rule of every kind.  An adequate side is its
        colored Lickorish-Thistlethwaite closed form in the counts of
        ``_diagram_stats``; any other side comes from ``_source_degrees``,
        whose adequate side, if it has one, must equal its closed form
        at every color.  Only an adequate side's closed form is built."""
        forms = (closedforms.adequate_max_degree,
                 closedforms.adequate_min_degree)
        adequate = self._adequate
        st = self._diagram_stats() if any(adequate) else None
        want = [[form(st, n) for n in range(n_max + 1)] if ok else None
                for form, ok in zip(forms, adequate)]
        if None not in want:
            return want
        got = self._source_degrees(n_max, limit_mb)
        for side, name in enumerate(("maximum", "minimum")):
            if want[side] is not None and got[side] != want[side]:
                raise AssertionError(
                    "%s: %s degrees %s differ from the closed form %s" % (
                        self._render(), name, " ".join(map(str, got[side])),
                        " ".join(map(str, want[side]))))
        return got

    def _source_degrees(self, n_max, limit_mb):
        """Both degree lists read off the kind's polynomials."""
        polys = (self._polynomial(n, limit_mb) for n in range(n_max + 1))
        return _unzip((j.deg(), j.mindeg()) for j in polys)

    def _boundary_slopes(self, db):
        return None


def _unzip(pairs):
    """The maximum- and the minimum-degree list of (deg, mindeg) pairs."""
    pairs = list(pairs)
    return [hi for hi, _ in pairs], [lo for _, lo in pairs]


def _check_torus(a, b):
    """Refuse torus parameters other than coprime a >= 2 and |b| >= 2;
    the message states the rule, which ``Torus`` and Morton's formula
    share."""
    if a < 2 or abs(b) < 2 or gcd(a, abs(b)) != 1:
        raise ValueError(
            "torus parameters must be coprime with a >= 2 and |b| >= 2, "
            "a negative b giving the mirror image: got (%d,%d)" % (a, b))


class Torus(_Spec):
    """The (a,b) torus knot, for coprime a >= 2 and |b| >= 2; a negative
    b denotes the mirror image.  Its polynomial is Morton's formula, and
    its degrees are read off that formula's numerator, one
    ``engine.morton_degrees`` call per color, so a color costs O(n)
    and not the polynomial, which spans O(ab n**2) degrees."""

    def __init__(self, a, b):
        _check_torus(a, b)
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

    def _source_degrees(self, n_max, limit_mb):
        """Both degree lists, one ``engine.morton_degrees`` call per
        color."""
        from . import engine
        return _unzip(engine.morton_degrees(self.a, abs(self.b), n)
                      for n in range(n_max + 1))

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

    _adequate = (True, True)

    def alternating_data(self):
        return self

    def _polynomial(self, n, limit_mb):
        raise ValueError("no polynomial route for %s specs; alt: data only "
                         "determines degrees" % self.render())

    def _diagram_stats(self):
        return DiagramStats(self.c_plus, self.c_minus,
                            self.a_circles, self.b_circles)


class _DiagramSpec(_Spec):
    """Answers read off the planar diagram ``pd``, whose adequate sides
    ``_classify`` reads; by default the other sides come from the
    vertex model."""

    def default_colors(self):
        if not self.pd:
            return 6
        if all(self._adequate):
            return 20
        from . import engine
        raise engine.EngineLimitError(
            "a diagram that is not adequate on both sides has no default "
            "color depth without bundled degrees: every color is a vertex "
            "model state sum that costs several times the one before "
            "(8_19: 0.1 s at color 5, 1.2 s at color 7); pass --max-n")

    def alternating_data(self):
        """Counts of an alternating diagram adequate on both sides."""
        st, alternating, *adequate = _classify(self.pd)
        if not (alternating and all(adequate)):
            return None
        return AlternatingData(st.c_plus, st.c_minus, st.a_circles,
                               st.b_circles, self.mirror)

    @property
    def _adequate(self):
        return _classify(self.pd)[2:]

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
    """A knot resolved through the bundled table.  Its degree source is
    the bundled degree files: every bundled diagram that is not adequate
    on both sides has both of them."""

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
        return 20

    def _source_degrees(self, n_max, limit_mb):
        from . import engine
        return engine.bundled_degrees(self.name, n_max)

    def _boundary_slopes(self, db):
        return db.get(self.name)


class Pretzel237(_DiagramSpec):
    """The (-2, 3, p) pretzel knot for odd p.  Its diagram is adequate on
    one side only.  Its degree source computes colors 0..2 by the state
    sum and hands them to ``closedforms.pretzel_degrees``, which extends
    both lists by the family's generating functions."""

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
        period, _, _ = closedforms.pretzel_slopes(self.p)
        return max(20, 3 * period + 6)

    def _source_degrees(self, n_max, limit_mb):
        seeds = super()._source_degrees(min(n_max, 2), limit_mb)
        return closedforms.pretzel_degrees(self.p, n_max, seeds)

    def _boundary_slopes(self, db):
        """The family formula for p >= 7 and p <= -1; table rows for the
        exceptional p in {1, 3, 5}."""
        if self.p >= 7 or self.p <= -1:
            return frozenset(closedforms.pretzel_boundary_slopes(self.p))
        return db.get(self._render())


@functools.cache
def _pretzel237_pd(p):
    """The (-2, 3, p) pretzel diagram."""
    return pretzel_pd([-2, 3, p])


_PD_TUPLE_RE = re.compile(
    r"\(%s\)" % ",".join([r"\s*(%s)\s*" % _INTEGER.pattern] * 4), re.ASCII)
# the one comma between two pd tuples, which something follows
_PD_COMMA_RE = re.compile(r"\s*,\s*(?=\S)")


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
            parts = [_integer(x.strip()) for x in body.split(",")]
        except ValueError as exc:
            raise ValueError("knot spec %r needs integer parameters: %s"
                             % (text, exc)) from None
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
        tuples, pos = [], 0
        while pos < len(inner):
            if tuples:
                m = _PD_COMMA_RE.match(inner, pos)
                if not m:
                    raise ValueError("expected a comma and a pd tuple at %r"
                                     % inner[pos:])
                pos = m.end()
            m = _PD_TUPLE_RE.match(inner, pos)
            if not m:
                raise ValueError("malformed pd tuple at %r" % inner[pos:])
            tuples.append(tuple(int(g) for g in m.groups()))
            pos = m.end()
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
    crossing visit as a dict {(crossing, entry_slot): step}, in walk order."""
    entries = {}
    # start on the under-strand of crossing 0, entering at slot 0; a
    # step is a bijection of (crossing, slot) pairs, so the first pair
    # the walk repeats is its start
    ci, entry = 0, 0
    while (ci, entry) not in entries:
        entries[(ci, entry)] = len(entries)
        exit_slot = (entry + 2) % 4
        arc_ends = ends[pd[ci][exit_slot]]
        ci, entry = arc_ends[arc_ends[0] == (ci, exit_slot)]  # the other end
    if len(entries) != 2 * len(pd):
        raise ValueError("diagram has more than one component")
    return entries


def _label(x):
    """An arc label as an int.  A label that is not an integer, such as
    1.9, is a ValueError naming it, not truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError("PD label %r is not an integer" % (x,)) from None


def _int_pd(pd):
    """A PD code as a tuple of 4-tuples of int labels (``_label``), not
    otherwise checked."""
    return tuple(tuple(map(_label, cr)) for cr in pd)


def _left_faces(pd, ends):
    """The faces of a diagram, each walked with the face on the left:
    after arriving at slot s of a crossing, the walk leaves by slot
    s + 3 (mod 4).  Returns the map from each arrival (crossing, slot)
    to its face's index, and each face's arrivals in walk order; face 0
    is the face of the arrival at crossing 0's slot 0."""
    face_of, faces = {}, []
    for dart in itertools.product(range(len(pd)), range(4)):
        if dart in face_of:
            continue
        walked = []
        while dart not in face_of:
            face_of[dart] = len(faces)
            walked.append(dart)
            ci, s = dart
            out = (s + 3) % 4
            arc_ends = ends[pd[ci][out]]
            dart = arc_ends[arc_ends[0] == (ci, out)]
        faces.append(walked)
    return face_of, faces


def validate_pd(pd):
    """Check a PD code and return it as a tuple of 4-tuples of int labels.

    Requirements: every label is an integer, every arc appears exactly
    twice, the diagram is a single closed component, the walk enters
    every under-strand at slot 0 (the PD orientation convention), and
    the rotation system is planar by the Euler formula.  The checks
    after the labels run once per diagram and process (``_reading``).
    """
    pd = _int_pd(pd)
    _reading(pd)
    return pd


@functools.cache
def _reading(pd):
    """``validate_pd``'s checks of a diagram of int labels, and what they
    read off it: (``_arc_endpoints``, ``_component_walk``, ``_left_faces``).
    Cached, for ``_classify`` and the vertex model's frame, which only
    read it; an invalid diagram raises on every call."""
    if not pd:
        return {}, {}, ({}, [])  # the 0-crossing unknot
    ends = _arc_endpoints(pd)
    entries = _component_walk(pd, ends)
    for (ci, entry) in entries:
        if entry == 2:
            raise ValueError(
                "crossing %d is entered at the outgoing under slot; "
                "arc direction violates the PD convention" % ci)
    # planarity: count faces of the rotation system
    faces = _left_faces(pd, ends)
    v, e, f = len(pd), 2 * len(pd), len(faces[1])
    if v - e + f != 2:
        raise ValueError("diagram is not planar: V-E+F = %d" % (v - e + f))
    return ends, entries, faces


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
    the walk enters at slot 2; the result is validated.
    """
    return validate_pd(_canonical(_int_pd(pd)))


def _canonical(pd):
    """``canonical_pd`` of a diagram of int labels, not validated."""
    if not pd:
        return pd
    entries = _component_walk(pd, _arc_endpoints(pd))
    fixed = []
    # the walk enters each of the 2n strands once, so an under-strand it
    # does not enter at slot 0 it enters at slot 2
    for ci, cr in enumerate(pd):
        if (ci, 0) in entries:
            fixed.append(cr)
        else:
            fixed.append((cr[2], cr[3], cr[0], cr[1]))
    return tuple(fixed)


def smoothing_counts(pd):
    """Crossing signs and A/B smoothing circle counts for a diagram, read
    off its classification (``_classify``).

    The A smoothing joins the counterclockwise-adjacent arc pairs
    (slots 0,1) and (slots 2,3); the B smoothing joins (1,2) and (3,0).
    A crossing is positive when the strand walk traverses its over-strand
    from the fourth listed arc to the second.
    """
    return _classify(validate_pd(pd))[0]


def is_alternating(pd):
    """True when the strand walk alternates under and over passes."""
    return _classify(validate_pd(pd))[1]


_A_PAIRING = ((0, 1), (2, 3))
_B_PAIRING = ((1, 2), (3, 0))


@functools.cache
def _classify(pd):
    """The ``DiagramStats`` of a diagram, whether it alternates, and
    whether its all-B and its all-A state are adequate.

    The strand walk (``_reading``) gives the crossing signs and the
    alternation, and one circle labelling per state gives that state's
    circle count and its adequacy: no crossing's smoothing meets the
    same state circle twice.  Cached, as a spec asks for it for its
    colors, degrees and checks, and both evaluators for the writhe.
    """
    if not pd:
        return DiagramStats(0, 0, 1, 1), False, True, True
    entries = _reading(pd)[1]
    slots = [slot for _, slot in entries]  # entry slots in walk order
    unders = [slot == 0 for slot in slots]
    alternating = all(u != v for u, v in zip(unders, unders[1:] + unders[:1]))
    circles, adequate = [], []
    for pairing in (_A_PAIRING, _B_PAIRING):
        circle = _state_circles(pd, pairing)
        (i, _), (k, _) = pairing
        circles.append(len(set(circle.values())))
        adequate.append(all(circle[cr[i]] != circle[cr[k]] for cr in pd))
    return (DiagramStats(slots.count(3), slots.count(1), *circles),
            alternating, adequate[1], adequate[0])


def _state_circles(pd, pairing):
    """Arc -> a label of its circle in the state that smooths every
    crossing by pairing."""
    parent = {arc: arc for cr in pd for arc in cr}
    for cr in pd:
        for i, j in pairing:
            _union(parent, cr[i], cr[j])
    return {arc: _find(parent, arc) for arc in parent}


def _find(parent, x):
    """Root of x in the union-find forest ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y):
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[rx] = ry


# ---------------------------------------------------------------------------
# diagram generators

class _Builder:
    """Accumulates crossings over provisional arc tokens, identified by
    ``_union`` in the forest ``parent``, then resolves them into a
    canonical PD, which the caller validates.  A token whose arc meets
    no crossing lies on a loop of the closure that no crossing touches,
    which is refused."""

    def __init__(self):
        self.crossings = []
        self.parent = []

    def token(self):
        t = len(self.parent)
        self.parent.append(t)
        return t

    def crossing(self, a, b, c, d):
        self.crossings.append((a, b, c, d))

    def finish(self):
        labels = {}  # token root -> arc label, numbered by first use
        out = [tuple(labels.setdefault(_find(self.parent, t), len(labels) + 1)
                     for t in cr) for cr in self.crossings]
        if any(_find(self.parent, t) not in labels
               for t in range(len(self.parent))):
            raise ValueError("closure has a free loop")
        return _canonical(tuple(out))


def _twist_pair(builder, left, right, count):
    """Run ``abs(count)`` crossings between two downward strands.

    Positive count gives positive crossings: the left strand dives
    under toward the lower right.  Returns the outgoing (left, right)
    tokens.  A count that is not an integer is a TypeError.
    """
    count = operator.index(count)
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
    for g in word:
        i = abs(g) - 1
        if not (0 <= i < strands - 1):
            raise ValueError("generator %d out of range for %d strands" % (g, strands))
        cur[i], cur[i + 1] = _twist_pair(b, cur[i], cur[i + 1],
                                         1 if g > 0 else -1)
    for j in range(strands):
        _union(b.parent, cur[j], tops[j])
    return validate_pd(b.finish())


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
        # top right to next top left, bottom right to next bottom left
        _union(b.parent, ports[j][1], ports[j + 1][0])
        _union(b.parent, ports[j][3], ports[j + 1][2])
    _union(b.parent, ports[0][0], ports[-1][1])  # outer top arc
    _union(b.parent, ports[0][2], ports[-1][3])  # outer bottom arc
    return validate_pd(b.finish())


def two_bridge_pd(partial_quotients):
    """Plat closure of a 4-strand braid built from a continued fraction.

    The entries alternate between twists of the middle pair and twists
    of the left pair; with all entries positive the diagram is
    alternating with sum(entries) crossings.
    """
    b = _Builder()
    tops = [b.token() for _ in range(4)]
    cur = list(tops)
    for i, a in enumerate(partial_quotients):
        if i % 2 == 0:
            cur[1], cur[2] = _twist_pair(b, cur[1], cur[2], a)
        else:
            cur[0], cur[1] = _twist_pair(b, cur[0], cur[1], -a)
    _union(b.parent, tops[0], tops[1])
    _union(b.parent, tops[2], tops[3])
    _union(b.parent, cur[0], cur[1])
    _union(b.parent, cur[2], cur[3])
    return validate_pd(b.finish())


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


def _parse_slope(tok, where):
    tok = tok.strip()
    if tok == "inf":
        return INFINITY
    try:
        return _number(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError("%s: unparseable slope %r" % (where, tok)) from None


def _tsv_rows(path):
    """The ``(line number, key, rest)`` rows of a ``key <TAB> rest``
    table, read by ``_data_lines``; a line without a tab or with a key
    seen before is rejected."""
    seen = set()
    for ln, line in _data_lines(path):
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
    return {key: frozenset(_parse_slope(t, "%s:%d" % (path, ln))
                           for t in rest.split(","))
            for ln, key, rest in _tsv_rows(path)}


def load_knot_table(path):
    """Load a knot table: ``knot-key <TAB> pd:[(a,b,c,d),...]``, each
    diagram validated."""
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
