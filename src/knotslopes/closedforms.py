"""Closed-form degree formulas: adequate diagrams, torus knots, and
the (-2, 3, p) pretzel family.

An adequate side of a diagram has an exact quadratic degree in the
diagram's counts (``adequate_degrees``), and torus degrees are a plain
formula in (a, b).  The (-2, 3, p) pretzel diagram is adequate on one
side only; its other side is known only through the generating function
of its third difference, anchored by evaluating the state sum at colors
one and two and then extended by the third-order recurrence the
generating function encodes.  A request for colors 0..n grows the cached
lists to n in one pass, with the generating function expanded once for
the whole extension.
"""

from fractions import Fraction

from .knots import Pretzel237, _Frozen
from .quasifit import RationalGF, _cyclotomic_split

__all__ = [
    "AlternatingInvariants", "alt_invariants", "adequate_degrees",
    "alt_symmetrized", "torus_degrees",
    "pretzel_degrees", "pretzel_slopes", "pretzel_boundary_slopes",
]


class AlternatingInvariants(_Frozen):
    """Crossing number, writhe, and signature of an alternating knot.

    The signed crossing counts are derived: c_plus = (c + w) / 2 and
    c_minus = (c - w) / 2.
    """

    def __init__(self, c, w, sigma):
        super().__init__(c=Fraction(c), w=Fraction(w), sigma=Fraction(sigma))

    @property
    def c_plus(self):
        return (self.c + self.w) / 2

    @property
    def c_minus(self):
        return (self.c - self.w) / 2


def alt_invariants(data):
    """Invariants of the alternating knot the smoothing data describes.

    The signature comes out of the smoothing-circle counts: it equals
    a_circles - 1 - c_plus, and the count identity |A| + |B| = c + 2
    guarantees the B-side expression -b_circles + 1 + c_minus agrees.
    A mirror flag on the data applies through ``diagram_stats``.
    """
    st = data.diagram_stats()
    sigma = st.a_circles - 1 - st.c_plus
    return AlternatingInvariants(st.c_plus + st.c_minus, st.writhe, sigma)


def adequate_degrees(st, n):
    """The colored Lickorish-Thistlethwaite degrees (dmax, dmin) at color
    n of a diagram with the counts st (a ``DiagramStats``).  dmax is the
    maximum degree when the all-B state is adequate, and dmin the
    minimum degree when the all-A state is; a reduced alternating
    diagram is adequate on both sides."""
    return (Fraction(st.c_plus * n * n + (st.writhe + st.b_circles - 1) * n,
                     2),
            Fraction(-st.c_minus * n * n + (st.writhe - st.a_circles + 1) * n,
                     2))


def alt_symmetrized(inv, n):
    """Degree sum and degree span of the color-n Jones polynomial of an
    alternating knot, straight from (c, w, sigma)."""
    dm = inv.w / 2 * n * n + (inv.w - 2 * inv.sigma) / 2 * n
    dp = inv.c / 2 * n * n + inv.c / 2 * n
    return dm, dp


def torus_degrees(a, b, n):
    """Maximum and minimum degree of the color-n Jones polynomial of the
    positive (a, b) torus knot."""
    from math import gcd
    if a < 2 or b < 2 or gcd(a, b) != 1:
        raise ValueError("need coprime torus parameters >= 2, got (%d, %d)"
                         % (a, b))
    parity = (1 - (-1) ** n)
    delta = (Fraction(a * b, 4) * n * n + Fraction(a * b - 1, 2) * n
             - Fraction(parity * (a - 2) * (b - 2), 8))
    delta_star = Fraction((a - 1) * (b - 1), 2) * n
    return delta, delta_star


# ---------------------------------------------------------------------------
# the (-2, 3, p) pretzel family


def _pretzel_tails(p):
    """Generating functions of the third differences of (delta, delta*)
    for the (-2, 3, p) pretzel knot; None marks a side whose third
    difference vanishes identically (the degree is an exact quadratic
    there, pinned by the first three values)."""
    if p > 0:
        if p >= 7:
            num = [Fraction(0)] * (p - 7) + [Fraction(1), Fraction(-1)]
            gmax = RationalGF(num, _cyclotomic_split(p - 3, 1))
        elif p == 5:
            gmax = RationalGF([-3], {2: 1})
        elif p == 3:
            gmax = RationalGF([-2], {2: 1})
        else:
            gmax = None
        return gmax, None
    q = -p
    if p == -1:
        gmin = None
    elif p == -3:
        gmin = RationalGF([-4, -4, -3, -1], {3: 2})
    else:
        num = [Fraction(0)] * (q - 4) + [Fraction(1), Fraction(-2)]
        num += [Fraction(-1)] * (q - 1)
        den = {d: 2 for d in range(2, q + 1) if q % d == 0}
        gmin = RationalGF(num, den)
    return None, gmin


# (p, limit_mb) -> (dmax, dmin), grown in place by pretzel_degrees; a new
# budget recomputes the seeds through the bracket memo, which re-checks it
_PRETZEL_CACHE = {}


def _pretzel_seeds(p, limit_mb):
    from .engine import bracket_colored_jones
    pd = Pretzel237(p).pd
    dmax, dmin = [Fraction(0)], [Fraction(0)]
    for n in (1, 2):
        j = bracket_colored_jones(pd, n, limit_mb=limit_mb)
        dmax.append(Fraction(j.deg()))
        dmin.append(Fraction(j.mindeg()))
    return dmax, dmin


def _extend(vals, tail_gf, n_max):
    """Grow a degree list to index n_max in one pass of the recurrence
    f(n+3) = d3(n) + 3 f(n+2) - 3 f(n+1) + f(n), where d3 is the series
    of tail_gf (identically zero when tail_gf is None), expanded once
    for the whole extension."""
    if len(vals) > n_max:
        return
    d3 = tail_gf.series(n_max - 2) if tail_gf is not None else None
    for i in range(len(vals) - 3, n_max - 2):
        step = d3[i] if d3 is not None else 0
        vals.append(step + 3 * vals[-1] - 3 * vals[-2] + vals[-3])


def pretzel_degrees(p, n_max, limit_mb=None):
    """Maximum- and minimum-degree lists of the colored Jones polynomial
    of the (-2, 3, p) pretzel knot for colors 0..n_max, for odd p.

    Each side is extended from state sum evaluations at colors one and
    two by the generating function of its third difference, which is
    zero on the side where the diagram is adequate; ``Pretzel237``
    checks that side against ``adequate_degrees`` at every color.  The
    lists are cached per p and budget and grow to n_max in one pass;
    the caller gets copies.
    """
    if p % 2 == 0:
        raise ValueError("pretzel parameter p must be odd, got %d" % p)
    if n_max < 0:
        raise ValueError("color must be nonnegative")
    cache = _PRETZEL_CACHE.get((p, limit_mb))
    if cache is None:
        cache = _PRETZEL_CACHE[p, limit_mb] = _pretzel_seeds(p, limit_mb)
    dmax, dmin = cache
    gmax, gmin = _pretzel_tails(p)
    _extend(dmax, gmax, n_max)
    _extend(dmin, gmin, n_max)
    return dmax[:n_max + 1], dmin[:n_max + 1]


def pretzel_slopes(p):
    """Jones period and both Jones slopes of the (-2, 3, p) pretzel knot
    as the triple (period, js, js_star), for odd p."""
    if p % 2 == 0:
        raise ValueError("pretzel parameter p must be odd, got %d" % p)
    if p >= 5:
        period, js = p - 3, Fraction(p * p - p - 5, p - 3)
    elif p == 3:
        period, js = 2, Fraction(6)
    else:
        period, js = abs(p), Fraction(5)
    if p >= 1:
        js_star = Fraction(0)
    else:
        js_star = Fraction((p + 1) ** 2, p)
    return period, js, js_star


def pretzel_boundary_slopes(p):
    """Boundary slopes of the (-2, 3, p) pretzel knot for odd p >= 7 or
    p <= -1; the three small positive cases are torus knots and fall
    outside this formula."""
    if p % 2 == 0:
        raise ValueError("pretzel parameter p must be odd, got %d" % p)
    if p >= 7:
        vals = {Fraction(0), Fraction(16),
                Fraction(2 * (p * p - p - 5), p - 3), Fraction(2 * (3 + p))}
    elif p <= -1:
        vals = {Fraction(0), Fraction(10),
                Fraction(2 * (p + 1) ** 2, p), Fraction(2 * (p + 3))}
    else:
        raise ValueError(
            "no boundary-slope formula for p = %d; the family formula "
            "covers p >= 7 and p <= -1" % p)
    return sorted(vals)
