"""Closed-form degree formulas: adequate diagrams, torus knots, and
the (-2, 3, p) pretzel family.

An adequate side of a diagram has an exact quadratic degree in the
diagram's counts (``adequate_max_degree``, ``adequate_min_degree``), and
torus degrees are a plain formula in (a, b).  The (-2, 3, p) pretzel
diagram is adequate on one side only; its other side is known only
through the generating function of its third difference.
``pretzel_degrees`` takes the degrees at colors 0..2, which the pretzel
spec computes by the state sum, and extends them by the third-order
recurrence that generating function encodes, expanding it once for the
whole extension.  This module holds
formulas only: it imports the standard library and ``quasifit``.
"""

from fractions import Fraction
from math import gcd

from .quasifit import RationalGF, _cyclotomic_split

__all__ = [
    "adequate_max_degree", "adequate_min_degree", "alt_symmetrized",
    "torus_degrees",
    "pretzel_degrees", "pretzel_slopes", "pretzel_boundary_slopes",
]


def adequate_max_degree(st, n):
    """The colored Lickorish-Thistlethwaite maximum degree at color n of
    a diagram with the counts st (a ``DiagramStats``) whose all-B state
    is adequate."""
    return Fraction(st.c_plus * n * n + (st.writhe + st.b_circles - 1) * n, 2)


def adequate_min_degree(st, n):
    """The colored Lickorish-Thistlethwaite minimum degree at color n of
    a diagram with the counts st whose all-A state is adequate."""
    return Fraction(-st.c_minus * n * n + (st.writhe - st.a_circles + 1) * n,
                    2)


def alt_symmetrized(st, n):
    """Degree sum and degree span of the color-n Jones polynomial of an
    alternating knot whose reduced diagram has the counts st (a
    ``DiagramStats``), through its crossing number c, writhe w and
    signature sigma = |A| - 1 - c_plus."""
    c, w = st.c_plus + st.c_minus, st.writhe
    sigma = st.a_circles - 1 - st.c_plus
    return (Fraction(w * n * n + (w - 2 * sigma) * n, 2),
            Fraction(c * n * n + c * n, 2))


def torus_degrees(a, b, n):
    """Maximum and minimum degree of the color-n Jones polynomial of the
    positive (a, b) torus knot.  ``Torus`` specs read their degrees off
    the numerator of Morton's formula; this closed form is their test
    oracle."""
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
            num = [0] * (p - 7) + [1, -1]
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
        num = [0] * (q - 4) + [1, -2] + [-1] * (q - 1)
        den = {d: 2 for d in range(2, q + 1) if q % d == 0}
        gmin = RationalGF(num, den)
    return None, gmin


def _extend(vals, tail_gf, n_max):
    """A new degree list for colors 0..n_max: vals, which holds colors
    0..min(n_max, 2), cut to n_max or grown by the recurrence
    f(n+3) = d3(n) + 3 f(n+2) - 3 f(n+1) + f(n), where d3 is the series
    of tail_gf (identically zero when tail_gf is None), expanded once
    for the whole extension."""
    out = vals[:n_max + 1]
    if len(out) > n_max:
        return out
    d3 = tail_gf.series(n_max - 2) if tail_gf is not None else None
    for i in range(len(out) - 3, n_max - 2):
        step = d3[i] if d3 is not None else 0
        out.append(step + 3 * out[-1] - 3 * out[-2] + out[-3])
    return out


def pretzel_degrees(p, n_max, seeds):
    """Maximum- and minimum-degree lists of the colored Jones polynomial
    of the (-2, 3, p) pretzel knot for colors 0..n_max, for odd p.

    ``seeds`` holds the (dmax, dmin) lists for colors 0..min(n_max, 2),
    which ``knots.Pretzel237`` computes by the state sum.  Each side is
    extended by the generating function of its third difference, which
    is zero on the side where the diagram is adequate; the spec checks
    that side against its adequate closed form at every color.  The
    seeds are left as they are, and new lists are returned.
    """
    if p % 2 == 0:
        raise ValueError("pretzel parameter p must be odd, got %d" % p)
    if n_max < 0:
        raise ValueError("color must be nonnegative")
    gmax, gmin = _pretzel_tails(p)
    return _extend(seeds[0], gmax, n_max), _extend(seeds[1], gmin, n_max)


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
