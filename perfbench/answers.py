"""Known answers the benchmark checks results against.

Every expected value lives here as data or as a formula written out in
this file.  None of it is computed by the package under test.
"""

from fractions import Fraction

# Colored Jones polynomials of the (3,4) torus knot, which is 8_19, at
# colors 1..3 from Morton's formula: (lowest exponent of q, coefficients
# from that exponent upward).  Color 1 is the Jones polynomial
# q^3 + q^5 - q^8.
T34_JONES = {
    1: (3, [1, 0, 1, 0, 0, -1]),
    2: (6, [1, 0, 0, 1, 0, 0, 1, -1, 0, 0, -1, 0, 0, -1, 1, 0, -1, 1]),
    3: (9, [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, -1, 0, 1, -1, -1, 0, 1, -1, -1,
            0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 1, 1, 0, -1]),
}

# Verdict of `verify --all` for every knot in the bundled table.
# 12a_669 has no boundary-slope row, so its verdict is no-data.
BUNDLED_VERDICTS = {
    "12a_669": "no-data",
    "3_1": "verified",
    "8_17": "verified",
    "8_19": "verified",
    "8_20": "verified",
    "8_21": "verified",
    "9_42": "verified",
    "9_43": "verified",
    "9_44": "verified",
    "9_45": "verified",
    "9_46": "verified",
    "9_47": "verified",
    "9_48": "verified",
    "9_49": "verified",
    "pretzel_2_3_5_5": "verified",
    "pretzel_2_5_3_5": "verified",
}


def pretzel_answer(p):
    """Jones period and slope sets (period, js, js*) of the (-2,3,p)
    pretzel knot for odd p, as the paper states them.

    Slopes use the package's normalisation, in which twice a Jones slope
    is a boundary slope.
    """
    if p >= 5:
        period, js = p - 3, Fraction(p * p - p - 5, p - 3)
    elif p == 3:
        period, js = 2, Fraction(6)
    else:
        period, js = abs(p), Fraction(5)
    js_star = Fraction(0) if p > 0 else Fraction((p + 1) ** 2, p)
    return period, [js], [js_star]


def pretzel_colors(p):
    """Highest color the CLI samples for (-2,3,p) by default:
    three periods plus six, and at least 20."""
    return max(20, 3 * pretzel_answer(p)[0] + 6)


def torus_answer(a, b):
    """Jones period and slope sets (period, js, js*) of the (a,b) torus
    knot, a >= 2 and b >= 2 coprime.

    The maximum degree is ab n^2/4 + (ab-1) n/2 minus a parity term in
    (a-2)(b-2), so the period is 1 when a or b is 2 and 2 otherwise; the
    minimum degree is linear.
    """
    period = 1 if 2 in (a, b) else 2
    return period, [Fraction(a * b, 2)], [Fraction(0)]


def mirror_answer(answer):
    """The same triple for the mirror image: q -> 1/q swaps the two
    degree sides and negates them."""
    period, js, js_star = answer
    return (period, sorted(-s for s in js_star), sorted(-s for s in js))
