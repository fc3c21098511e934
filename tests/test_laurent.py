"""Tests for the sparse Laurent polynomial ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotslopes.laurent import LaurentPoly, _long_div, parse_poly


def rand_poly(draw_terms):
    return LaurentPoly(dict(draw_terms))


coeffs = st.integers(min_value=-10**6, max_value=10**6)
exps = st.integers(min_value=-30, max_value=30)
polys = st.dictionaries(exps, coeffs, max_size=8).map(LaurentPoly)
nonzero_polys = polys.filter(bool)


def test_zero_and_one():
    assert LaurentPoly.zero() == LaurentPoly()
    assert not LaurentPoly.zero()
    assert str(LaurentPoly.zero()) == "0"
    assert LaurentPoly.one() == LaurentPoly({0: 1})
    assert str(LaurentPoly.one()) == "1"


def test_no_zero_coefficients_stored():
    p = LaurentPoly({0: 1, 3: 0, 5: -2})
    assert 3 not in p.terms
    q = parse_poly("q^2") - parse_poly("q^2")
    assert q.terms == {}
    assert not q


def test_degree_of_zero_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.zero().deg()
    with pytest.raises(ValueError):
        LaurentPoly.zero().mindeg()


def test_canonical_text():
    assert str(parse_poly("q + q^3 - q^4")) == "q + q^3 - q^4"
    assert str(parse_poly("-q^-4 + q^-3 + q^-1")) == "-q^-4 + q^-3 + q^-1"
    assert str(LaurentPoly({-8: 3, 0: -1, 4: 1})) == "3q^-2 - 1 + q"
    assert str(LaurentPoly({0: -1})) == "-1"
    assert str(LaurentPoly({20: 2})) == "2q^5"
    assert str(LaurentPoly({2: 1})) == "q^1/2"


def test_parse_round_trip_fixed():
    for text in ("0", "1", "-1", "q", "-q^-4 + q^-3 + q^-1",
                 "q^2 + q^5 - q^7 + q^8 - q^9 - q^10 + q^11",
                 "3q^-2 - 1 + q"):
        assert str(parse_poly(text)) == text


def test_parse_rejects_garbage():
    for bad in ("q^^2", "q +", "1 2", "x^3"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_quarter_exponents():
    half = LaurentPoly({2: 1})
    assert not half.is_integral()
    assert (half * half).is_integral()
    assert half * half == parse_poly("q")
    quarter = LaurentPoly({1: 1})
    assert quarter.deg() == Fraction(1, 4)
    assert (quarter ** 4) == parse_poly("q")


def test_mirror_is_exponent_negation():
    p = parse_poly("q + q^3 - q^4")
    assert p.mirror() == parse_poly("-q^-4 + q^-3 + q^-1")
    assert p.mirror().mirror() == p


def test_shift_and_coefficient():
    p = parse_poly("q + q^3 - q^4")
    assert p.shift(2) == parse_poly("q^3 + q^5 - q^6")
    assert p.coefficient(3) == 1
    assert p.coefficient(4) == -1
    assert p.coefficient(99) == 0


def test_exact_div_fixed():
    # (1 - q^3) / (1 - q) = 1 + q + q^2, and the engine's divisor shape
    assert (parse_poly("1 - q^3").exact_div(parse_poly("1 - q"))
            == parse_poly("1 + q + q^2"))
    unit = LaurentPoly({4: 1, -4: -1})
    assert (unit * parse_poly("q^-2 + 5")).exact_div(unit) == parse_poly(
        "q^-2 + 5")
    assert LaurentPoly.zero().exact_div(unit) == LaurentPoly.zero()
    assert parse_poly("2 + 4q").exact_div(LaurentPoly({0: 2})) == parse_poly(
        "1 + 2q")
    # 1 - z^6 over 1 - z and over 1 + z, z at the quarter-key 4: one run
    # in the residue-class route, and the long division
    z6 = LaurentPoly({0: 1, 24: -1})
    assert z6.exact_div(LaurentPoly({0: 1, 4: -1})) == LaurentPoly(
        {4 * i: 1 for i in range(6)})
    assert z6.exact_div(LaurentPoly({0: 1, 4: 1})) == LaurentPoly(
        {4 * i: (-1) ** i for i in range(6)})


def test_exact_div_rejects_remainders_and_zero():
    for num, den in (("1 + q^2", "1 - q"), ("1 + 3q", "2"), ("q^5", "q + q^2"),
                     ("1", "1 + q")):
        with pytest.raises(ValueError):
            parse_poly(num).exact_div(parse_poly(den))
    with pytest.raises(ZeroDivisionError):
        parse_poly("1 + q").exact_div(LaurentPoly.zero())


def test_constants_hash_as_the_ints_they_equal():
    for c in (0, 1, -7, 10**30):
        assert LaurentPoly({0: c}) == c
        assert hash(LaurentPoly({0: c})) == hash(c)
    assert {1: "x"}[LaurentPoly.one()] == "x"
    assert {0: "x"}[LaurentPoly.zero()] == "x"
    assert {LaurentPoly.one(), 1, True} == {1}


def test_parse_poly_refuses_non_ascii_digits():
    # an Arabic-Indic three, in a coefficient and in an exponent
    for text in ("\u0663q^2", "q^\u0663", "q^1/\u0663", "1 + \u0663"):
        with pytest.raises(ValueError):
            parse_poly(text)
    assert parse_poly("3q^2") == LaurentPoly({8: 3})


def test_pow():
    p = parse_poly("1 + q")
    assert p ** 0 == LaurentPoly.one()
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


@settings(max_examples=300, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()
    assert -(-a) == a


@settings(max_examples=300, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_degree_additivity(a, b):
    # no zero divisors over the integers, so degrees add
    p = a * b
    assert p.deg() == a.deg() + b.deg()
    assert p.mindeg() == a.mindeg() + b.mindeg()


# ---------------------------------------------------------------------------
# the residue-class route against the long division


def _long(a, d):
    """``a / d`` through the heap long division alone."""
    if not a.terms:
        return LaurentPoly()
    return LaurentPoly(_long_div(a.terms, d.terms))


@st.composite
def unit_binomials(draw):
    # c_low q^low + c_high q^(low+s), keys on the quarter lattice: both
    # sign patterns (1 - z up to a unit, which takes the residue-class
    # route, and 1 + z, which does not) and offsets that are not whole
    # powers of q
    low = draw(st.integers(-40, 40))
    s = draw(st.integers(1, 24))
    c_low, c_high = draw(st.sampled_from([1, -1])), draw(
        st.sampled_from([1, -1]))
    return LaurentPoly({low: c_low, low + s: c_high})


@settings(max_examples=400, deadline=None)
@given(polys, nonzero_polys | unit_binomials())
def test_exact_div_round_trip(a, d):
    got = (a * d).exact_div(d)
    assert got == a
    assert got == _long(a * d, d)
    assert all(got.terms.values())


@settings(max_examples=400, deadline=None)
@given(polys, nonzero_polys.filter(lambda d: len(d.terms) > 1)
       | unit_binomials(), coeffs.filter(bool), st.integers(-80, 80))
def test_exact_div_rejects_a_remainder(a, d, c, k):
    # a nonzero multiple of d spans as far as d at least; a monomial does
    # not, and both routes say so
    num = a * d + LaurentPoly({k: c})
    with pytest.raises(ValueError, match="remainder"):
        num.exact_div(d)
    with pytest.raises(ValueError, match="remainder"):
        _long(num, d)
    with pytest.raises(ValueError, match="remainder"):
        num.quotient_degrees(d)


@settings(max_examples=400, deadline=None)
@given(nonzero_polys, nonzero_polys | unit_binomials())
def test_quotient_degrees_are_the_quotients(a, d):
    # both routes: the residue-class route reads the degrees off the
    # dividend, any other divisor divides
    assert (a * d).quotient_degrees(d) == (a.deg(), a.mindeg())


def test_quotient_degrees_fixed():
    unit = LaurentPoly({6: 1, -6: -1})
    assert (unit * parse_poly("q^-2 + 5 - q^3")).quotient_degrees(unit) == (
        3, -2)
    # a residue class that does not sum to 0 is a remainder, even where
    # the dividend spans as far as the divisor
    for num in ("q^-3/2 + q^3/2", "q^-3/2 - q^3/2 + q^5/2", "q^-3/2 - q^2"):
        with pytest.raises(ValueError, match="remainder"):
            parse_poly(num).quotient_degrees(unit)
        with pytest.raises(ValueError, match="remainder"):
            parse_poly(num).exact_div(unit)
    with pytest.raises(ValueError, match="zero polynomial"):
        LaurentPoly.zero().quotient_degrees(unit)
    with pytest.raises(ZeroDivisionError):
        unit.quotient_degrees(LaurentPoly.zero())


@settings(max_examples=200, deadline=None)
@given(polys)
def test_text_round_trip(p):
    assert parse_poly(str(p)) == p


@settings(max_examples=200, deadline=None)
@given(nonzero_polys)
def test_mirror_swaps_degrees(p):
    m = p.mirror()
    assert m.deg() == -p.mindeg()
    assert m.mindeg() == -p.deg()
