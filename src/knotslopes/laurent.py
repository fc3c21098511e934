"""Exact sparse Laurent polynomials in the quantum variable q.

Exponents are stored as integer multiples of 1/4 (the "quarter-key"
lattice), so intermediate torus-knot terms like q^(ab n(n+2)/4) and
q^(1/2) are exact without a general rational exponent type.  A fully
assembled colored Jones value must be integral, meaning every exponent
is a whole power of q (every key divisible by 4).

Coefficients are arbitrary-precision Python integers throughout.

This is the package's one polynomial type.  The Jones evaluators divide
through ``exact_div``; since q = A^-4, a map of A-exponents read as
quarter-keys is the mirror image.  The generating functions of
``quasifit`` hold a polynomial in z as the same polynomial in q, z^i at
the quarter-key 4i, and multiply and divide it here.

``exact_div`` has two routes, and the divisor alone picks one.  Every
Jones evaluator divides by q^((n+1)/2) - q^(-(n+1)/2), and ``quasifit``
by 1 - z: binomials whose coefficients are +-1 of opposite signs.  Their
quotient is a run of one value in each residue class between the
dividend's terms, so it is written run by run in time linear in its
size (``_binomial_div``).  Any other divisor, such as 1 + z or a
cyclotomic F_e with e >= 3, goes through long division with the pending
exponents in a heap (``_long_div``), one pop and push per quotient term.
A division on the residue-class route leaves a remainder exactly when
some class of the dividend's keys does not sum to 0
(``_binomial_remainder``), so ``quotient_degrees`` reads the quotient's
degrees off the dividend after that one check, and builds no quotient.
"""

import heapq
import re
from fractions import Fraction
from itertools import repeat

__all__ = ["LaurentPoly", "parse_poly"]


class LaurentPoly:
    """A Laurent polynomial sum(c_e * q^e) with exponents e in (1/4)Z.

    The internal map ``terms`` sends the quarter-key 4*e to the integer
    coefficient c_e.  Zero coefficients are never stored and the zero
    polynomial is the empty map.  Instances are treated as immutable;
    all arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {k: c for k, c in terms.items() if c != 0}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    # ------------------------------------------------------------------
    # ring structure

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return LaurentPoly(out)

    __rmul__ = __mul__

    def exact_div(self, divisor):
        """The quotient self / divisor, exact over the integers.

        The divisor picks the route.  A binomial whose coefficients are
        +-1 of opposite signs, such as q^((n+1)/2) - q^(-(n+1)/2) or
        1 - z, divides in residue-class runs (``_binomial_div``), in time
        linear in the quotient; any other divisor goes through long
        division (``_long_div``).
        Raises ValueError when the division leaves a remainder and
        ZeroDivisionError for a zero divisor.
        """
        d = divisor.terms
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return LaurentPoly()
        route = _binomial_route(d)
        if route is not None:
            return _wrap(_binomial_div(self.terms, *route))
        return _wrap(_long_div(self.terms, d))

    def quotient_degrees(self, divisor):
        """(deg, mindeg) of the exact quotient self / divisor, as
        Fractions, without building the quotient when the divisor takes
        ``exact_div``'s residue-class route.

        The quotient's top and bottom terms are the dividend's over the
        divisor's, so on that route only the remainder is checked
        (``_binomial_remainder``), in time linear in the dividend; any
        other divisor divides.  Raises ValueError when the division
        leaves a remainder, as ``exact_div`` does.
        """
        route = _binomial_route(divisor.terms)
        if route is None or not self.terms:
            quot = self.exact_div(divisor)
            return quot.deg(), quot.mindeg()
        low, _, s = route
        _binomial_remainder(self.terms, low, s)
        return (Fraction(max(self.terms) - low - s, 4),
                Fraction(min(self.terms) - low, 4))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes as the int it equals
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # ------------------------------------------------------------------
    # degrees and structure

    def deg(self):
        """Maximum exponent, as an exact Fraction (denominator divides 4)."""
        if not self.terms:
            raise ValueError("degree of the zero polynomial (empty state sum?)")
        return Fraction(max(self.terms), 4)

    def mindeg(self):
        """Minimum exponent, as an exact Fraction (denominator divides 4)."""
        if not self.terms:
            raise ValueError("degree of the zero polynomial (empty state sum?)")
        return Fraction(min(self.terms), 4)

    def mirror(self):
        """Substitute q -> 1/q (the mirror-image rule for colored Jones)."""
        return _wrap({-k: c for k, c in self.terms.items()})

    def is_integral(self):
        """True when every exponent is a whole integer power of q."""
        return all(k % 4 == 0 for k in self.terms)

    def shift(self, exponent):
        """Multiply by q^exponent."""
        d = _to_key(exponent)
        return _wrap({k + d: c for k, c in self.terms.items()})

    def coefficient(self, exponent):
        return self.terms.get(_to_key(exponent), 0)

    # ------------------------------------------------------------------
    # canonical text form

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            e = Fraction(k, 4)
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else "%dq" % mag
            else:
                body = ("q^%s" if mag == 1 else "%dq^%%s" % mag) % _fmt_exp(e)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % str(self)


def _wrap(terms):
    """A LaurentPoly on ``terms``, which hold no zero coefficient."""
    p = LaurentPoly.__new__(LaurentPoly)
    p.terms = terms
    return p


def _long_div(terms, d):
    """Long division of ``terms`` by ``d`` from the lowest term up,
    visiting the pending exponents in heap order: one pop and push per
    quotient term."""
    low = min(d)
    lead = d[low]
    rest = [(k - low, c) for k, c in d.items() if k != low]
    bound = max(terms) - max(d)
    work = dict(terms)
    pending = list(work)
    heapq.heapify(pending)
    quot = {}
    while pending:
        k = heapq.heappop(pending)
        c = work.pop(k, 0)
        if not c:
            continue
        q, r = divmod(c, lead)
        if r or k - low > bound:
            raise ValueError("the division leaves a remainder")
        quot[k - low] = q
        for dk, dc in rest:
            nk = k + dk
            if nk not in work:
                heapq.heappush(pending, nk)
            work[nk] = work.get(nk, 0) - q * dc
    return quot


def _binomial_route(d):
    """(low, c, s) when the divisor terms ``d`` are c (q^low - q^(low+s))
    with c = +-1, the residue-class route of ``exact_div``; else None."""
    if len(d) != 2:
        return None
    (k1, c1), (k2, c2) = sorted(d.items())
    if c1 in (1, -1) and c2 == -c1:
        return k1, c1, k2 - k1
    return None


def _binomial_remainder(terms, low, s):
    """Raise ValueError when dividing ``terms`` by c (q^low - q^(low+s))
    leaves a remainder: exactly when the coefficients of some residue
    class of the keys mod s do not sum to 0."""
    sums = {}
    for k, c in terms.items():
        r = (k - low) % s
        sums[r] = sums.get(r, 0) + c
    if any(sums.values()):
        raise ValueError("the division leaves a remainder")


def _binomial_div(terms, low, c, s):
    """``terms`` divided by c (q^low - q^(low+s)), with c = +-1.

    The quotient satisfies Q_j = c P_(j+low) + Q_(j-s), so each residue
    class of j mod s is a run of one value between the dividend's terms;
    the runs end on 0 once ``_binomial_remainder`` has passed."""
    _binomial_remainder(terms, low, s)
    classes = {}
    for k in sorted(terms):
        j = k - low
        classes.setdefault(j % s, []).append(j)
    quot = {}
    fill = quot.update
    for js in classes.values():
        v = 0
        prev = js[0]
        for j in js:
            if v:
                fill(zip(range(prev, j, s), repeat(v)))
            v += c * terms[j + low]
            prev = j
    return quot


def _fmt_exp(e):
    if e.denominator == 1:
        return str(e.numerator)
    return "%d/%d" % (e.numerator, e.denominator)


def _to_key(exponent):
    e = Fraction(exponent)
    key = e * 4
    if key.denominator != 1:
        raise ValueError("exponent %s is not a multiple of 1/4" % e)
    return key.numerator


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    return NotImplemented


_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-])?\s*
    (?:
        (?P<coeff>[0-9]+)\s*(?:\*\s*)?
        (?P<qc>q(?:\s*\^\s*(?P<expc>-?[0-9]+(?:/[0-9]+)?))?)?
      | (?P<qb>q(?:\s*\^\s*(?P<expb>-?[0-9]+(?:/[0-9]+)?))?)
    )
    \s*
    """,
    re.VERBOSE,
)


def parse_poly(text):
    """Parse the canonical text form back into a LaurentPoly.

    Accepts arbitrary whitespace around signs and terms, e.g.
    ``-q^-6 + 2q^-5 - 4q^-4`` or ``1`` or ``q + q^3 - q^4``.
    """
    s = text.strip()
    if s == "0":
        return LaurentPoly.zero()
    pos = 0
    out = {}
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse polynomial at %r" % s[pos:])
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError("missing sign between terms in %r" % text)
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if sign == "-":
            coeff = -coeff
        qpart = m.group("qc") or m.group("qb")
        exp = m.group("expc") or m.group("expb")
        if qpart is None:
            e = Fraction(0)
        elif exp is None:
            e = Fraction(1)
        else:
            e = Fraction(exp)
        k = _to_key(e)
        out[k] = out.get(k, 0) + coeff
        pos = m.end()
        first = False
    return LaurentPoly(out)
