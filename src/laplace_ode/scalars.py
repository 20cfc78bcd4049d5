"""Exact Gaussian-rational scalars.

Every finite float is a dyadic rational, so coefficients read from a spec
file can always be carried exactly.  Computations that leave the rational
field (irrational normalization scales, non-rational roots) fall back to
``complex``; code that can work with either type should only rely on the
arithmetic operators, ``is_zero`` via ``!= 0`` comparisons, and ``complex()``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _ratio(x):
    """(numerator, denominator) of an int, Fraction or finite float."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("non-finite coefficient %r" % x)
        return x.as_integer_ratio()
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError("cannot convert %r to an exact rational" % (x,))


def _reduce(a: int, b: int, d: int) -> "GaussRational":
    """(a + b i)/d for d > 0, brought to lowest terms by one gcd."""
    g = math.gcd(a, b, d)
    z = object.__new__(GaussRational)
    z._a, z._b, z._d = a // g, b // g, d // g
    return z


def _parts(x):
    """(a, b, d) of an exact operand, None for any other."""
    if isinstance(x, GaussRational):
        return x._a, x._b, x._d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


def _quotient(a, b, d, c, e, f):
    """((a + b i)/d) / ((c + e i)/f) in lowest terms."""
    n = c * c + e * e
    if not n:
        raise ZeroDivisionError("division by exact zero")
    return _reduce((a * c + b * e) * f, (b * c - a * e) * f, d * n)


class GaussRational:
    """Complex number with exact rational real and imaginary parts, held as
    integers (a + b i)/d with d > 0 and gcd(a, b, d) = 1, so each value has
    one representation and each operation normalizes with one gcd."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        (p, q), (u, v) = _ratio(re), _ratio(im)
        d = q * v // math.gcd(q, v)     # lowest terms, as both parts are
        self._a, self._b, self._d = p * (d // q), u * (d // v), d

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_number(cls, x):
        """Lift an int/float/Fraction/complex-with-dyadic-parts to exact form."""
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, complex):
            return cls(x.real, x.imag)
        return cls(x)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic --------------------------------------------------------

    def _plus(self, a, b, d):
        if d == self._d:        # equal denominators: no cross products
            return _reduce(self._a + a, self._b + b, d)
        return _reduce(self._a * d + a * self._d, self._b * d + b * self._d,
                       self._d * d)

    def __add__(self, other):
        o = _parts(other)
        return complex(self) + other if o is None else self._plus(*o)

    __radd__ = __add__

    def __neg__(self):
        return _reduce(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return complex(self) - other
        return self._plus(-o[0], -o[1], o[2])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return complex(self) * other
        a, b, d = o
        return _reduce(self._a * a - self._b * b, self._a * b + self._b * a,
                       self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return complex(self) / other
        return _quotient(self._a, self._b, self._d, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return other / complex(self)
        return _quotient(*o, self._a, self._b, self._d)

    def __pow__(self, n):
        if not isinstance(n, int):
            return complex(self) ** n
        a, b, d = self._a, self._b, self._d
        if n < 0:
            inv = _quotient(1, 0, 1, a, b, d)
            a, b, d, n = inv._a, inv._b, inv._d, -n
        x, y, dn = 1, 0, d ** n
        while n:
            if n & 1:
                x, y = x * a - y * b, x * b + y * a
            a, b = a * a - b * b, 2 * a * b
            n >>= 1
        return _reduce(x, y, dn)

    # -- predicates and conversions ---------------------------------------

    def __eq__(self, other):
        o = _parts(other)
        if o is not None:
            return (self._a, self._b, self._d) == o
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        # the hash of the equal int or Fraction, or of the pair of Fractions
        re, im = (self._a, self._b) if self._d == 1 else (self.re, self.im)
        return hash((re, im)) if im else hash(re)

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        # int true division rounds correctly, as Fraction.__float__ does
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        if not self._b:
            return "GaussRational(%s)" % self.re
        return "GaussRational(%s, %s)" % (self.re, self.im)

    def conjugate(self):
        return _reduce(self._a, -self._b, self._d)

    @property
    def is_real(self):
        return not self._b

    @property
    def is_integer(self):
        return not self._b and self._d == 1

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError("%r is not an integer" % self)
        return self._a


def is_exact(x) -> bool:
    return isinstance(x, (GaussRational, int, Fraction))


def field_int(k: int, values):
    """The integer k in the field of ``values``: a GaussRational when every
    value is exact, complex otherwise.

    Arithmetic seeded with it stays in that field, because GaussRational
    coerces ints and falls back to complex on inexact operands.
    """
    return GaussRational(k) if all(is_exact(v) for v in values) else complex(k)


def rational_snap_candidates(z: complex):
    """Candidate Gaussian rationals near z, smallest denominators first.

    Multiple roots are only resolvable to ~eps^(1/m) numerically, so exact
    verification (by the caller) is attempted against a denominator ladder
    with a generous proximity window.  The ladder is climbed lazily: a
    caller that stops at the first candidate that verifies builds no more.
    """
    seen = set()
    for den in (1, 2, 3, 4, 6, 8, 12, 16, 24, 60, 10**3, 10**6):
        re = Fraction(z.real).limit_denominator(den)
        im = Fraction(z.imag).limit_denominator(den)
        cand = GaussRational(re, im)
        err = abs(complex(cand) - z)
        if err > 1e-3 * (1 + abs(z)):
            continue
        key = (cand._a, cand._b, cand._d)
        if key not in seen:
            seen.add(key)
            yield cand
