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


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("non-finite coefficient %r" % x)
        return Fraction(*x.as_integer_ratio())
    raise TypeError("cannot convert %r to an exact rational" % (x,))


class GaussRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_number(cls, x):
        """Lift an int/float/Fraction/complex-with-dyadic-parts to exact form."""
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, complex):
            return cls(_frac(x.real), _frac(x.imag))
        return cls(_frac(x))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) - other
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) / other
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return GaussRational((self.re * o.re + self.im * o.im) / d,
                             (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / complex(self)
        return o.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return complex(self) ** n
        if n < 0:
            return GaussRational(1) / self.__pow__(-n)
        out = GaussRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and conversions ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return "GaussRational(%s)" % self.re
        return "GaussRational(%s, %s)" % (self.re, self.im)

    def conjugate(self):
        return GaussRational(self.re, -self.im)

    @property
    def is_real(self):
        return self.im == 0

    @property
    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError("%r is not an integer" % self)
        return int(self.re)


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
        key = (cand.re, cand.im)
        if key not in seen:
            seen.add(key)
            yield cand
