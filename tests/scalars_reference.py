"""The Fraction-pair GaussRational, kept as the reference for the integer
triple in ``laplace_ode.scalars``, and a randomized comparison of the two.

Standard library only, so the comparison also runs on interpreters without
numpy, with ``scalars.py`` loaded by path::

    python tests/scalars_reference.py src/laplace_ode/scalars.py [pairs]

It prints the number of operand pairs and checks made, and exits 1 with the
first mismatch if the classes disagree.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
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


class RefGaussRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def _coerce(self, other):
        if isinstance(other, RefGaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return RefGaussRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        return RefGaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return RefGaussRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) - other
        return RefGaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        return RefGaussRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) / other
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return RefGaussRational((self.re * o.re + self.im * o.im) / d,
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
            return RefGaussRational(1) / self.__pow__(-n)
        out = RefGaussRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, RefGaussRational):
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
        return RefGaussRational(self.re, -self.im)

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


def _rational(rng: random.Random):
    """An int, a Fraction (small, large or huge denominator) or a dyadic
    float, zero and negative values included."""
    kind = rng.randrange(8)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return rng.randint(-10**20, 10**20)
    if kind == 3:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 4:
        return Fraction(rng.randint(-10**25, 10**25), rng.randint(1, 10**30))
    if kind == 5:
        return rng.randint(-2**20, 2**20) / 2.0 ** rng.randint(0, 60)
    if kind == 6:
        return rng.uniform(-1e3, 1e3)
    return Fraction(rng.randint(-10**6, 10**6), 3 ** rng.randint(0, 30))


def _scalar(rng: random.Random):
    """An operand that is not a GaussRational: int, Fraction, float or
    complex (dyadic parts), zero included."""
    x = _rational(rng)
    if rng.random() < 0.25:
        return complex(float(x), float(_rational(rng)))
    return x


def _same(new, ref, cls) -> bool:
    """Results agree: equal exact values (same parts, same repr), or the
    same floats to the bit, or the same exception type."""
    if isinstance(ref, RefGaussRational):
        return (type(new) is cls and (new.re, new.im) == (ref.re, ref.im)
                and repr(new) == repr(ref))
    if isinstance(ref, complex):
        return (type(new) is complex
                and (new.real.hex(), new.imag.hex()) ==
                (ref.real.hex(), ref.imag.hex()))
    return type(new) is type(ref) and new == ref


def _outcome(f):
    try:
        return f()
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        return type(exc)


def compare(cls, pairs: int = 3000, seed: int = 0):
    """Compare ``cls`` with the reference on ``pairs`` random operand pairs.

    Returns (checks made, list of mismatches); each mismatch is a tuple
    (what, operands, new result, reference result).
    """
    rng = random.Random(seed)
    bad, checks = [], 0

    def check(what, args, new, ref):
        nonlocal checks
        checks += 1
        if isinstance(ref, type) and issubclass(ref, Exception):
            ok = new is ref
        else:
            ok = _same(new, ref, cls)
        if not ok:
            bad.append((what, args, new, ref))

    for _ in range(pairs):
        p, q = _rational(rng), _rational(rng)
        r, s = _rational(rng), _rational(rng)
        x, rx = cls(p, q), RefGaussRational(p, q)
        if rng.random() < 0.5:
            y, ry = cls(r, s), RefGaussRational(r, s)
        else:
            y = ry = _scalar(rng)
        args = (p, q, y)
        for name, op in (("+", lambda u, v: u + v), ("-", lambda u, v: u - v),
                         ("*", lambda u, v: u * v), ("/", lambda u, v: u / v)):
            check(name, args, _outcome(lambda: op(x, y)),
                  _outcome(lambda: op(rx, ry)))
            check("r" + name, args, _outcome(lambda: op(y, x)),
                  _outcome(lambda: op(ry, rx)))
        n = rng.randint(-4, 6)
        check("**", (p, q, n), _outcome(lambda: x ** n),
              _outcome(lambda: rx ** n))
        check("**0.5", (p, q), _outcome(lambda: x ** 0.5),
              _outcome(lambda: rx ** 0.5))
        if not isinstance(y, cls):
            check("==", args, x == y, rx == ry)
            check("!=", args, x != y, rx != ry)
            if x == y:
                check("hash eq", args, hash(x) == hash(y), True)
        else:
            check("==", args, x == y, rx == ry)
        # an operand equal to an int, Fraction, float or complex
        check("== int", (p, q), x == p, rx == p)
        check("== float", (p, q), _outcome(lambda: x == complex(float(p), float(q))),
              _outcome(lambda: rx == complex(float(p), float(q))))
        check("hash", (p, q), hash(x), hash(rx))
        check("bool", (p, q), bool(x), bool(rx))
        check("complex", (p, q), _outcome(lambda: complex(x)),
              _outcome(lambda: complex(rx)))
        check("repr", (p, q), repr(x), repr(rx))
        check("re im", (p, q), (x.re, x.im), (rx.re, rx.im))
        check("is_real", (p, q), x.is_real, rx.is_real)
        check("is_integer", (p, q), x.is_integer, rx.is_integer)
        check("as_int", (p, q), _outcome(x.as_int), _outcome(rx.as_int))
        check("conjugate", (p, q), x.conjugate(), rx.conjugate())
        check("neg", (p, q), -x, -rx)
        check("from_number", (p, q), cls.from_number(complex(float(p), float(q))),
              RefGaussRational(_frac(float(p)), _frac(float(q))))
        zero = rng.choice((0, Fraction(0), cls(0), cls(Fraction(0), 0)))
        check("/ 0", (p, q, zero), _outcome(lambda: x / zero), ZeroDivisionError)
        check("0 ** -1", (), _outcome(lambda: cls(0) ** -rng.randint(1, 3)),
              ZeroDivisionError)
    return checks, bad


def load_scalars(path: str):
    """Load ``scalars.py`` from a file path, outside its package."""
    spec = importlib.util.spec_from_file_location("scalars_under_test", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


if __name__ == "__main__":
    mod = load_scalars(sys.argv[1])
    pairs = int(sys.argv[2]) if len(sys.argv) > 2 else 3000
    checks, bad = compare(mod.GaussRational, pairs)
    print("python %s: %d pairs, %d checks, %d mismatches"
          % (sys.version.split()[0], pairs, checks, len(bad)))
    if bad:
        print("first mismatch:", bad[0])
        sys.exit(1)
