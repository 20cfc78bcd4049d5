"""Dense univariate polynomials over exact Gaussian rationals or complex floats.

Coefficients are stored in ascending order.  A polynomial is *exact* when
every coefficient is a :class:`~laplace_ode.scalars.GaussRational`; arithmetic
between exact polynomials stays exact, anything else degrades to complex.
"""

from __future__ import annotations

import numpy as np

from .scalars import GaussRational, field_int, is_exact


def horner(coeffs, t):
    """sum_k coeffs[k] * t**k, elementwise on an array or at a scalar t."""
    acc = 0j * t
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class Poly:
    """Polynomial sum_k coeffs[k] * t**k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, values):
        return cls([GaussRational.from_number(v) for v in values])

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs)

    def lc(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return field_int(0, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Poly(%r)" % (list(self.coeffs),)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            a = self.coeffs[k] if k < len(self.coeffs) else 0
            b = other.coeffs[k] if k < len(other.coeffs) else 0
            out.append(a + b)
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Long division; exact when both operands are exact."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [0] * (dq + 1)
        lc = other.lc()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            c = top / lc
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
        return Poly(quot), Poly(rem[: other.degree])

    # -- calculus ----------------------------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        p = self
        for _ in range(order):
            p = Poly([k * c for k, c in enumerate(p.coeffs)][1:])
        return p

    def antiderivative(self) -> "Poly":
        """Antiderivative with integration constant 0."""
        return Poly([field_int(0, self.coeffs)] +
                    [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def compose_neg(self) -> "Poly":
        """Compose with t -> -t."""
        return Poly([c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        """Horner evaluation; accepts scalars and numpy arrays."""
        if isinstance(t, np.ndarray):
            return self.eval_array(t)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_array(self, t: np.ndarray) -> np.ndarray:
        return horner(self.complex_coeffs(), t)

    def complex_coeffs(self):
        return [complex(c) for c in self.coeffs]

    def to_complex(self) -> "Poly":
        return Poly(self.complex_coeffs())

    def max_abs_coeff(self) -> float:
        if self.is_zero:
            return 0.0
        return max(abs(complex(c)) for c in self.coeffs)
