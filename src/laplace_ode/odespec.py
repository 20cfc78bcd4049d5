"""ODE specification: parsing, validation, structural indices, Q-polynomials.

The equation is w^(n) + sum_j (a_j + b_j z) w^(j) = 0 with 0 <= j < n.
Coefficients are kept as exact Gaussian rationals (every JSON number is a
dyadic rational), so downstream polynomial identities can be checked exactly.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import SpecError
from .poly import Poly
from .scalars import GaussRational
from .series import integer_value


@dataclass(frozen=True)
class OdeSpec:
    """Order n plus coefficient lists a_0..a_{n-1}, b_0..b_{n-1}."""

    n: int
    a: tuple
    b: tuple

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise SpecError("order n must be an integer >= 2 (got %r)" % (self.n,))
        if len(self.a) != self.n or len(self.b) != self.n:
            raise SpecError("need exactly n=%d coefficients in both a and b" % self.n)
        if not any(bool(bj) for bj in self.b):
            raise SpecError("invariant violated: at least one b_j must be nonzero")
        if not self.a[0] and not self.b[0]:
            raise SpecError("invariant violated: (a_0, b_0) != (0, 0)")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, GaussRational) for c in self.a + self.b)

    @cached_property
    def indices(self) -> StructIndices:
        """Largest/smallest indices with b_j != 0 and the maximal order of
        growth, worked out once per spec."""
        nz = [j for j, bj in enumerate(self.b) if bj]
        q, p = max(nz), min(nz)
        return StructIndices(q=q, p=p, rho_max=Fraction(1) + Fraction(1, self.n - q))


@dataclass(frozen=True)
class StructIndices:
    """q = largest, p = smallest index with b_j != 0; rho_max = 1 + 1/(n-q)."""

    q: int
    p: int
    rho_max: Fraction

    def __post_init__(self):
        if not (0 <= self.p <= self.q):
            raise SpecError("indices must satisfy 0 <= p <= q")
        if not (1 < self.rho_max <= 2):
            raise SpecError("rho_max must lie in (1, 2]")


def _scalar_from_json(value, where: str) -> GaussRational:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    # JSON's true and false load as bool, an int, but are not numbers
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in parts):
        try:
            return GaussRational(*parts)
        except ValueError as exc:
            raise SpecError("%s: %s" % (where, exc)) from exc
    raise SpecError("%s: expected a number or [re, im] pair, got %r" % (where, value))


def parse_ode(text: str) -> OdeSpec:
    """Parse the JSON spec document {"n": int, "a": [...], "b": [...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("syntax error at line %d column %d: %s"
                        % (exc.lineno, exc.colno, exc.msg)) from exc
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    for key in ("n", "a", "b"):
        if key not in doc:
            raise SpecError("missing required key %r" % key)
    n = doc["n"]
    if not isinstance(n, int):
        raise SpecError("n must be an integer")
    for key in ("a", "b"):
        if not isinstance(doc[key], list):
            raise SpecError("%r must be a list of coefficients" % key)
        if len(doc[key]) != n:
            raise SpecError("%r must have exactly n=%d entries, got %d"
                            % (key, n, len(doc[key])))
    a = tuple(_scalar_from_json(v, "a[%d]" % j) for j, v in enumerate(doc["a"]))
    b = tuple(_scalar_from_json(v, "b[%d]" % j) for j, v in enumerate(doc["b"]))
    return OdeSpec(n=n, a=a, b=b)


def load_spec(path) -> OdeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ode(fh.read())


def struct_indices(spec: OdeSpec) -> StructIndices:
    """Largest/smallest indices with b_j != 0 and the maximal order of growth."""
    return spec.indices


def build_q(spec: OdeSpec):
    """Q0(t) = (-t)^n + sum a_j (-t)^j and Q1(t) = sum b_j (-t)^j."""
    a_poly = Poly(list(spec.a) + [GaussRational(1)])
    q0 = a_poly.compose_neg()
    q1 = Poly(list(spec.b)).compose_neg()
    return q0, q1


def normalization_target(n: int, q: int) -> int:
    return (-1) ** (n - q + 1)


def is_normalized(spec: OdeSpec) -> bool:
    q = spec.indices.q
    return spec.b[q] == normalization_target(spec.n, q)


def _exact_root(c: GaussRational, k: int):
    """Exact k-th root of c with smallest |arg|, or None.

    Handles the case that arises in practice: c a positive rational whose
    numerator and denominator are perfect k-th powers.  k = n - q + 1 >= 2,
    since q <= n - 1.
    """
    if not c.is_real or c.re <= 0:
        return None
    num, den = c.re.numerator, c.re.denominator

    def iroot(m: int):
        r = round(m ** (1.0 / k))
        for cand in (r - 1, r, r + 1):
            if cand > 0 and cand ** k == m:
                return cand
        return None

    rn, rd = iroot(num), iroot(den)
    if rn is None or rd is None:
        return None
    return GaussRational(Fraction(rn, rd))


def normalize(spec: OdeSpec):
    """Rescale the independent variable so that b_q = (-1)^(n-q+1).

    Returns (spec', scale) where spec' has coefficients
    a'_j = a_j * scale^(n-j), b'_j = b_j * scale^(n-j+1) and scale is the
    admissible root of scale^(n-q+1) = (-1)^(n-q+1)/b_q with smallest |arg|,
    ties broken toward positive imaginary part.
    """
    n, q = spec.n, spec.indices.q
    target = GaussRational(normalization_target(n, q))
    if spec.b[q] == target:
        return spec, GaussRational(1)
    k = n - q + 1
    c = target / spec.b[q]

    scale = _exact_root(c, k) if isinstance(c, GaussRational) else None
    if scale is None:
        mag = abs(complex(c)) ** (1.0 / k)
        phase0 = cmath.phase(complex(c))
        candidates = [mag * cmath.exp(1j * (phase0 + 2 * cmath.pi * m) / k)
                      for m in range(k)]
        # smallest |arg|, ties broken toward positive imaginary part
        scale = min(candidates,
                    key=lambda s: (round(abs(cmath.phase(s)), 12), -s.imag))
        ival = integer_value(scale, 1e-12)
        if ival is not None and abs(complex(scale) - ival) < 1e-13:
            scale = GaussRational(ival)

    a2 = list(spec.a[j] * scale ** (n - j) for j in range(n))
    b2 = list(spec.b[j] * scale ** (n - j + 1) for j in range(n))
    b2[q] = target  # exact by construction; avoid roundoff residue
    if isinstance(scale, GaussRational):
        new = OdeSpec(n=n, a=tuple(a2), b=tuple(b2))
    else:
        new = OdeSpec(n=n, a=tuple(complex(x) for x in a2),
                      b=tuple(complex(x) if not isinstance(x, GaussRational) else x
                              for x in b2))
    return new, scale
