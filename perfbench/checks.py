"""Output checks that share no code with the program's contour machinery.

Each check takes the parsed JSON a CLI command printed and returns a list of
failure reasons (empty when the output passes).  The arithmetic here is the
benchmark's own: ODE residuals in log form, scipy's Airy functions, the
zeros of Ai from scipy, and exact Gaussian-rational substitution of residue
polynomials.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from scipy.special import ai_zeros, airy

# The CLI's default --residual-tol; also the oracle and float-substitution
# bound, so every check holds the program to the same relative accuracy.
RESIDUAL_TOL = 1e-8
OMEGA = cmath.exp(2j * math.pi / 3)
AIRY_ZEROS = [float(x) for x in ai_zeros(40)[0]]    # a_1 > a_2 > ... (negative)


# ----------------------------------------------------------------------------
# exact Gaussian rationals (re + i im, both Fractions)
# ----------------------------------------------------------------------------

class GQ:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _gq(other)
        return GQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __mul__(self, other):
        other = _gq(other)
        return GQ(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _gq(other)
        den = other.re * other.re + other.im * other.im
        return GQ((self.re * other.re + self.im * other.im) / den,
                  (self.im * other.re - self.re * other.im) / den)

    def __pow__(self, k: int):
        out = GQ(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = _gq(other)
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        return str(self.re) if not self.im else "%s%+si" % (self.re, self.im)


def _gq(x) -> GQ:
    return x if isinstance(x, GQ) else GQ(x)


def parse_scalar(doc):
    """A coefficient as the CLI prints it: exact values are strings
    ("p/q" or {"re": "p/q", "im": "p/q"}), inexact ones {"re": x, "im": y}."""
    if isinstance(doc, str):
        return GQ(Fraction(doc))
    if isinstance(doc["re"], str):
        return GQ(Fraction(doc["re"]), Fraction(doc["im"]))
    return complex(doc["re"], doc["im"])


def snap_rational(c: complex, max_den: int = 10 ** 6) -> GQ:
    return GQ(Fraction(c.real).limit_denominator(max_den),
              Fraction(c.imag).limit_denominator(max_den))


# ----------------------------------------------------------------------------
# eval: relative ODE residual in log form, Airy oracle
# ----------------------------------------------------------------------------

def ode_residual(a, b, z: complex, derivs) -> float:
    """Relative residual |sum c_j w^(j)| / sum |c_j w^(j)| of
    w^(n) + sum (a_j + b_j z) w^(j) = 0.

    ``derivs`` holds (mantissa, log_scale) for j = 0..n; terms are rescaled
    to the largest log scale before summing, so no value is ever formed
    outside the double range.
    """
    n = len(a)
    coeffs = [complex(a[j]) + complex(b[j]) * z for j in range(n)] + [1.0]
    top = max(ls for _m, ls in derivs)
    terms = [c * m * math.exp(ls - top) for c, (m, ls) in zip(coeffs, derivs)]
    den = sum(abs(t) for t in terms)
    if not den > 0:
        return math.inf
    return abs(sum(terms)) / den


def airy_reference(nu: int, z: complex):
    """(Lambda_nu, Lambda_nu') on the Airy fixture w'' - z w = 0.

    The three distinguished solutions are the rotated Airy functions
    Lambda_nu(z) = w^nu Ai(w^nu z), w = e^(2 pi i / 3), so
    Lambda_nu'(z) = w^(2 nu) Ai'(w^nu z).
    """
    rot = OMEGA ** nu
    ai, aip, _bi, _bip = airy(rot * z)
    return complex(ai) * rot, complex(aip) * rot * rot


def rel_error_scaled(mantissa: complex, log_scale: float, ref: complex) -> float:
    """|m e^s - ref| / |ref|, formed at the scale e^s."""
    ref_scaled = ref * math.exp(-log_scale)
    if ref_scaled == 0 or not math.isfinite(abs(ref_scaled)):
        return math.inf
    return abs(mantissa - ref_scaled) / abs(ref_scaled)


def check_eval(doc, spec, nu: int, z: complex, airy_fixture: bool):
    """Failure reasons of one `eval` output of Lambda_nu at z, j = 0..n."""
    reasons = []
    results = doc["results"]
    flags = sorted({f for res in results for f in res["flags"]})
    if flags:
        reasons.append("flags " + ",".join(flags))
    by_j = {res["j"]: (complex(res["mantissa"]["re"], res["mantissa"]["im"]),
                       float(res["log_scale"])) for res in results}
    derivs = [by_j[j] for j in range(spec.n + 1)]
    resid = ode_residual(spec.a, spec.b, z, derivs)
    if not resid <= RESIDUAL_TOL:
        reasons.append("ODE residual %.3g > %.0e" % (resid, RESIDUAL_TOL))
    if airy_fixture:
        for j, ref in enumerate(airy_reference(nu, z)):
            err = rel_error_scaled(*by_j[j], ref)
            if not err <= RESIDUAL_TOL:
                reasons.append("j=%d differs from scipy airy by %.3g (relative)"
                               % (j, err))
    return reasons


# ----------------------------------------------------------------------------
# zeros: Airy zero counts from scipy
# ----------------------------------------------------------------------------

def _angle_in(theta: float, lo: float, hi: float) -> bool:
    k = math.ceil((lo - theta) / (2 * math.pi))
    return theta + 2 * math.pi * k <= hi


def airy_zero_count(nu: int, sector) -> int:
    """Zeros of Lambda_nu in {0 < |z| <= r, theta1 <= arg z <= theta2}.

    All zeros of Ai lie on the negative real axis, so those of
    Lambda_nu(z) = w^nu Ai(w^nu z) lie on the ray arg z = pi - 2 pi nu / 3.
    """
    th1, th2, r = sector
    if not _angle_in(math.pi - 2 * math.pi * nu / 3, th1, th2):
        return 0
    if r >= -AIRY_ZEROS[-1]:
        raise ValueError("radius %.3g beyond the tabulated Airy zeros" % r)
    return sum(1 for a in AIRY_ZEROS if -a <= r)


def check_zeros(doc, sector, nu: int, airy_fixture: bool):
    """Failure reasons of one `zeros` output for one sector."""
    reasons = []
    res = doc["results"][0]
    if not res["reliable"]:
        reasons.append("zero count %d not reliable (confidence %.3g)"
                       % (res["count"], res["confidence"]))
    if airy_fixture:
        want = airy_zero_count(nu, sector)
        if res["count"] != want:
            reasons.append("zero count %d, scipy ai_zeros gives %d"
                           % (res["count"], want))
    return reasons


# ----------------------------------------------------------------------------
# indicator: every cell must be finite
# ----------------------------------------------------------------------------

def check_indicator(doc):
    bad = [(i, k) for i, row in enumerate(doc["h_emp"])
           for k, v in enumerate(row) if v is None or not math.isfinite(v)]
    if bad:
        return ["%d indicator cells are NaN, first at theta=%.4f r=%g"
                % (len(bad), doc["thetas"][bad[0][0]], doc["radii"][bad[0][1]])]
    return []


# ----------------------------------------------------------------------------
# residues: substitution into the normalized ODE
# ----------------------------------------------------------------------------

def normalization_target(n: int, q: int) -> int:
    return (-1) ** (n - q + 1)


def struct_q(b) -> int:
    return max(j for j, bj in enumerate(b) if bj)


def expected_scale(n: int, b) -> complex:
    """The documented normalization scale: the root of
    s^(n-q+1) = (-1)^(n-q+1) / b_q with smallest |arg|, ties toward
    positive imaginary part."""
    q = struct_q(b)
    k = n - q + 1
    c = normalization_target(n, q) / complex(b[q])
    mag = abs(c) ** (1.0 / k)
    roots = [mag * cmath.exp(1j * (cmath.phase(c) + 2 * math.pi * m) / k)
             for m in range(k)]
    return min(roots, key=lambda s: (round(abs(cmath.phase(s)), 9), -s.imag))


def apply_operator(a, b, poly, c, zero, one):
    """Coefficients of L[P e^(c z)] e^(-c z) for
    L = d^n + sum (a_j + b_j z) d^j, using (d + c) on P."""
    n = len(a)
    deriv = list(poly)
    total = [zero] * (len(poly) + 1)
    for j in range(n + 1):
        aj = a[j] if j < n else one
        bj = b[j] if j < n else zero
        for k, coef in enumerate(deriv):
            total[k] = total[k] + aj * coef
            total[k + 1] = total[k + 1] + bj * coef
        deriv = [c * deriv[k] + (deriv[k + 1] * (k + 1) if k + 1 < len(deriv)
                                 else zero) for k in range(len(deriv))]
    return total


def float_substitution_residual(a, b, poly, c) -> float:
    """Largest |coefficient| of L[P e^(c z)] e^(-c z) relative to the largest
    sum of term magnitudes over all coefficients (a normwise bound: a
    coefficient made only of rounding noise, such as the c^n terms of a
    pole at 1e-91, does not count as a failure)."""
    a = [complex(x) for x in a]
    b = [complex(x) for x in b]
    poly = [complex(x) for x in poly]
    total = apply_operator(a, b, poly, complex(c), 0j, 1.0)
    scale = apply_operator([abs(x) for x in a], [abs(x) for x in b],
                           [abs(x) for x in poly], abs(complex(c)), 0.0, 1.0)
    top = max(scale)
    if not top > 0:
        return math.inf
    return max(abs(t) for t in total) / top


def check_residues(doc, raw_a, raw_b):
    """Substitute every returned residue polynomial into the normalized ODE.

    ``raw_a``/``raw_b`` are the spec's coefficients as GQ values, exactly as
    the spec file holds them.  The normalization is recomputed here: exactly
    when the documented scale is rational, in floating point otherwise.
    """
    reasons = []
    n = len(raw_a)
    q = struct_q(raw_b)
    k = n - q + 1
    echo = doc["spec"]["normalization_scale"]
    s_prog = complex(echo["re"], echo["im"])
    s_want = expected_scale(n, raw_b)
    if abs(s_prog - s_want) > 1e-9 * abs(s_want):
        return ["normalization scale %r, expected %r" % (s_prog, s_want)]
    s_exact = snap_rational(s_prog)
    exact_scale = s_exact ** k == GQ(normalization_target(n, q)) / raw_b[q]
    if exact_scale:
        a_norm = [raw_a[j] * s_exact ** (n - j) for j in range(n)]
        b_norm = [raw_b[j] * s_exact ** (n - j + 1) for j in range(n)]
    else:
        a_norm = [complex(raw_a[j]) * s_want ** (n - j) for j in range(n)]
        b_norm = [complex(raw_b[j]) * s_want ** (n - j + 1) for j in range(n)]
    for sol in doc["residue_solutions"]:
        if "poly" not in sol:
            continue            # identically zero, or an essential singularity
        pole = complex(sol["pole"]["re"], sol["pole"]["im"])
        poly = [parse_scalar(c) for c in sol["poly"]]
        if exact_scale and all(isinstance(c, GQ) for c in poly):
            t0 = snap_rational(pole)
            lhs = apply_operator(a_norm, b_norm, poly, -t0, GQ(0), GQ(1))
            if any(lhs):
                reasons.append("residue polynomial at %r does not satisfy the "
                               "normalized ODE (exact substitution)" % pole)
        else:
            resid = float_substitution_residual(a_norm, b_norm, poly, -pole)
            if not resid <= RESIDUAL_TOL:
                reasons.append("residue polynomial at %r: substitution residual "
                               "%.3g > %.0e" % (pole, resid, RESIDUAL_TOL))
    return reasons
