"""Growth and value-distribution analytics.

Covers the characteristic-equation root classes, the catalog of possible
growth orders, predicted and empirical directional indicators, the derived
Nevanlinna coefficients, and argument-principle zero counting in sectors.
"""

from __future__ import annotations

import cmath
import math
# unused: perfbench/spans.py patches this name (ROADMAP item 5 drops both)
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NumericError
from .odespec import OdeSpec
from .poly import Poly
from .ratfun import poly_roots
from .solutions import SolutionHandle

CLASSIFY_MIN_ABS_Z = 50.0


# ----------------------------------------------------------------------------
# characteristic equation
# ----------------------------------------------------------------------------

@dataclass
class CharRoots:
    z: complex
    roots: list
    classes: list                  # "outer" | "middle" | "inner" per root

    def counts(self):
        return (self.classes.count("outer"), self.classes.count("middle"),
                self.classes.count("inner"))


def char_roots(spec: OdeSpec, z: complex) -> CharRoots:
    """Roots of y^n + sum (a_j + b_j z) y^j = 0 with asymptotic classes.

    Classes (for large |z|): ``outer`` roots grow like z^(1/(n-q)),
    ``middle`` roots approach the nonzero roots of sum b_j y^j, ``inner``
    roots decay like z^(-1/p).  Classification is refused for small |z|.
    """
    z = complex(z)
    if abs(z) < CLASSIFY_MIN_ABS_Z:
        raise NumericError(
            "|z| = %.3g is below the classification threshold %.3g "
            "(asymptotic classes are ambiguous)" % (abs(z), CLASSIFY_MIN_ABS_Z))
    n, q, p = spec.n, spec.indices.q, spec.indices.p
    coeffs = [complex(spec.a[j]) + complex(spec.b[j]) * z for j in range(n)]
    coeffs.append(1.0 + 0j)
    roots = [c.center_complex for c in poly_roots(Poly(coeffs))
             for _ in range(c.multiplicity)]
    # magnitude-sorted assignment: n-q outer (largest), then q-p middle,
    # then p inner (smallest)
    order = sorted(range(len(roots)), key=lambda k: -abs(roots[k]))
    classes = [None] * len(roots)
    for pos, k in enumerate(order):
        if pos < n - q:
            classes[k] = "outer"
        elif pos < n - p:
            classes[k] = "middle"
        else:
            classes[k] = "inner"
    return CharRoots(z=z, roots=roots, classes=classes)


# ----------------------------------------------------------------------------
# order catalog
# ----------------------------------------------------------------------------

@dataclass
class OrderCatalog:
    entries: list                  # (order: Fraction, status: str, condition: str)

    def orders(self):
        return [e[0] for e in self.entries]


def order_catalog(spec: OdeSpec) -> OrderCatalog:
    """Possible orders of growth of transcendental (and polynomial)
    solutions, with the structural condition each row requires."""
    n, q, p = spec.n, spec.indices.q, spec.indices.p
    entries = [(Fraction(1) + Fraction(1, n - q), "guaranteed",
                "solutions of maximal order always exist")]
    if p < q:
        entries.append((Fraction(1), "possible", "requires p < q (holds)"))
    if p > 1:
        entries.append((Fraction(1) - Fraction(1, p), "possible",
                        "requires p > 1 (holds)"))
    if p == 1:
        entries.append((Fraction(0), "possible",
                        "polynomial solutions require p = 1 (holds)"))
    return OrderCatalog(entries=entries)


# ----------------------------------------------------------------------------
# indicator
# ----------------------------------------------------------------------------

def indicator_predicted(rho, theta: float, case: str = "generic") -> float:
    """Predicted directional indicator of the principal contour solution.

    generic:          -cos(rho theta)/rho on |theta| <= pi
    q_eq_n_minus_1:   -cos(2 theta)/2 on |theta| < 3 pi/4, 0 beyond
    """
    rho = float(rho)
    if case == "generic":
        return -math.cos(rho * theta) / rho
    if case == "q_eq_n_minus_1":
        if abs(theta) < 0.75 * math.pi:
            return -0.5 * math.cos(2.0 * theta)
        return 0.0
    raise ValueError("unknown indicator case %r" % case)


def local_indicator(rho, m: int, j: int, theta: float) -> float:
    """The j-th member of the admissible local-indicator family:
    -cos(rho theta + 2 pi j / m)/rho for 0 <= j < m, and 0 for j = m.

    Directional growth of any distinguished solution must locally agree
    with one of these candidates; the predicted indicator is the j = 0
    member on its central sector.
    """
    if not 0 <= j <= m:
        raise ValueError("j must lie in [0, m]")
    if j == m:
        return 0.0
    rho = float(rho)
    return -math.cos(rho * theta + 2 * math.pi * j / m) / rho


@dataclass
class IndicatorProfile:
    rho: float
    case: str
    thetas: np.ndarray
    radii: list
    h_emp: np.ndarray              # shape (len(thetas), len(radii))
    h_pred: np.ndarray
    est_rel_err: np.ndarray = None
    deviations: list = field(default_factory=list)   # sup|h_emp-h_pred| per radius


def indicator_empirical(handle: SolutionHandle, rho, thetas, radii,
                        tol: float = 1e-8,
                        case: str = "generic") -> IndicatorProfile:
    """Sampled log|f(r e^(i theta))| / r^rho on the grid.

    Magnitudes come from the log-scaled evaluator, never from folded
    values, so radii far beyond the overflow range are fine.  Cells where
    quadrature fails are recorded as NaN.
    """
    rho = float(rho)
    thetas = np.asarray(list(thetas), dtype=float)
    radii = list(radii)
    if np.any(np.abs(thetas) > math.pi - 0.05 + 1e-12):
        raise ValueError("indicator angles must satisfy |theta| <= pi - 0.05")
    if any(radii[i] >= radii[i + 1] for i in range(len(radii) - 1)):
        raise ValueError("radii must be increasing")
    if any(not r > 0 for r in radii):
        raise ValueError("radii must be positive")
    h_emp = np.full((len(thetas), len(radii)), np.nan)
    est = np.full((len(thetas), len(radii)), np.nan)
    for i, theta in enumerate(thetas):
        for k, r in enumerate(radii):
            try:
                qr = handle.eval(r * cmath.exp(1j * theta), 0, tol)
            except NumericError:
                continue
            h_emp[i, k] = qr.log_abs() / r ** rho
            est[i, k] = qr.rel_error()
    h_pred = np.array([indicator_predicted(rho, th, case) for th in thetas])
    deviations = [float(np.nanmax(np.abs(h_emp[:, k] - h_pred)))
                  for k in range(len(radii))]
    return IndicatorProfile(rho=rho, case=case, thetas=thetas, radii=radii,
                            h_emp=h_emp, h_pred=h_pred, est_rel_err=est,
                            deviations=deviations)


# ----------------------------------------------------------------------------
# Nevanlinna coefficients
# ----------------------------------------------------------------------------

def nevanlinna_predicted(rho, case: str = "generic"):
    """(T, m_inv, N) coefficients of the predicted indicator h over the full
    circle: T ~ (1/2pi) int h+, m(r,1/f) ~ (1/2pi) int h-, N(r,1/f) ~
    (1/2pi) int h.  Each piece between sign changes of h is integrated
    exactly from the antiderivative F of h."""
    rho = float(rho)
    if case == "generic":
        def F(th):
            return -math.sin(rho * th) / rho ** 2

        breaks = [-math.pi, -math.pi / (2 * rho), math.pi / (2 * rho), math.pi]
        extra = 3 * math.pi / (2 * rho)
        if extra < math.pi:
            breaks += [extra, -extra]
    elif case == "q_eq_n_minus_1":
        def F(th):
            return -0.25 * math.sin(2.0 * min(max(th, -0.75 * math.pi),
                                              0.75 * math.pi))

        breaks = [-math.pi, -0.75 * math.pi, -math.pi / 4, math.pi / 4,
                  0.75 * math.pi, math.pi]
    else:
        raise ValueError("unknown indicator case %r" % case)
    breaks = sorted(set(breaks))
    d = [F(b) - F(a) for a, b in zip(breaks[:-1], breaks[1:])]
    c = 1.0 / (2 * math.pi)
    return (c * sum(max(x, 0.0) for x in d), c * sum(max(-x, 0.0) for x in d),
            c * sum(d))


def nevanlinna_estimates(profile: IndicatorProfile, radius_index: int = -1):
    """Trapezoid (T, m_inv, N) coefficients over the profile grid, for the
    predicted and the empirical indicator in parallel."""
    th = profile.thetas
    out = {}
    for name, h in (("pred", profile.h_pred),
                    ("emp", profile.h_emp[:, radius_index])):
        h = np.asarray(h, dtype=float)
        mask = np.isfinite(h)
        t = np.trapezoid(np.maximum(h[mask], 0.0), th[mask]) / (2 * math.pi)
        m = np.trapezoid(np.maximum(-h[mask], 0.0), th[mask]) / (2 * math.pi)
        n = np.trapezoid(h[mask], th[mask]) / (2 * math.pi)
        out[name] = (float(t), float(m), float(n))
    return out


# ----------------------------------------------------------------------------
# zero counting by the argument principle
# ----------------------------------------------------------------------------

@dataclass
class ZeroCount:
    count: int
    raw: float
    confidence: float              # distance of raw winding to the integer
    reliable: bool
    samples: int


STEP_TURN = math.pi / 4        # largest change of arg f accepted in one step
MAX_STEP = 1 / 8               # of a boundary piece
MIN_STEP = 2.0 ** -16


def _sector_boundary(theta1: float, theta2: float, radius: float):
    """The closed sector boundary as pieces (z(s), dz/ds) on s in [0, 1].

    Radial pieces stop at a small inner radius; a reverse inner arc closes
    the loop there (the function is nonzero at the vertex, so the inner
    contribution is a tiny phase drift, not a winding).
    """
    def arc(a, b, r):
        return (lambda s: r * cmath.exp(1j * (a + s * (b - a))),
                lambda s: 1j * (b - a) * r * cmath.exp(1j * (a + s * (b - a))))

    def ray(angle, r0, r1):
        u = cmath.exp(1j * angle)
        return lambda s: (r0 + s * (r1 - r0)) * u, lambda s: (r1 - r0) * u

    if abs(theta2 - theta1) >= 2 * math.pi - 1e-12:
        return [arc(theta1, theta1 + 2 * math.pi, radius)]
    inner = 1e-3 * radius
    return [ray(theta1, inner, radius), arc(theta1, theta2, radius),
            ray(theta2, radius, inner), arc(theta2, theta1, inner)]


def zero_count_sector(handle: SolutionHandle, sector,
                      tol: float = 1e-8) -> ZeroCount:
    """Winding number of f over the boundary of the sector
    {0 < |z| <= r, theta1 <= arg z <= theta2}, which must satisfy r > 0 and
    theta1 < theta2 <= theta1 + 2 pi.

    One walk goes round the boundary, and each sample evaluates f and f'
    together.  A step h is at most twice the last one, at most 1/8 of a
    piece, and keeps |h g dz/ds| <= pi/4 where g = f'/f.  It is accepted
    when arg f turns by at most pi/4 and the change of log f agrees within
    pi/8 with the trapezoid estimate of the integral of g dz, which catches
    a turn the wrapped phase alone would alias; otherwise it is halved,
    down to MIN_STEP.  The count is unreliable when any boundary
    evaluation comes back flagged.

    A handle with a ``walk`` evaluator (``lambda_solution``'s) is sampled
    through one walk, which integrates each sample on the path the last
    one used while that path serves; any other handle through
    ``eval_multi``.
    """
    theta1, theta2, radius = sector
    if not radius > 0:
        raise ValueError("sector radius must be positive")
    if not theta1 < theta2 <= theta1 + 2 * math.pi:
        raise ValueError("sector angles must satisfy "
                         "theta1 < theta2 <= theta1 + 2 pi")
    pieces = _sector_boundary(theta1, theta2, radius)
    walk = getattr(handle, "walk", None)
    evaluate = walk() if walk else handle.eval_multi
    flagged = False
    worst_err = 0.0
    samples = 0

    def sample(z: complex):
        nonlocal flagged, worst_err, samples
        f, df = evaluate(z, [0, 1], tol)
        if f.mantissa == 0:
            raise NumericError("boundary hit an exact zero")
        samples += 1
        flagged = flagged or bool(f.flags)
        worst_err = max(worst_err, f.rel_error())
        g = df.mantissa / f.mantissa * math.exp(df.log_scale - f.log_scale)
        return f.log_abs(), cmath.phase(f.mantissa), g

    # the last sample of a piece is the first of the next, and the walk
    # closes on its first sample
    a = first = sample(pieces[0][0](0.0))
    total_im = 0.0
    for k, (z, dz) in enumerate(pieces):
        closing = k == len(pieces) - 1
        s, h = 0.0, MAX_STEP
        while s < 1.0:
            wa = a[2] * dz(s)
            h = min(2 * h, MAX_STEP, STEP_TURN / abs(wa) if wa else MAX_STEP)
            left = 1.0 - s
            # equal steps to the piece end, so no sliver is left there
            h = left / math.ceil(left / h - 1e-9)
            while True:
                if h < MIN_STEP:
                    raise NumericError("zero-count boundary refinement failed")
                t = 1.0 if h == left else s + h
                b = first if closing and t == 1.0 else sample(z(t))
                dim = (b[1] - a[1] + math.pi) % (2 * math.pi) - math.pi
                est = 0.5 * h * (wa + b[2] * dz(t))
                if abs(dim) <= STEP_TURN and \
                        abs(complex(b[0] - a[0], dim) - est) <= math.pi / 8:
                    break
                h /= 2
            total_im += dim
            s, a = t, b
    raw = total_im / (2 * math.pi)
    count = int(round(raw))
    confidence = float(abs(raw - count))
    reliable = bool(confidence <= 0.2 and worst_err < 0.3 and not flagged)
    return ZeroCount(count=count, raw=raw, confidence=confidence,
                     reliable=reliable, samples=samples)
