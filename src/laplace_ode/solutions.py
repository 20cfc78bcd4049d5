"""Solution families: distinguished contour solutions, residue solutions,
rotational symmetry sums, substitution checks, independence tests.

Contours run counterclockwise (incoming ray below, outgoing above), so the
sum of the distinguished solutions over all sectors equals the positively
oriented circle integral (1/2 pi i) * closed integral of phi e^(-z t) dt,
i.e. plus the sum of the residues of the kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .contour import (DEFAULT_TOL, TRACE_DROP, QuadResult, circle_eval_multi,
                      combine_linear, laplace_eval_batch, laplace_eval_multi,
                      log_rescale, plan_contour, qr_zero)
from .errors import NumericError, ResidueError
from .ratfun import PoleData
from .kernel import KernelData
from .odespec import OdeSpec
from .poly import Poly
from .scalars import GaussRational, is_exact
from .series import (binomial_coeffs, poly_series, series_exp, series_mul,
                     series_trim)

# how much more a walk's kept path may cancel than at its planning z:
# half a digit, in nats
WALK_SLACK = 0.5 * math.log(10.0)
# eval_many integrates at most this many z as one batch, so that its memory
# stays bounded however large the grid: 7 cells peak at 0.4-0.8 MB traced
BATCH_CELLS = 7


# ----------------------------------------------------------------------------
# solution handles
# ----------------------------------------------------------------------------

def _or_none(f, *args):
    """f(*args), or None where it raises NumericError."""
    try:
        return f(*args)
    except NumericError:
        return None


@dataclass
class SolutionHandle:
    """Evaluator for one solution; eval(z, j, tol) returns the j-th
    derivative as a QuadResult.

    ``walk``, where set, starts a walk: walk() returns an evaluator with
    eval_multi's signature for a run of neighbouring z, which may carry its
    work over from one call to the next.  ``_many``, where set, evaluates
    one batch of z for ``eval_many``.
    """

    kind: str                       # "contour" | "residue" | "closed_form" | "sum"
    label: str
    _multi: object = field(repr=False)   # callable(z, js, tol) -> [QuadResult]
    poly: Poly = None               # w = const * poly(z) * e^(exp_factor z)
    exp_factor: object = None
    walk: object = field(default=None, repr=False)
    _many: object = field(default=None, repr=False)     # callable(zs, js, tol)

    def eval(self, z, j: int = 0, tol: float = DEFAULT_TOL) -> QuadResult:
        return self._multi(complex(z), [j], tol)[0]

    def eval_multi(self, z, js, tol: float = DEFAULT_TOL):
        return self._multi(complex(z), list(js), tol)

    def eval_many(self, zs, js, tol: float = DEFAULT_TOL):
        """eval_multi at every z of ``zs``: one result list per z, or None
        where that z raised NumericError; one z at a time, in order, unless
        the handle has ``_many``, which takes BATCH_CELLS z at a time."""
        zs, js = [complex(z) for z in zs], list(js)
        if self._many is None:
            return [_or_none(self._multi, z, js, tol) for z in zs]
        return [qs for c in range(0, len(zs), BATCH_CELLS)
                for qs in self._many(zs[c:c + BATCH_CELLS], js, tol)]

    def value(self, z, tol: float = DEFAULT_TOL) -> complex:
        return self.eval(z, 0, tol).value


def _cancellation(quad) -> float:
    """Worst log_scale - log|value| over the results, in nats."""
    return max(q.log_scale - q.log_abs() for q in quad)


def lambda_solution(kd: KernelData, nu: int) -> SolutionHandle:
    """The nu-th distinguished contour solution (nu = 0 is the principal one).

    Each evaluation integrates along the steepest-descent path for its z
    (``plan_contour``), which keeps the path maximum of the integrand at the
    result magnitude, or on the canonical contour's polygon, truncated for
    that z and tolerance, where no descent path applies.  For every pole
    that path sweeps across, relative to the canonical contour, winding *
    residue solution is added back, so the value is the canonical
    contour's.

    The handle's ``walk`` evaluator, for a run of neighbouring z, keeps the
    last plan's :class:`~laplace_ode.contour.Polygon` (vertices, windings,
    branch anchors, log phi at the vertices and first-pass nodes) and
    integrates the next z on it while (a) both its end vertices still lie
    TRACE_DROP below its vertex maximum of Re(log phi - z t) and (b) the
    result is unflagged and cancels at most WALK_SLACK more than the path
    did at the z it was planned for; otherwise it plans afresh.
    The integral does not depend on the path, and the windings belong to
    the polygon, so a kept path gives the value a fresh plan gives, within
    the two results' errors.

    ``eval_many`` plans every z of a batch afresh, integrates the paths in
    one ``laplace_eval_batch`` call and adds each cell's residues: each
    cell gets the value a single evaluation gives, bit for bit.
    """
    if not 0 <= nu <= kd.m:
        raise ValueError("nu must lie in [0, %d]" % kd.m)

    def with_residues(pk, z, js, tol, out):
        for k, w in pk.windings:
            res = _pole_residue(kd, k).handle.eval_multi(z, js, tol)
            out = [combine_linear([(1.0, q), (w, r)]) for q, r in zip(out, res)]
        return out

    def walk():
        kept = None     # (polygon, cancellation limit)

        def step(z, js, tol):
            nonlocal kept
            z, js = complex(z), list(js)
            if kept is not None:
                pk, limit = kept
                h = (pk.vertex_log_phi - z * pk.vertices).real
                if max(h[0], h[-1]) <= h.max() - TRACE_DROP:
                    quad = laplace_eval_multi(kd, pk, z, js, tol)
                    if _cancellation(quad) <= limit and \
                            not any(q.flags for q in quad):
                        return with_residues(pk, z, js, tol, quad)
            pk = plan_contour(kd, nu, z, tol)
            quad = laplace_eval_multi(kd, pk, z, js, tol)
            kept = (pk, _cancellation(quad) + WALK_SLACK)
            return with_residues(pk, z, js, tol, quad)

        return step

    def many(zs, js, tol):
        paths = [_or_none(plan_contour, kd, nu, z, tol) for z in zs]
        cells = [(pk, z) for pk, z in zip(paths, zs) if pk is not None]
        quads = iter(laplace_eval_batch([pk for pk, _z in cells],
                                        [z for _pk, z in cells], js, tol))
        return [None if pk is None else
                _or_none(with_residues, pk, z, js, tol, next(quads))
                for pk, z in zip(paths, zs)]

    # a single evaluation is a walk of one step
    return SolutionHandle(kind="contour", label="Lambda_%d" % nu,
                          _multi=lambda z, js, tol: walk()(z, js, tol),
                          walk=walk, _many=many)


def branch_note(kd: KernelData):
    """The branch choice of a many-valued kernel; None for a single-valued
    one."""
    if kd.poles and not kd.is_single_valued:
        return ("log(t - t_nu) initialized with principal arguments at the "
                "far end of the incoming ray and continued along the contour")
    return None


def closed_form_solution(poly: Poly, exp_factor=GaussRational(0),
                         label: str = "closed_form") -> SolutionHandle:
    """Handle for P(z) * e^(c z); derivatives are exact polynomials."""
    c = exp_factor

    derivs = [poly]

    def dpoly(j):
        while len(derivs) <= j:
            p = derivs[-1]
            derivs.append(p * c + p.derivative())
        return derivs[j]

    def multi(z, js, tol):
        out = []
        cz = complex(c) * z
        scale = cz.real
        phase = cmath.exp(1j * cz.imag)
        for j in js:
            val = complex(dpoly(j)(z)) * phase
            out.append(QuadResult(mantissa=val, log_scale=scale,
                                  est_error=0.0, nodes_used=0))
        return out

    return SolutionHandle(kind="closed_form", label=label, _multi=multi,
                          poly=poly, exp_factor=c)


def parse_closed_form(doc: dict, label: str = "closed_form") -> SolutionHandle:
    """Closed-form JSON {"poly": [c_0..c_d], "exp_factor": c}."""
    from .odespec import _scalar_from_json
    coeffs = [_scalar_from_json(v, "poly[%d]" % k)
              for k, v in enumerate(doc.get("poly", []))]
    expf = _scalar_from_json(doc.get("exp_factor", 0), "exp_factor")
    return closed_form_solution(Poly(coeffs), expf, label)


# ----------------------------------------------------------------------------
# residue solutions
# ----------------------------------------------------------------------------

@dataclass
class ResidueSolution:
    """res at t0 of [phi(t) e^(-z t)], classified per its pole structure."""

    pole: object                    # location (exact or complex)
    lam: object                     # residue of Q0/Q1 there
    order: int                      # actual pole order of Q0/Q1 at t0
    form: str                       # "polynomial" | "exp_times_entire" | "identically_zero"
    handle: SolutionHandle
    poly: Poly = None               # exact polynomial factor when applicable
    exp_scale: object = None        # w = exp(exp_scale) * e^(-t0 z) * poly(z)
    growth_order: object = None     # rational order bound


def _find_pole(kd: KernelData, pole) -> int:
    pc = complex(pole)
    for k, p in enumerate(kd.poles):
        if abs(p.location_complex - pc) <= 1e-6 * (1.0 + abs(pc)):
            return k
    raise ResidueError("%r is not a singularity of the kernel" % (pole,))


def _regular_factor_series(kd: KernelData, pole: PoleData, order: int):
    """Taylor series about the pole of phi with the (t - t0) power removed.

    Returns (lift, log_scale, coeffs): the factor is
    exp(log_scale) * sum coeffs[k] (t - t0)^k, computed in the field
    ``lift`` maps into: exactly when the kernel data are exact and every
    pole has an integer exponent, in complex arithmetic otherwise.
    """
    exact = kd.exact and all(p.lam_integer is not None for p in kd.poles)
    lift = (lambda x: x) if exact else complex
    t0 = lift(pole.location)
    zero, one = lift(GaussRational(0)), lift(GaussRational(1))

    # exp(R0): split off the constant R0(t0)
    r0_series = poly_series(Poly([lift(c) for c in kd.r0.coeffs]), t0, order)
    log_scale = r0_series[0]
    r0_series[0] = zero
    series = series_exp(r0_series, order)

    for p in kd.poles:
        if p is pole:
            continue
        # (t - t_nu) = (d + u) with u = t - t0; * -1, not negation, keeps
        # the signed zeros of the complex route
        d = (p.location - t0) * -1
        e = lift(p.exponent)
        ei = p.lam_integer
        const = d ** (e if ei is None else -(ei + p.multiplicity))
        inv_d = one / d
        series = series_mul(series, binomial_coeffs(e, inv_d, order), order)
        series = [c * const for c in series]
        if not p.r_poly.is_zero:
            # R_nu(1/(d+u)) = R_nu(x0 (1 + u/d)^-1); expand and split constant
            x_series = [c * inv_d for c in binomial_coeffs(-1, inv_d, order)]
            acc = series_trim([zero], order)
            xp = series_trim([one], order)
            for ck in p.r_poly.coeffs[1:]:
                xp = series_mul(xp, x_series, order)
                acc = [ai + ck * xi for ai, xi in zip(acc, xp)]
            log_scale = log_scale + acc[0]
            acc[0] = zero
            series = series_mul(series, series_exp(acc, order), order)
    return lift, log_scale, series_trim(series, order)


def residue_solution(kd: KernelData, pole) -> ResidueSolution:
    """Solution res_{t0}[phi(t) e^(-z t)].

    Requires an integer residue at the pole.  Non-essential singularities
    yield exact polynomials times e^(-t0 z) (via series arithmetic, exact
    when the kernel is); essential ones yield an evaluator of order
    1 - 1/order that integrates a small circle about the pole.  Each pole's
    solution is built once per kernel and shared by every later call.
    """
    return _pole_residue(kd, _find_pole(kd, pole))


def _pole_residue(kd: KernelData, k: int) -> ResidueSolution:
    # library callers may thread; a race at worst builds the same
    # solution twice
    rs = kd._residues.get(k)
    if rs is None:
        rs = kd._residues[k] = _build_residue(kd, kd.poles[k])
    return rs


def _build_residue(kd: KernelData, p: PoleData) -> ResidueSolution:
    """The residue solution at ``p``: an exact polynomial times e^(-t0 z)
    at a pole, and at an essential singularity the integral over a circle
    about t0 of radius about |z|^(-1/order) (``circle_eval_multi``, the
    adaptive quadrature on the closed polygon inscribed in the circle)."""
    lam_int = p.lam_integer
    if lam_int is None:
        raise ResidueError(
            "residue at %s is not an integer (lambda = %s); the residue "
            "solution hypothesis fails" % (p.location_complex,
                                           complex(p.lam)))
    t0 = p.location
    t0c = complex(t0)

    if not p.is_essential:
        k0 = p.multiplicity + lam_int
        if k0 <= 0:
            h = SolutionHandle(kind="residue", label="res_%s" % t0c,
                               _multi=lambda z, js, tol: [qr_zero() for _ in js])
            return ResidueSolution(pole=t0, lam=p.lam, order=p.order_of_q0q1,
                                   form="identically_zero", handle=h,
                                   poly=Poly(), growth_order=0)
        lift, log_scale, hs = _regular_factor_series(kd, p, k0 - 1)
        # res = e^{-z t0} sum_{c} hs[k0-1-c] (-z)^c / c!
        coeffs = []
        fact = lift(GaussRational(1))
        for c in range(k0):
            if c > 0:
                fact = fact * c
            term = hs[k0 - 1 - c] * ((-1) ** c)
            coeffs.append(term / fact)
        wpoly = Poly(coeffs)
        handle = _poly_residue_handle(wpoly, log_scale, lift(t0),
                                      "res_%s" % t0c)
        form = "polynomial" if t0c == 0 else "exp_times_entire"
        return ResidueSolution(pole=t0, lam=p.lam, order=p.order_of_q0q1,
                               form=form, handle=handle, poly=wpoly,
                               exp_scale=log_scale, growth_order=0)

    # essential singularity: the circle's radius adapts to z
    rho_max = _half_distance(kd, p)
    mord = max(p.order_of_q0q1, 2)
    floor = 2e-3 * (1.0 + abs(t0c))

    def multi(z, js, tol):
        rho = min(rho_max, max(floor, abs(z) ** (-1.0 / mord)
                               if abs(z) > 1 else rho_max))
        return circle_eval_multi(kd, t0c, rho, z, js, tol)

    handle = SolutionHandle(kind="residue", label="res_%s" % t0c, _multi=multi)
    return ResidueSolution(pole=t0, lam=p.lam, order=p.order_of_q0q1,
                           form="exp_times_entire", handle=handle,
                           growth_order=Fraction(1) - Fraction(1, mord))


def _poly_residue_handle(wpoly: Poly, log_scale, t0,
                         label: str) -> SolutionHandle:
    scale_c = complex(log_scale)
    t0c = complex(t0)
    inner = closed_form_solution(wpoly.to_complex() * cmath.exp(1j * scale_c.imag),
                                 -t0c, label)

    def multi(z, js, tol):
        out = inner.eval_multi(z, js, tol)
        return [QuadResult(q.mantissa, q.log_scale + scale_c.real,
                           q.est_error, q.nodes_used, q.flags) for q in out]

    return SolutionHandle(kind="residue", label=label, _multi=multi,
                          poly=wpoly, exp_factor=-t0)


def _half_distance(kd: KernelData, p: PoleData) -> float:
    dists = [abs(q.location_complex - p.location_complex)
             for q in kd.poles if q is not p]
    if not dists:
        return 1.0
    return 0.5 * min(dists)


def residue_solutions(kd: KernelData):
    """Residue solutions at every singular pole with integer residue."""
    return [_pole_residue(kd, k) for k, p in enumerate(kd.poles)
            if p.is_singular and p.lam_integer is not None]


# ----------------------------------------------------------------------------
# symmetry sum
# ----------------------------------------------------------------------------

@dataclass
class SymmetrySum:
    handle: SolutionHandle
    classification: str             # identically_zero | residue_combination | subnormal
    radius: float


def symmetry_sum(kd: KernelData) -> SymmetrySum:
    """Sum over all distinguished solutions: the positively oriented
    circle integral over |t| = singular_radius + 1.

    When every singular pole has an integer residue that integral is the
    sum of the residue solutions (zero without singular poles); otherwise
    (subnormal) it is integrated on the closed polygon inscribed in the
    circle (``circle_eval_multi``), its branch started from principal
    arguments at t = singular_radius + 1.  Requires an integer residue sum
    (otherwise the kernel is not single-valued outside the poles and the
    circle realization is invalid).
    """
    if kd.residue_sum_integer is None:
        raise ResidueError(
            "sum of residues %s is not an integer; the symmetry sum has no "
            "single-valued circle realization" % kd.residue_sum_complex)
    radius = kd.singular_radius + 1.0
    singular = [p for p in kd.poles if p.is_singular]
    if any(p.lam_integer is None for p in singular):
        classification = "subnormal"

        def multi(z, js, tol):
            return circle_eval_multi(kd, 0.0, radius, z, js, tol)
    else:
        classification = ("residue_combination" if singular
                          else "identically_zero")

        def multi(z, js, tol):
            parts = [rs.handle.eval_multi(z, js, tol)
                     for rs in residue_solutions(kd)]
            return [combine_linear([(1.0, qs[i]) for qs in parts])
                    for i in range(len(js))]

    handle = SolutionHandle(kind="sum", label="symmetry_sum", _multi=multi)
    return SymmetrySum(handle=handle, classification=classification,
                       radius=radius)


def symmetry_check(kd: KernelData, points, tol: float = DEFAULT_TOL) -> float:
    """Max deviation |sum_nu Lambda_nu(z) - symmetry sum| over the points,
    relative to the magnitude scale at each point."""
    ss = symmetry_sum(kd)
    lams = [lambda_solution(kd, nu) for nu in range(kd.m + 1)]
    worst = 0.0
    for z in points:
        parts = [h.eval(z, 0, tol) for h in lams]
        total = combine_linear([(1.0, p) for p in parts])
        circ = ss.handle.eval(z, 0, tol)
        diff = combine_linear([(1.0, total), (-1.0, circ)])
        scale = max(max(p.log_abs() for p in parts), circ.log_abs())
        if scale == -math.inf:
            continue
        worst = max(worst, math.exp(diff.log_abs() - scale)
                    if diff.log_abs() > -math.inf else 0.0)
    return worst


# ----------------------------------------------------------------------------
# substitution checks
# ----------------------------------------------------------------------------

def apply_operator_exact(spec: OdeSpec, poly: Poly, exp_factor):
    """L[P e^(c z)] / e^(c z) as an exact polynomial in z."""
    c = exp_factor
    derivs = [poly]
    for _ in range(spec.n):
        p = derivs[-1]
        derivs.append(p * c + p.derivative())
    total = derivs[spec.n]
    z_poly = Poly([GaussRational(0), GaussRational(1)])
    for j in range(spec.n):
        aj, bj = spec.a[j], spec.b[j]
        if aj:
            total = total + derivs[j] * aj
        if bj:
            total = total + z_poly * derivs[j] * bj
    return total


def check_solution(spec: OdeSpec, handle: SolutionHandle, points,
                   tol: float = DEFAULT_TOL):
    """Relative ODE residual at each point.

    Closed-form handles with exact data are substituted exactly (returned
    residuals are exactly zero when the polynomial identity vanishes);
    other handles are checked with quadrature derivatives.
    """
    points = [complex(z) for z in points]
    report = {"kind": handle.kind, "label": handle.label, "points": [],
              "residuals": [], "exact": False, "max_residual": 0.0}
    if handle.kind in ("closed_form", "residue") and \
            handle.poly is not None and \
            handle.poly.is_exact and spec.is_exact and \
            is_exact(handle.exp_factor):
        lhs = apply_operator_exact(spec, handle.poly, handle.exp_factor)
        report["exact"] = True
        resid = 0.0 if lhs.is_zero else max(abs(complex(cc)) for cc in lhs.coeffs)
        report["points"] = points
        report["residuals"] = [resid] * len(points)
        report["max_residual"] = resid
        return report

    js = list(range(spec.n + 1))
    for z in points:
        z = complex(z)
        qs = handle.eval_multi(z, js, tol)
        coeffs = [complex(spec.a[j]) + complex(spec.b[j]) * z
                  for j in range(spec.n)] + [1.0 + 0j]
        _scale, factors = log_rescale([q.log_scale for q in qs])
        num = 0j
        den = 0.0
        for cj, q, f in zip(coeffs, qs, factors):
            term = cj * q.mantissa * f
            num += term
            den += abs(term)
        resid = abs(num) / den if den > 0 else 0.0
        report["points"].append(z)
        report["residuals"].append(resid)
    report["max_residual"] = max(report["residuals"], default=0.0)
    return report


# ----------------------------------------------------------------------------
# linear independence (numerical verdict only)
# ----------------------------------------------------------------------------

def independence_check(handles, z0, tol: float = 1e-6):
    """Wronskian of the handles at z0 with a scale-aware verdict."""
    k = len(handles)
    if k == 0:
        raise ValueError("need at least one handle")
    cols = []
    scales = []
    for h in handles:
        qs = h.eval_multi(z0, list(range(k)), min(tol, 1e-8))
        s, factors = log_rescale([q.log_scale for q in qs])
        col = np.array([q.mantissa * f for q, f in zip(qs, factors)])
        cols.append(col)
        scales.append(s)
    mat = np.array(cols).T
    det = np.linalg.det(mat)
    col_norms = np.linalg.norm(mat, axis=0)
    hadamard = float(np.prod(np.maximum(col_norms, 1e-300)))
    verdict = "independent" if abs(det) > tol * hadamard else "dependent-suspected"
    qr = QuadResult(mantissa=det, log_scale=float(sum(scales)),
                    est_error=tol * hadamard, nodes_used=0)
    return qr, verdict


# ----------------------------------------------------------------------------
# growth measurement
# ----------------------------------------------------------------------------

def empirical_growth(handle: SolutionHandle, radii, nrays: int = 16,
                     tol: float = 1e-8):
    """log max-modulus over rays at each radius, plus the fitted exponent
    of log log M(r) against log r."""
    radii = list(radii)
    logm = []
    for r in radii:
        best = -math.inf
        for k in range(nrays):
            th = 2 * math.pi * k / nrays
            q = handle.eval(r * cmath.exp(1j * th), 0, tol)
            best = max(best, q.log_abs())
        logm.append(best)
    xs = np.log(np.array(radii, dtype=float))
    ys = np.log(np.maximum(np.array(logm), 1e-12))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return logm, slope
