"""Contours and overflow-safe adaptive quadrature of Laplace integrals.

All integrand magnitudes are handled in log form: an evaluation returns a
mantissa together with a log scale, and partial sums are re-centered on the
running maximum exponent.  Naive summation would overflow once |z| grows,
and silent cancellation against the path maximum is the main accuracy risk,
so the evaluator can also re-plan the contour radius and ray angles (within
their admissible cones, values are unchanged by the deformation) to keep
the path maximum close to the result magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ContourError, NumericError
from .kernel import BranchState, KernelData, continue_args

DEFAULT_TOL = 1e-10
# Tolerances an evaluation accepts.  Below TOL_MIN no double-precision sum
# can meet the tolerance, and refinement would split intervals until the
# node budget, however large, runs out.
TOL_MIN, TOL_MAX = 1e-14, 1e-4
NODE_BUDGET = 20000
ANGLE_MARGIN = 0.02     # rad, strict distance from the decay-cone boundary
PLAN_PREFERENCE = 1.0   # log-units a candidate must win by to beat canonical
PLAN_SAMPLES = 40       # samples per ray and per arc when scoring a candidate
# Work per batched kernel evaluation.  Beyond a few thousand points the
# per-call overhead is negligible, while the temporaries grow with the batch
# and the indicator runs several evaluations at once.
PLAN_BATCH = 32         # candidates, 3 * PLAN_SAMPLES points each
QUAD_BATCH = 64         # intervals, 30 nodes each


# ----------------------------------------------------------------------------
# contour geometry
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Contour:
    """Path C: ray in at angle ``alpha`` from +infinity to radius R, circular
    arc from R*e^(i alpha) through the midpoint angle to R*e^(i beta), ray
    out at angle ``beta`` to +infinity.  Rays are truncated at ``t_max``."""

    radius: float
    alpha: float
    beta: float
    t_max: float

    def __post_init__(self):
        if self.radius < 0:
            raise ContourError("contour radius must be nonnegative")
        if self.t_max <= self.radius:
            raise ContourError("truncation length must exceed the radius")

    def segments(self):
        """(map, dmap, label) triples, each parametrized over s in [0, 1]."""
        segs = []
        ein = np.exp(1j * self.alpha)
        eout = np.exp(1j * self.beta)
        R, T = self.radius, self.t_max

        segs.append((lambda s: ein * (T + (R - T) * s),
                     lambda s: ein * (R - T) * np.ones_like(s), "ray_in"))
        if R > 0 and abs(self.beta - self.alpha) > 1e-15:
            a, b = self.alpha, self.beta
            segs.append((lambda s: R * np.exp(1j * (a + (b - a) * s)),
                         lambda s: 1j * R * (b - a) * np.exp(1j * (a + (b - a) * s)),
                         "arc"))
        segs.append((lambda s: eout * (R + (T - R) * s),
                     lambda s: eout * (T - R) * np.ones_like(s), "ray_out"))
        return segs


def decay_cone(m: int, center: float, margin: float = ANGLE_MARGIN):
    """Admissible ray-angle interval around a canonical odd multiple of
    pi/(m+1): cos((m+1) theta) < 0 holds strictly inside."""
    half = 0.5 * math.pi / (m + 1)
    return center - half + margin, center + half - margin


def check_decay(kd: KernelData, contour: Contour):
    k = kd.m + 1
    for name, ang in (("alpha", contour.alpha), ("beta", contour.beta)):
        if math.cos(k * ang) >= -1e-12:
            raise ContourError(
                "decay condition violated on ray %s=%.6f: cos(%d*theta) must "
                "be negative" % (name, ang, k))


def validate_contour(kd: KernelData, contour: Contour):
    check_decay(kd, contour)
    if kd.poles and contour.radius <= kd.singular_radius:
        raise ContourError(
            "contour radius %.3f does not clear the singular radius %.3f"
            % (contour.radius, kd.singular_radius))


def theta_k(kd: KernelData, k: int) -> float:
    return k * math.pi / (kd.m + 1)


def canonical_contour(kd: KernelData, nu: int, z: complex = 0.0,
                      tol: float = 1e-12) -> Contour:
    """Canonical contour for the nu-th distinguished solution.

    Runs counterclockwise: in along the ray at theta_(2 nu - 1), arc through
    theta_(2 nu), out along theta_(2 nu + 1).  This orientation makes the
    classical second-order fixture produce the Airy function with its
    conventional sign.
    """
    if not 0 <= nu <= kd.m:
        raise ContourError("nu must lie in [0, %d]" % kd.m)
    alpha = theta_k(kd, 2 * nu - 1)
    beta = theta_k(kd, 2 * nu + 1)
    radius = 0.0 if not kd.poles else kd.singular_radius + 1.0
    c = Contour(radius=radius, alpha=alpha, beta=beta, t_max=radius + 1.0)
    t_max = truncation_bound(kd, c, z, tol)
    return replace(c, t_max=t_max)


# ----------------------------------------------------------------------------
# truncation
# ----------------------------------------------------------------------------

def _ray_profile(kd: KernelData, angle: float, z: complex, r_start: float,
                 r_stop: float, n: int = 160):
    # worst case |e^{-z t}| <= e^{|z| r}: keeps the solved length monotone
    # in |z| and in the tolerance
    r = np.geomspace(max(r_start, 1e-3), r_stop, n)
    t = r * np.exp(1j * angle)
    g = kd.log_magnitude_bound(t) + abs(z) * r
    return r, g


def truncation_bound(kd: KernelData, contour: Contour, z: complex,
                     tol: float) -> float:
    """Ray length beyond which the integrand tail is below tol relative to
    the path maximum."""
    check_decay(kd, contour)
    drop = -math.log(max(tol, 1e-300)) + 40.0
    t_max = contour.radius + 1.0
    r0 = max(contour.radius, 1.0, 2.0 * kd.singular_radius + 1.0)
    for angle in (contour.alpha, contour.beta):
        hi = r0 * 2.0
        for _ in range(200):
            r, g = _ray_profile(kd, angle, z, r0 * 0.5, hi)
            peak = g.max()
            below = np.nonzero((g <= peak - drop) &
                               (np.arange(len(g)) > np.argmax(g)))[0]
            if len(below):
                t_max = max(t_max, r[below[0]])
                break
            hi *= 2.0
            if hi > 1e9 * (1.0 + abs(z)):
                raise ContourError("integrand does not decay along ray %.4f"
                                   % angle)
        else:
            raise ContourError("truncation search failed")
    return float(t_max)


# ----------------------------------------------------------------------------
# contour planning (radius and ray angles as functions of z)
# ----------------------------------------------------------------------------

def _clamp_to_cone(angle: float, lo: float, hi: float) -> float:
    center = 0.5 * (lo + hi)
    angle = angle + 2 * math.pi * round((center - angle) / (2 * math.pi))
    return min(max(angle, lo), hi)


def _saddle_points(kd: KernelData, z: complex):
    """Roots of d/dt [R0(t) - z t] = 0 (degree m polynomial)."""
    coeffs = kd.r0.derivative().complex_coeffs()
    coeffs[0] -= z
    arr = np.array(coeffs, dtype=complex)
    if len(arr) <= 1:
        return np.zeros(0, dtype=complex)
    from .ratfun import _aberth
    try:
        return _aberth(arr)
    except Exception:
        return np.zeros(0, dtype=complex)


def _plan_scores(kd: KernelData, cands, z: complex) -> np.ndarray:
    """Max of Re[log phi - z t] over a coarse sample of each candidate path,
    inf where a sample falls inside a pole clearance.

    Each ray is sampled out to an analytic horizon beyond which the leading
    decay term certainly dominates, so no truncation solve is needed here.
    The candidates in ``cands`` are scored with one kernel evaluation.
    """
    radius = np.array([c.radius for c in cands])
    alpha = np.array([c.alpha for c in cands])
    beta = np.array([c.beta for c in cands])
    n = PLAN_SAMPLES
    k = kd.m + 1
    # ray horizons, incoming rays first, then outgoing
    angles = np.concatenate([alpha, beta])
    ray_radius = np.concatenate([radius, radius])
    dec = np.maximum(-np.cos(k * angles), math.sin(k * ANGLE_MARGIN) * 0.5)
    r_star = (k * abs(z) / dec) ** (1.0 / kd.m) if abs(z) > 0 else 1.0
    lower = sum(abs(c) for c in kd._r0c[:-1])
    hi = 3.0 * r_star + ray_radius + lower + 5.0
    r = np.geomspace(np.maximum(ray_radius, 1e-3), hi, n, axis=1)
    rays = r * np.exp(1j * angles)[:, None]
    arcs = radius[:, None] * np.exp(1j * np.linspace(alpha, beta, n, axis=1))
    t = np.concatenate([rays[:len(cands)], rays[len(cands):], arcs], axis=1)
    # a zero-radius or zero-width arc is a point, not part of the path
    sampled = np.ones(t.shape, dtype=bool)
    sampled[(radius <= 0) | (np.abs(beta - alpha) <= 1e-15), 2 * n:] = False
    g = kd.log_magnitude_bound(t.ravel()).reshape(t.shape) - (z * t).real
    scores = np.where(sampled, g, -np.inf).max(axis=1)
    for loc, clear in zip(kd._locs, kd.clearance()):
        scores[((np.abs(t - loc) < clear) & sampled).any(axis=1)] = np.inf
    return scores


def plan_contour(kd: KernelData, nu: int, z: complex) -> Contour:
    """Choose an admissible contour adapted to z.

    The value of the integral is contour-independent within the decay cones
    (and outside the singular radius), so the radius and ray angles are
    tuned to minimize the sampled path maximum of Re[log phi - z t]; this
    controls cancellation at large |z|.  For many-valued kernels the ray
    angles stay canonical (deterministic branch choice) and only the radius
    adapts.  The returned t_max is radius + 1: the evaluator solves the
    truncation length for its own tolerance.
    """
    m = kd.m
    center_in = theta_k(kd, 2 * nu - 1)
    center_out = theta_k(kd, 2 * nu + 1)
    r_min = 0.0 if not kd.poles else kd.singular_radius + 1.0
    canonical = Contour(radius=r_min, alpha=center_in, beta=center_out,
                        t_max=r_min + 1.0)
    az = abs(z)

    radii = {r_min}
    if az > 1e-9:
        base = az ** (1.0 / m)
        for f in (0.7, 1.0, 1.4):
            radii.add(max(r_min, f * base))

    saddles = _saddle_points(kd, z) if az > 1e-9 else np.zeros(0, dtype=complex)
    for s in saddles:
        radii.add(max(r_min, abs(s)))

    if kd.is_single_valued or not kd.poles:
        lo_in, hi_in = decay_cone(m, center_in)
        lo_out, hi_out = decay_cone(m, center_out)
        alphas = {center_in, lo_in, hi_in,
                  center_in - 0.25 * (hi_in - lo_in),
                  center_in + 0.25 * (hi_in - lo_in)}
        betas = {center_out, lo_out, hi_out,
                 center_out - 0.25 * (hi_out - lo_out),
                 center_out + 0.25 * (hi_out - lo_out)}
        for s in saddles:
            ang = math.atan2(s.imag, s.real)
            alphas.add(_clamp_to_cone(ang, lo_in, hi_in))
            betas.add(_clamp_to_cone(ang, lo_out, hi_out))
    else:
        alphas, betas = {center_in}, {center_out}

    cands = [canonical]
    for r in sorted(radii):
        for a in sorted(alphas):
            for b in sorted(betas):
                try:
                    cand = Contour(radius=r, alpha=a, beta=b, t_max=r + 1.0)
                    validate_contour(kd, cand)
                except ContourError:
                    continue
                cands.append(cand)
    scores = np.concatenate([_plan_scores(kd, cands[i:i + PLAN_BATCH], z)
                             for i in range(0, len(cands), PLAN_BATCH)])
    best, best_score = canonical, scores[0]
    for cand, sc in zip(cands[1:], scores[1:]):
        if sc < best_score - PLAN_PREFERENCE:
            best, best_score = cand, sc
    return best


# ----------------------------------------------------------------------------
# results in mantissa * exp(log_scale) form
# ----------------------------------------------------------------------------

@dataclass
class QuadResult:
    """Integral value as mantissa * exp(log_scale)."""

    mantissa: complex
    log_scale: float
    est_error: float
    nodes_used: int = 0
    flags: tuple = ()

    @property
    def value(self) -> complex:
        if self.mantissa == 0:
            return 0j
        scale = self.log_scale
        if scale > 700.0:
            return complex(math.inf, math.inf)
        return self.mantissa * math.exp(scale)

    def log_abs(self) -> float:
        if self.mantissa == 0:
            return -math.inf
        return self.log_scale + math.log(abs(self.mantissa))

    def rel_error(self) -> float:
        if self.mantissa == 0:
            return math.inf if self.est_error else 0.0
        return self.est_error / abs(self.mantissa)


def qr_zero() -> QuadResult:
    return QuadResult(0j, 0.0, 0.0, 0)


def log_rescale(log_scales):
    """The common log scale of values held at ``log_scales`` (their maximum)
    and the factor exp(s - common) that brings each one to it.

    Every sum of log-scaled values goes through here: the largest term keeps
    factor 1, so nothing overflows and the smaller terms underflow gracefully.
    """
    scale = max(log_scales)
    return scale, [math.exp(s - scale) for s in log_scales]


def combine_linear(terms) -> QuadResult:
    """Linear combination sum(coeff * qr) at a common log scale."""
    terms = [(c, q) for c, q in terms if c != 0 and not
             (q.mantissa == 0 and q.est_error == 0)]
    if not terms:
        return qr_zero()
    scale, factors = log_rescale([q.log_scale + math.log(max(abs(c), 1e-300))
                                  for c, q in terms])
    mant = 0j
    err = 0.0
    nodes = 0
    flags = ()
    for (c, q), f in zip(terms, factors):
        phase = c / abs(c)
        mant += phase * q.mantissa * f
        err += q.est_error * f
        nodes += q.nodes_used
        flags += q.flags
    return QuadResult(mant, scale, err, nodes, tuple(sorted(set(flags))))


# ----------------------------------------------------------------------------
# branch-aware kernel evaluation along a contour
# ----------------------------------------------------------------------------

class _PathKernel:
    """Random-access log phi along a contour, branch-consistent.

    Single-valued kernels use principal logs directly.  Many-valued kernels
    build per-segment anchor tables of continued arguments (initialized with
    principal arguments at the far end of the incoming ray) and snap each
    requested point's principal argument to the interpolated sheet.
    """

    def __init__(self, kd: KernelData, contour: Contour):
        self.kd = kd
        self.contour = contour
        self.segments = contour.segments()
        self.tables = None
        if kd.poles and not kd.is_single_valued:
            self._build_tables()

    def _build_tables(self):
        kd = self.kd
        tables = []
        state = None
        for mp, _dm, _label in self.segments:
            n = 257
            for _ in range(8):
                s = np.linspace(0.0, 1.0, n)
                pts = mp(s)
                st = state if state is not None else \
                    BranchState.principal(kd, pts[0])
                args = continue_args(kd, pts, st)
                steps = np.abs(np.diff(args, axis=1))
                if steps.size == 0 or steps.max() < math.pi / 8:
                    break
                n = 2 * n - 1
            tables.append((s, args))
            state = BranchState(pts[-1], args[:, -1])
        self.tables = tables

    def log_phi(self, seg_idx: int, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        kd = self.kd
        if kd.poles:
            d = np.abs(t[:, None] - kd._locs[None, :])
            if (d < kd.clearance()[None, :]).any():
                raise ContourError("quadrature node within pole clearance")
        if self.tables is None:
            return kd.log_phi_principal(t)
        s_grid, args_grid = self.tables[seg_idx]
        raw = np.angle(t[None, :] - kd._locs[:, None])
        interp = np.vstack([np.interp(s, s_grid, args_grid[k])
                            for k in range(args_grid.shape[0])])
        snapped = raw + 2 * math.pi * np.round((interp - raw) / (2 * math.pi))
        return kd.log_phi_with_args(t, snapped)


# ----------------------------------------------------------------------------
# adaptive Gauss quadrature with log-scaled summation
# ----------------------------------------------------------------------------

_GL_HI = leggauss(20)
_GL_LO = leggauss(10)
# G20 then G10 nodes and weights of one interval, side by side
_GL_NODES = np.concatenate([_GL_HI[0], _GL_LO[0]])
_GL_WEIGHTS = np.concatenate([_GL_HI[1], _GL_LO[1]])
_N_HI = len(_GL_HI[0])


class _Interval:
    __slots__ = ("seg", "u", "v", "scale", "hi", "lo", "nodes")

    def __init__(self, seg, u, v, nodes=0):
        self.seg = seg
        self.u = u
        self.v = v
        self.scale = -math.inf
        self.hi = None
        self.lo = None
        self.nodes = nodes


def _eval_intervals(pk: _PathKernel, z: complex, js, ivs):
    """G20 and G10 sums of every interval in ``ivs``, each half scaled by its
    own path maximum and both brought to the larger of the two; one kernel
    evaluation per contour segment and per QUAD_BATCH intervals."""
    for seg in sorted({iv.seg for iv in ivs}):
        on_seg = [iv for iv in ivs if iv.seg == seg]
        for i in range(0, len(on_seg), QUAD_BATCH):
            _eval_batch(pk, z, js, seg, on_seg[i:i + QUAD_BATCH])


def _eval_batch(pk: _PathKernel, z: complex, js, seg: int, group):
    """The intervals ``group``, all on segment ``seg``, with one kernel
    evaluation."""
    mp, dm, _label = pk.segments[seg]
    u = np.array([iv.u for iv in group])
    v = np.array([iv.v for iv in group])
    half = 0.5 * (v - u)
    mid = 0.5 * (v + u)
    s = mid[:, None] + half[:, None] * _GL_NODES
    t = mp(s)
    L = pk.log_phi(seg, s.ravel(), t.ravel()).reshape(t.shape) - z * t
    pref = _GL_WEIGHTS * half[:, None] * dm(s)
    halves = []
    for cols in (slice(None, _N_HI), slice(_N_HI, None)):
        scale = L[:, cols].real.max(axis=1)
        core = np.exp(L[:, cols] - scale[:, None]) * pref[:, cols]
        sums = np.stack([np.sum(core * (-t[:, cols]) ** j, axis=1)
                         for j in js], axis=1)
        halves.append((scale, sums))
    (s_hi, v_hi), (s_lo, v_lo) = halves
    for k, iv in enumerate(group):
        iv.scale, (f_hi, f_lo) = log_rescale([float(s_hi[k]), float(s_lo[k])])
        iv.hi = v_hi[k] * f_hi
        iv.lo = v_lo[k] * f_lo
        iv.nodes += len(_GL_NODES)


def laplace_eval_multi(kd: KernelData, contour: Contour, z: complex, js,
                       tol: float = DEFAULT_TOL,
                       node_budget: int = NODE_BUDGET):
    """Evaluate (1/2 pi i) * integral of phi(t) (-t)^j e^(-z t) dt for every
    j in ``js`` over a shared contour and node set.

    Returns a list of QuadResult in the order of ``js``.  All results share
    one log scale, so linear combinations of them (ODE residuals,
    Wronskians) can be formed without leaving the scaled representation.
    """
    if not tol >= TOL_MIN:
        raise ValueError("tol must be at least %g" % TOL_MIN)
    js = list(js)
    validate_contour(kd, contour)
    t_needed = truncation_bound(kd, contour, z, min(tol, 1e-8))
    if t_needed > contour.t_max:
        contour = replace(contour, t_max=t_needed)
    pk = _PathKernel(kd, contour)

    intervals = []
    for seg_idx, (mp, _dm, label) in enumerate(pk.segments):
        if label == "arc":
            span = abs(contour.beta - contour.alpha) * max(contour.radius, 1.0)
            count = max(6, min(48, int(span * (1 + abs(z)) / 12) + 6))
            cuts = np.linspace(0.0, 1.0, count + 1)
        else:
            length = contour.t_max - contour.radius
            count = max(10, min(80, int(abs(z) * length / (12 * math.pi)) + 10))
            cuts = (np.linspace(0.0, 1.0, count + 1)) ** 1.6
            if label == "ray_in":
                cuts = 1.0 - cuts[::-1]
        for u, v in zip(cuts[:-1], cuts[1:]):
            intervals.append(_Interval(seg_idx, float(u), float(v)))

    _eval_intervals(pk, z, js, intervals)

    flags = []
    for rounds in range(401):
        scale, factors = log_rescale([iv.scale for iv in intervals])
        factors = np.array(factors)[:, None]
        hi = np.array([iv.hi for iv in intervals])
        lo = np.array([iv.lo for iv in intervals])
        gaps = np.abs(hi - lo) * factors    # |G20 - G10| per interval and j
        # cumulative sums add the intervals in order, one at a time
        tot = np.cumsum(hi * factors, axis=0)[-1]
        err = np.cumsum(gaps, axis=0)[-1]
        mags = np.maximum(np.abs(tot), 1e-300)
        rel = float(np.max(err / mags))
        nodes = sum(iv.nodes for iv in intervals)
        # the totals after the 400th refinement round are returned unflagged
        if rel <= tol or rounds == 400:
            break
        if nodes >= node_budget:
            flags.append("node_budget_exhausted")
            break
        scores = (gaps / mags).max(axis=1).tolist()
        cutoff = max(max(scores) * 0.1, tol / max(len(intervals), 1))
        new_intervals = []
        split = []
        for iv, sc in zip(intervals, scores):
            if sc >= cutoff and (iv.v - iv.u) > 1e-13:
                mid = 0.5 * (iv.u + iv.v)
                a = _Interval(iv.seg, iv.u, mid, nodes=iv.nodes // 2)
                b = _Interval(iv.seg, mid, iv.v)
                new_intervals += [a, b]
                split += [a, b]
            else:
                new_intervals.append(iv)
        intervals = new_intervals
        _eval_intervals(pk, z, js, split)
        if not split:
            flags.append("refinement_stalled")
            break

    out = []
    two_pi = 2.0 * math.pi
    for k, _j in enumerate(js):
        out.append(QuadResult(mantissa=tot[k] / (2j * math.pi),
                              log_scale=scale,
                              est_error=float(err[k]) / two_pi,
                              nodes_used=nodes,
                              flags=tuple(flags)))
    return out


def laplace_eval(kd: KernelData, contour: Contour, z: complex, j: int = 0,
                 tol: float = DEFAULT_TOL,
                 node_budget: int = NODE_BUDGET) -> QuadResult:
    """Single-derivative variant of :func:`laplace_eval_multi`."""
    return laplace_eval_multi(kd, contour, z, [j], tol, node_budget)[0]


# ----------------------------------------------------------------------------
# circle quadrature (residues, symmetry sums)
# ----------------------------------------------------------------------------

def circle_eval_multi(kd: KernelData, center: complex, radius: float,
                      z: complex, js, tol: float = DEFAULT_TOL,
                      max_doublings: int = 9):
    """(1/2 pi i) * integral over the positively oriented circle of
    phi(t) (-t)^j e^(-z t) dt, by trapezoid doubling in log form.

    The integrand must be single-valued around the circle (checked via the
    continued arguments); trapezoid sums then converge geometrically.
    """
    js = list(js)
    n = 256
    prev = None
    state0 = None
    for round_idx in range(max_doublings + 1):
        th = 2.0 * math.pi * np.arange(n) / n
        t = center + radius * np.exp(1j * th)
        closed = np.concatenate([t, t[:1]])
        if kd.poles and not kd.is_single_valued:
            st = BranchState.principal(kd, closed[0])
            args = continue_args(kd, closed, st)
            total_winding = args[:, -1] - args[:, 0]
            phase_jump = complex(np.sum(kd._exps * total_winding) / (2 * math.pi)) \
                if len(kd.poles) else 0.0
            jump_int = np.round(phase_jump.real)
            if abs(phase_jump - jump_int) > 1e-8:
                raise NumericError(
                    "kernel is not single-valued around the circle "
                    "(argument mismatch %.3e)" % abs(phase_jump - jump_int))
            L = kd.log_phi_with_args(closed[:-1], args[:, :-1]) - z * t
        else:
            L = kd.log_phi_principal(t) - z * t
        scale = float(L.real.max())
        core = np.exp(L - scale) * 1j * radius * np.exp(1j * th) / n
        sums = np.array([np.sum(core * (-t) ** j) for j in js])
        cur = (scale, sums)
        if prev is not None:
            pscale, psums = prev
            m, (f_cur, f_prev) = log_rescale([scale, pscale])
            diff = np.abs(sums * f_cur - psums * f_prev) * math.exp(m - scale)
            mags = np.maximum(np.abs(sums), 1e-300)
            if float(np.max(diff / mags)) <= tol:
                # (1/2 pi i) * contour integral = (sum of core terms) / i
                return [QuadResult(mantissa=sums[k] / 1j,
                                   log_scale=scale,
                                   est_error=float(diff[k]),
                                   nodes_used=n)
                        for k in range(len(js))]
        prev = cur
        n *= 2
    scale, sums = prev
    return [QuadResult(mantissa=sums[k] / 1j, log_scale=scale,
                       est_error=float(np.max(np.abs(sums))), nodes_used=n // 2,
                       flags=("no_convergence",))
            for k in range(len(js))]
