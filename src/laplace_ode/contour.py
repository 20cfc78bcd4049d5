"""Contours and overflow-safe adaptive quadrature of Laplace integrals.

All integrand magnitudes are handled in log form: an evaluation returns a
mantissa together with a log scale, and partial sums are re-centered on the
running maximum exponent.  Naive summation would overflow once |z| grows,
and silent cancellation against the path maximum is the main accuracy risk,
so the evaluator integrates along the steepest-descent path of R0(t) - z t
through its saddles, where the path maximum is the saddle value.  Poles the
path sweeps across, relative to the canonical contour, are listed with their
winding numbers so the caller can add the residues back.

Every integral is taken on a polygon: the descent path is one, a
ray-arc-ray contour becomes one, once its rays are truncated, with chords
for its arc, and a residue or symmetry circle becomes a closed one, with
chords for the whole circle.  One parametrization, one initial layout (an
interval per edge), one adaptive quadrature and one branch continuation,
from principal arguments at the path's first point, serve all three.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContourError, NumericError
from .kernel import (KernelData, check_clearance, continue_args,
                     polygon_distances)
from .poly import horner
from .ratfun import _aberth
from .series import integer_value

DEFAULT_TOL = 1e-10
# Tolerances an evaluation accepts.  Below TOL_MIN no double-precision sum
# can meet the tolerance, and refinement would split intervals until the
# node budget, however large, runs out.
TOL_MIN, TOL_MAX = 1e-14, 1e-4
NODE_BUDGET = 20000
# An interval whose |K21 - G10| is within ROUNDOFF times its K21 sum of
# absolute terms is at the rounding floor, where halving cannot shrink the
# gap: short intervals of e^t, e^(it), 1/(1 + t^2) and cos t + i sin 3t,
# which carry only their own rounding, give at most 3.3 eps.
ROUNDOFF = 4.0 * np.finfo(float).eps
# Descent-path geometry.  The saddles are traced for z turned by Z_TILT rad,
# which keeps the traced curves off Stokes lines (where a descent curve runs
# into the next saddle); the integrand keeps the true z.
Z_TILT = 1e-3
SADDLE_GAP = 0.3        # first step over the distance to the next saddle
TRACE_STEPS = 200
# how far Re f falls below the saddle value before a curve may end
TRACE_DROP = -math.log(TOL_MIN) + 12.0
POLE_DISK = 0.1         # detour radius about t_nu, times (1 + |t_nu|)
DISK_GROWTH = 1.1       # radius factor until |R_nu| <= 1 on the disk edge
ARC_STEP = math.radians(10.0)    # largest angle one chord of an arc spans


# ----------------------------------------------------------------------------
# contour geometry
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Contour:
    """Path C: ray in at angle ``alpha`` from +infinity to radius R, circular
    arc from R*e^(i alpha) through the midpoint angle to R*e^(i beta), ray
    out at angle ``beta`` to +infinity.  Each evaluation truncates the rays
    for its own z and tolerance (``truncation_bound``)."""

    radius: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.radius < 0:
            raise ContourError("contour radius must be nonnegative")


@dataclass(frozen=True, eq=False)
class Polygon:
    """The path every integral is taken on: the polygon through
    ``vertices``, edge k of n on the parameter interval [k/n, (k+1)/n].

    Many-valued kernels take principal arguments at ``lead_in[0]`` and
    continue them along ``lead_in``, which ends at ``vertices[0]``.
    ``windings`` holds (pole index, w) for every singular pole the canonical
    contour followed by the reversed polygon winds w != 0 times around: the
    canonical integral is the polygon integral plus sum of w * residue.
    ``cleared`` marks a polygon the planner has found clear of every pole;
    any other is measured when it is prepared (:class:`_PathKernel`).
    """

    vertices: np.ndarray
    lead_in: np.ndarray
    windings: tuple
    cleared: bool = False


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


def canonical_contour(kd: KernelData, nu: int) -> Contour:
    """Canonical contour for the nu-th distinguished solution.

    Runs counterclockwise: in along the ray at theta_(2 nu - 1), arc through
    theta_(2 nu), out along theta_(2 nu + 1).  This orientation makes the
    classical second-order fixture produce the Airy function with its
    conventional sign.
    """
    if not 0 <= nu <= kd.m:
        raise ContourError("nu must lie in [0, %d]" % kd.m)
    radius = 0.0 if not kd.poles else kd.singular_radius + 1.0
    return Contour(radius=radius, alpha=theta_k(kd, 2 * nu - 1),
                   beta=theta_k(kd, 2 * nu + 1))


def _arc(radius: float, angle: float, turn: float, center: complex = 0j,
         chords: int = 0):
    """Points of the circle from ``angle`` through ``turn`` rad, in
    ``chords`` chords, by default one per ARC_STEP at most."""
    n = chords or max(1, math.ceil(abs(turn) / ARC_STEP))
    steps = np.linspace(0.0, 1.0, n + 1)
    return center + radius * np.exp(1j * (angle + turn * steps))


def _arc_chords(radius: float, turn: float, z: complex, inner: float) -> int:
    """Chords for an arc of ``turn`` rad and the given radius that encloses
    every pole within ``inner`` of its center: as many as |z| and the arc
    length ask for, and enough that a chord sags at most half the gap,
    R (1 - cos(delta / 2)) <= (R - inner) / 2.  Those poles then stay
    strictly inside the chords."""
    span = abs(turn) * max(radius, 1.0)
    chords = max(6, min(48, int(span * (1 + abs(z)) / 12) + 6))
    # the largest delta / 2 for which the sag rule holds
    half = math.acos((radius + inner) / (2 * radius))
    return max(chords, math.ceil(abs(turn) / (2 * half)))


def _polygon(kd: KernelData, contour: Contour, z: complex,
             T: float) -> Polygon:
    """The polygon a ray-arc-ray contour is integrated on, its rays
    truncated at T.

    Its vertices grade the rays towards the radius and cut the arc into
    equal chords (``_arc_chords``) that keep every pole strictly inside the
    polygon, which is therefore homotopic to the contour.
    """
    R, turn = contour.radius, contour.beta - contour.alpha
    count = max(10, min(80, int(abs(z) * (T - R) / (12 * math.pi)) + 10))
    radii = R + (T - R) * np.linspace(0.0, 1.0, count + 1) ** 1.6
    arc = np.zeros(1, dtype=complex)
    if R > 0:
        arc = _arc(R, contour.alpha, turn,
                   chords=_arc_chords(R, turn, z, kd.singular_radius))
    vertices = np.concatenate([np.exp(1j * contour.alpha) * radii[:0:-1], arc,
                               np.exp(1j * contour.beta) * radii[1:]])
    return Polygon(vertices=vertices, lead_in=vertices[:1], windings=())


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
# the descent path (steepest descent through the saddles of R0(t) - z t)
# ----------------------------------------------------------------------------

def _trace_saddles(kd: KernelData, zt: complex):
    """The saddles of f(t) = R0(t) - zt t, the m roots of R0'(t) = zt, and
    both steepest-descent curves of Re f out of each, traced one curve at a
    time by midpoint steps in scalar arithmetic.

    Returns the saddles and one (valley_a, valley_b, points) triple per
    saddle, the points running from the curve end in valley_a through the
    saddle to the end in valley_b (valley k lies around theta_(2k+1)), or
    None where the trace fails.
    """
    m, r0c = kd.m, kd._r0c
    d1 = [k * c for k, c in enumerate(r0c)][1:]
    d2 = [k * c for k, c in enumerate(d1)][1:]
    saddles = _aberth([d1[0] - zt, *d1[1:]])
    r_far = 1.5 * max(abs(s) for s in saddles) + 2.0 * kd.singular_radius + 2.0

    def height(t):
        return (horner(r0c, t) - zt * t).real

    def downhill(t):
        g = (horner(d1, t) - zt).conjugate()
        return -g / abs(g)

    def descend(t, rho, cap, level):
        """(valley, points) of the curve from t down, or None when it has
        not settled after TRACE_STEPS steps."""
        h, ft, points = rho, height(t), [t]
        for _ in range(TRACE_STEPS + 1):
            if (ft <= level and abs(t) > r_far
                    and math.cos((m + 1) * cmath.phase(t)) < -0.5):
                valley = round(((m + 1) * cmath.phase(t) / math.pi - 1.0) / 2.0)
                return valley % (m + 1), points
            h = min(1.5 * h, 0.5 * abs(t) + rho, cap)
            step = t + h * downhill(t + 0.5 * h * downhill(t))
            f_step = height(step)
            # a step that climbs has cut across a bend of the curve (near
            # another saddle): stay, and try a shorter one
            if f_step < ft:
                t, ft = step, f_step
                points.append(t)
            else:
                h *= 0.5
        return None

    pieces = []
    for i, s in enumerate(saddles):
        f2, ends = horner(d2, s), [None]
        if f2 != 0:
            gap = min((abs(s - o) for k, o in enumerate(saddles) if k != i),
                      default=math.inf)
            rho = min(math.sqrt(2.0 / abs(f2)), SADDLE_GAP * gap)
            tangent = cmath.exp(0.5j * (math.pi - cmath.phase(f2)))
            ends = [descend(s + u * rho, rho, 0.5 * gap, height(s) - TRACE_DROP)
                    for u in (tangent, -tangent)]
        if None in ends or ends[0][0] == ends[1][0]:
            pieces.append(None)
        else:
            (a, out), (b, back) = ends
            pieces.append((a, b, out[::-1] + [s] + back))
    return saddles, pieces


def _saddle_chain(pieces, start: int, goal: int, used=()):
    """(saddle index, points oriented start to goal) of each saddle on the
    chain linking valley ``start`` to valley ``goal``, or None."""
    if start == goal:
        return []
    for i, piece in enumerate(pieces):
        if piece is None or i in used:
            continue
        a, b, points = piece
        for x, y, p in ((a, b, points), (b, a, points[::-1])):
            if x != start:
                continue
            rest = _saddle_chain(pieces, y, goal, used + (i,))
            if rest is not None:
                return [(i, p)] + rest
    return None


def _detour(vertices, center: complex, radius: float):
    """The polygon with every stretch inside the disk replaced by the
    shorter boundary arc; None when it starts or ends inside."""
    if min(abs(vertices[0] - center), abs(vertices[-1] - center)) <= radius:
        return None
    out = [vertices[0]]
    entry = None
    for a, b in zip(vertices[:-1], vertices[1:]):
        d, f = b - a, a - center
        qa, qb = abs(d) ** 2, 2.0 * (f.conjugate() * d).real
        disc = qb * qb - 4.0 * qa * (abs(f) ** 2 - radius ** 2)
        if qa > 0 and disc > 0:
            enter, leave = ((-qb - math.sqrt(disc)) / (2 * qa),
                            (-qb + math.sqrt(disc)) / (2 * qa))
            if entry is None and 0 <= enter <= 1:
                entry = cmath.phase(a + enter * d - center)
            if entry is not None and leave <= 1:
                exit_ = a + leave * d - center
                turn = cmath.phase(exit_ * cmath.exp(-1j * entry))
                out.extend(_arc(radius, entry, turn, center).tolist())
                entry = None
        if entry is None:
            out.append(b)
    return out


def _pole_disks(kd: KernelData):
    """Center and radius of the disk the path detours around at each pole:
    0.1 (1 + |t_nu|), enlarged at an essential pole until
    sum_j |c_j| rho^-j <= 1 for the coefficients c_j of R_nu.  They do not
    depend on z, so they are worked out once per kernel."""
    if kd._disks is None:
        disks = []
        for loc, rc in zip(kd._locs.tolist(), kd._rc):
            rho = POLE_DISK * (1.0 + abs(loc))
            while sum(abs(c) * rho ** -j for j, c in enumerate(rc)) > 1.0:
                rho *= DISK_GROWTH
            disks.append((loc, rho))
        kd._disks = disks
    return kd._disks


def _descent_path(kd: KernelData, nu: int, z: complex):
    """The descent path for Lambda_nu at z, or None where the canonical
    contour has to serve: a chain saddle within singular_radius + 1 or
    inside a pole disk (the detour would replace the saddle), a failed
    trace, a node within a pole clearance, or a many-valued kernel whose
    path would sweep a pole."""
    saddles, pieces = _trace_saddles(kd, z * cmath.exp(1j * Z_TILT))
    chain = _saddle_chain(pieces, (nu - 1) % (kd.m + 1), nu)
    if chain is None:
        return None
    used = [saddles[i] for i, _p in chain]
    disks = _pole_disks(kd)
    if min(abs(s) for s in used) < kd.singular_radius + 1.0 or any(
            abs(s - center) < radius for center, radius in disks for s in used):
        return None
    vertices = np.array([v for _i, p in chain for v in p])
    if not kd.poles:
        return Polygon(vertices=vertices, lead_in=vertices[:1], windings=())
    # disk k is centred on kd._locs[k]: one pass serves until a detour
    dist = polygon_distances(vertices, kd._locs)
    for k, (center, radius) in enumerate(disks):
        # a polygon no edge of which comes within the disk stays as it is
        if dist[k] > radius:
            continue
        detoured = _detour(vertices.tolist(), center, radius)
        if detoured is None:
            return None
        vertices = np.array(detoured)
        dist = polygon_distances(vertices, kd._locs)
    if (dist < kd.clearance()).any():
        return None
    # The canonical contour, truncated at radius T beyond every pole, is
    # homotopic to the radius-T arc from alpha to beta.  Closing the
    # reversed polygon with one radius-T arc therefore gives the loop
    # "canonical contour, then reversed polygon", and its winding number
    # about each pole is the sum of its angle increments.
    alpha, beta = theta_k(kd, 2 * nu - 1), theta_k(kd, 2 * nu + 1)
    far = float(np.abs(vertices).max())
    turn_in = cmath.phase(vertices[0] * cmath.exp(-1j * alpha))
    turn_out = cmath.phase(vertices[-1] * cmath.exp(-1j * beta))
    sweep = beta - alpha + turn_out - turn_in
    loop = np.concatenate([vertices[::-1], _arc(far, alpha + turn_in, sweep),
                           vertices[-1:]])
    d = loop - kd._locs[:, None]
    wind = np.rint(np.angle(d[:, 1:] / d[:, :-1]).sum(axis=1) / (2 * math.pi))
    if wind.any() and not kd.is_single_valued:
        return None
    swept = [(k, int(w)) for k, (p, w) in enumerate(zip(kd.poles, wind))
             if w and p.is_singular]
    # only a many-valued kernel reads the lead-in, which runs beyond twice
    # every pole's modulus: the distance pass above clears the whole path
    lead_in = vertices[:1] if kd.is_single_valued else \
        np.append(_arc(far, alpha, turn_in), vertices[0])
    # each traced edge starts as one interval of the quadrature, and only
    # the edges whose K21 and G10 disagree are split
    return Polygon(vertices=vertices, lead_in=lead_in, windings=tuple(swept),
                   cleared=True)


def plan_contour(kd: KernelData, nu: int, z: complex):
    """The path Lambda_nu is evaluated on at z.

    The steepest-descent polygon through the saddles keeps the path maximum
    of the integrand at the saddle value, so the quadrature sees no
    cancellation.  It is a :class:`Polygon` through the traced points, one
    quadrature interval per edge to start with.  Where no descent path
    applies (see ``_descent_path``) this is the canonical contour: the
    evaluator solves the truncation length for its own tolerance and
    integrates the contour on its polygon.
    """
    return _descent_path(kd, nu, complex(z)) or canonical_contour(kd, nu)


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
# branch-aware kernel evaluation along a polygon
# ----------------------------------------------------------------------------

class _PathKernel:
    """A prepared path: a polygon, its pole clearance checked (unless
    ``Polygon.cleared``), and random-access log phi along it.

    Single-valued kernels use principal logs directly.  Many-valued kernels
    hold the arguments continued along the path's lead-in and on to every
    vertex.  A node on edge k takes the arguments at vertex k plus the angle
    the edge subtends from there to the node, which is exact: a chord that
    misses t_nu turns arg(t - t_nu) by less than pi.  The first pass, one
    interval per edge, and log phi at the vertices do not depend on z: each
    is worked out on first use and kept read-only, so a path integrated at
    many z evaluates kernel points only where it refines.
    """

    def __init__(self, kd: KernelData, path: Polygon):
        v = path.vertices
        self.kd, self.path = kd, path
        self.starts, self.steps = v[:-1], np.diff(v)
        self.anchors = None
        # every node lies on an edge, and the branch runs along the lead-in
        if kd.poles and not kd.is_single_valued:
            lead = path.lead_in
            args = continue_args(kd, np.concatenate([lead, v[1:]]),
                                 path.cleared)
            self.anchors = args[:, len(lead) - 1:-1]
        elif kd.poles and not path.cleared:
            check_clearance(kd, v)

    def log_phi(self, k: np.ndarray, t: np.ndarray) -> np.ndarray:
        """log phi at the nodes t, node i on edge k[i]."""
        if self.anchors is None:
            return self.kd.log_phi_principal(t)
        locs = self.kd._locs[:, None]
        turn = np.angle((t - locs) / (self.starts[k] - locs))
        return self.kd.log_phi_on_sheet(t, self.anchors[:, k] + turn)

    @cached_property
    def first_pass(self):
        """The first pass, one interval [u, v] per edge: u, v and
        ``_interval_nodes``."""
        cuts = np.linspace(0.0, 1.0, len(self.steps) + 1)
        u, v = cuts[:-1], cuts[1:]
        data = (u, v, *_interval_nodes(self, u, v))
        for a in data:
            a.flags.writeable = False
        return data

    @cached_property
    def vertex_log_phi(self) -> np.ndarray:
        """log phi at every vertex, on the path's own branch; the last
        vertex is taken as the end of the last edge."""
        v = self.path.vertices
        lv = self.log_phi(np.minimum(np.arange(len(v)), len(v) - 2), v)
        lv.flags.writeable = False
        return lv


# ----------------------------------------------------------------------------
# adaptive Gauss–Kronrod quadrature with log-scaled summation
# ----------------------------------------------------------------------------

# QUADPACK's qk21 (Piessens et al., 1983) on [0, 1]: node, K21, G10 weight
_QK21 = np.array([
    (0.99565716302580808074, 0.011694638867371874278, 0.0),
    (0.97390652851717172008, 0.032558162307964727479, 0.066671344308688137594),
    (0.93015749135570822600, 0.054755896574351996031, 0.0),
    (0.86506336668898451073, 0.075039674810919952767, 0.14945134915058059315),
    (0.78081772658641689706, 0.093125454583697605535, 0.0),
    (0.67940956829902440623, 0.10938715880229764190, 0.21908636251598204400),
    (0.56275713466860468334, 0.12349197626206585108, 0.0),
    (0.43339539412924719080, 0.13470921731147332593, 0.26926671930999635509),
    (0.29439286270146019813, 0.14277593857706008080, 0.0),
    (0.14887433898163121088, 0.14773910490133849137, 0.29552422471475287017),
    (0.0, 0.14944555400291690566, 0.0)])
# one interval's K21 nodes on [-1, 1], in order, with both rules' weights
_GL_NODES, _GL_WEIGHTS, _G10_WEIGHTS = np.concatenate(
    [_QK21[:-1] * (-1, 1, 1), _QK21[::-1]]).T
_G10 = slice(1, None, 2)    # every other node: the G10 nodes


def _interval_nodes(pk: _PathKernel, u, v):
    """What the sums over the intervals [u, v] of the path parameter need
    that does not depend on z: the K21 nodes t of each interval, log phi
    there in one kernel evaluation, and the K21 and G10 weights times dt/dx.

    An interval never straddles a vertex, so its midpoint names its edge k.
    The nodes are placed in the edge's own coordinate, n s - k in [0, 1]:
    placed from s itself, they would carry its rounding, which grows with
    k, into the sums."""
    n = len(pk.steps)
    k = (0.5 * (u + v) * n).astype(int)
    a, b = u * n - k, v * n - k
    half = 0.5 * (b - a)
    x = 0.5 * (b + a)[:, None] + half[:, None] * _GL_NODES
    t = pk.starts[k, None] + x * pk.steps[k, None]
    edges = np.repeat(k, len(_GL_NODES))
    log_phi = pk.log_phi(edges, t.ravel()).reshape(t.shape)
    dx = half[:, None] * pk.steps[k, None]
    return t, log_phi, _GL_WEIGHTS * dx, _G10_WEIGHTS[_G10] * dx


def _interval_sums(z: complex, js, t, log_phi, w_hi, w_lo):
    """Log scale, K21 and G10 sums, and the K21 sum of absolute terms
    sum |w f (-t)^j| of every interval at z, per j, at the interval's path
    maximum, from ``_interval_nodes``'s data, which is left as it is."""
    L = log_phi - z * t
    scale = L.real.max(axis=1)
    e = np.exp(L - scale[:, None])
    e_hi, e_lo = e * w_hi, e[:, _G10] * w_lo
    hi, lo, mass = (np.empty((len(t), len(js)), dtype)
                    for dtype in (complex, complex, float))
    for c, j in enumerate(js):
        power = (-t) ** j
        terms = e_hi * power
        hi[:, c] = terms.sum(axis=1)
        lo[:, c] = (e_lo * power[:, _G10]).sum(axis=1)
        mass[:, c] = np.abs(terms).sum(axis=1)
    return scale, hi, lo, mass


def prepare_path(kd: KernelData, contour, z: complex,
                 tol: float) -> _PathKernel:
    """The prepared path ``contour`` is integrated on at z: itself if
    prepared, else its polygon, a ray-arc-ray :class:`Contour`'s with the
    rays truncated for the tolerance (``_polygon``)."""
    if isinstance(contour, _PathKernel):
        return contour
    if isinstance(contour, Contour):
        validate_contour(kd, contour)
        contour = _polygon(kd, contour, z,
                           truncation_bound(kd, contour, z, min(tol, 1e-8)))
    return _PathKernel(kd, contour)


def laplace_eval_multi(kd: KernelData, contour, z: complex, js,
                       tol: float = DEFAULT_TOL,
                       node_budget: int = NODE_BUDGET):
    """Evaluate (1/2 pi i) * integral of phi(t) (-t)^j e^(-z t) dt for every
    j in ``js`` over a shared path and node set.

    ``contour`` is a :class:`Polygon`, integrated as it stands (its swept
    poles are the caller's), a ray-arc-ray :class:`Contour`, integrated on
    its polygon for z and the tolerance, or a path prepared for either
    (``prepare_path``), which keeps its z-independent work for the next
    call.  Every edge starts as one interval.  Each round halves the
    intervals whose |K21 - G10| scores highest, except those whose gap is
    within ROUNDOFF of their sum of absolute terms: splitting those only
    splits rounding noise.  Refinement ends at the tolerance; flagged
    ``refinement_stalled`` once every j that misses it has its whole error
    estimate at that rounding floor, or when nothing is left to split; and
    flagged ``node_budget_exhausted`` when the budget cannot pay for another
    split.  ``nodes_used`` counts the quadrature nodes of the result, and
    never exceeds ``node_budget``: a path whose first pass, one interval
    per edge, costs more returns a zero value with an infinite error,
    flagged.  It equals the kernel points evaluated on a fresh path.

    Returns a list of QuadResult in the order of ``js``.  All results share
    one log scale, so linear combinations of them (ODE residuals,
    Wronskians) can be formed without leaving the scaled representation.
    """
    if not tol >= TOL_MIN:
        raise ValueError("tol must be at least %g" % TOL_MIN)
    js = list(js)
    pk = prepare_path(kd, contour, z, tol)
    width = len(_GL_NODES)      # kernel points per interval
    total_nodes = width * len(pk.steps)
    if total_nodes > node_budget:
        return [QuadResult(0j, 0.0, math.inf, 0, ("node_budget_exhausted",))
                for _j in js]

    # the intervals, in path order: ends, log scale, and the K21 and G10
    # sums and the K21 sum of absolute terms per j at that scale
    u, v, *nodes = pk.first_pass
    scale, hi, lo, mass = _interval_sums(z, js, *nodes)

    # every round splits an interval, so the node budget ends the loop
    flags = []
    while True:
        top, factors = log_rescale(scale.tolist())
        factors = np.array(factors)[:, None]
        gaps = np.abs(hi - lo) * factors    # |K21 - G10| per interval and j
        # cumulative sums add the intervals in order, one at a time
        tot = np.cumsum(hi * factors, axis=0)[-1]
        err = np.cumsum(gaps, axis=0)[-1]
        mags = np.maximum(np.abs(tot), 1e-300)
        rel = err / mags
        if rel.max() <= tol:
            break
        floor = ROUNDOFF * mass * factors
        miss = rel > tol
        if (err[miss] <= floor.sum(axis=0)[miss]).all():
            flags.append("refinement_stalled")
            break
        room = (node_budget - total_nodes) // (2 * width)
        if room < 1:
            flags.append("node_budget_exhausted")
            break
        scores = (np.where(gaps > floor, gaps, 0.0) / mags).max(axis=1)
        cutoff = max(float(scores.max()) * 0.1, tol / max(len(u), 1))
        split = (scores >= cutoff) & ((v - u) > 1e-13)
        if not split.any():
            flags.append("refinement_stalled")
            break
        # the budget pays for the highest-scoring intervals first
        if split.sum() > room:
            order = np.argsort(np.where(split, -scores, np.inf), kind="stable")
            split[order[room:]] = False
        # each split interval becomes its halves a, b in place
        parts = 1 + split
        a = (np.cumsum(parts) - parts)[split]
        b = a + 1
        mid = 0.5 * (u[split] + v[split])
        keep = np.repeat(np.arange(len(u)), parts)
        u, v, scale, hi, lo, mass = (x[keep] for x in (u, v, scale, hi, lo,
                                                        mass))
        v[a] = mid
        u[b] = mid
        new = np.concatenate([a, b])
        total_nodes += width * len(new)
        scale[new], hi[new], lo[new], mass[new] = _interval_sums(
            z, js, *_interval_nodes(pk, u[new], v[new]))

    return [QuadResult(mantissa=tot[k] / (2j * math.pi), log_scale=top,
                       est_error=float(err[k]) / (2.0 * math.pi),
                       nodes_used=total_nodes, flags=tuple(flags))
            for k in range(len(js))]


def laplace_eval(kd: KernelData, contour: Contour, z: complex, j: int = 0,
                 tol: float = DEFAULT_TOL,
                 node_budget: int = NODE_BUDGET) -> QuadResult:
    """Single-derivative variant of :func:`laplace_eval_multi`."""
    return laplace_eval_multi(kd, contour, z, [j], tol, node_budget)[0]


# ----------------------------------------------------------------------------
# closed circles (residues, symmetry sums)
# ----------------------------------------------------------------------------

def circle_eval_multi(kd: KernelData, center: complex, radius: float,
                      z: complex, js, tol: float = DEFAULT_TOL):
    """(1/2 pi i) * integral over the positively oriented circle of
    phi(t) (-t)^j e^(-z t) dt, taken by :func:`laplace_eval_multi` on the
    closed inscribed polygon, whose chords keep every enclosed pole inside.

    The branch starts from principal arguments at the polygon's first
    vertex, and the integrand must be single-valued around it: the
    exponents of the enclosed poles must sum to an integer.
    """
    dists = [abs(p.location_complex - center) for p in kd.poles]
    enclosed = [k for k, d in enumerate(dists) if d < radius]
    total = sum(kd.poles[k].exponent for k in enclosed)
    if integer_value(total) is None:
        raise NumericError("kernel is not single-valued around the circle "
                           "(enclosed exponents sum to %s)" % complex(total))
    turn = 2.0 * math.pi
    inner = max((dists[k] for k in enclosed), default=0.0)
    vertices = _arc(radius, 0.0, turn, center,
                    _arc_chords(radius, turn, z, inner))
    vertices[-1] = vertices[0]
    path = Polygon(vertices=vertices, lead_in=vertices[:1], windings=())
    return laplace_eval_multi(kd, path, z, js, tol)
