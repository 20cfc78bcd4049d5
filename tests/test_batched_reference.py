"""The batched planning and quadrature kernels against per-candidate and
per-interval loop references.

The references are the loop versions the batched code replaced: one
``log_magnitude_bound`` call per scored path segment, one ``log_phi`` call
per Gauss rule per interval, and kernel coefficients converted from their
exact form on every evaluation.  The arithmetic per node is the same, so
chosen contours and quadrature results must be equal, not merely close.
"""

import math

import numpy as np
import pytest

from laplace_ode import contour, kernel
from laplace_ode.contour import (ANGLE_MARGIN, laplace_eval_multi,
                                 plan_contour)
from laplace_ode.problem import FIXTURE_NAMES

MODULI = (0.5, 3.0, 20.0, 40.0)
DIRECTIONS = tuple(2.5 + k * math.pi / 2 for k in range(4))


# ----------------------------------------------------------------------------
# loop references
# ----------------------------------------------------------------------------

def _ref_log_magnitude_bound(kd, t):
    t = np.asarray(t, dtype=complex)
    val = kd.r0.eval_array(t).real
    for p, loc, e in zip(kd.poles, kd._locs, kd._exps):
        d = np.maximum(np.abs(t - loc), 1e-300)
        val = val + e.real * np.log(d) + abs(e.imag) * math.pi
        if not p.r_poly.is_zero:
            val = val + np.abs(p.r_poly.to_complex().eval_array(1.0 / (t - loc)))
    return val


def _ref_log_phi_with_args(kd, t, args):
    t = np.asarray(t, dtype=complex)
    out = kd.r0.eval_array(t).astype(complex)
    for k, (loc, e) in enumerate(zip(kd._locs, kd._exps)):
        d = t - loc
        out = out + e * (np.log(np.abs(d)) + 1j * args[k])
        rp = kd.poles[k].r_poly
        if not rp.is_zero:
            out = out + rp.to_complex().eval_array(1.0 / d)
    return out


def _ray_horizon(kd, angle, z, radius):
    k = kd.m + 1
    dec = -math.cos(k * angle)
    dec = max(dec, math.sin(k * ANGLE_MARGIN) * 0.5)
    r_star = (k * abs(z) / dec) ** (1.0 / kd.m) if abs(z) > 0 else 1.0
    lower = sum(abs(complex(c)) for c in kd.r0.coeffs[:-1])
    return 3.0 * r_star + radius + lower + 5.0


def _score_contour(kd, c, z, n=40):
    worst = -np.inf
    clear = kd.clearance()[None, :] if kd.poles else None
    for angle in (c.alpha, c.beta):
        hi = _ray_horizon(kd, angle, z, c.radius)
        r = np.geomspace(max(c.radius, 1e-3), hi, n)
        t = r * np.exp(1j * angle)
        if clear is not None and \
                (np.abs(t[:, None] - kd._locs[None, :]) < clear).any():
            return np.inf
        g = kd.log_magnitude_bound(t) - (z * t).real
        worst = max(worst, float(g.max()))
    if c.radius > 0 and abs(c.beta - c.alpha) > 1e-15:
        phi = np.linspace(c.alpha, c.beta, n)
        t = c.radius * np.exp(1j * phi)
        if clear is not None and \
                (np.abs(t[:, None] - kd._locs[None, :]) < clear).any():
            return np.inf
        g = kd.log_magnitude_bound(t) - (z * t).real
        worst = max(worst, float(g.max()))
    return worst


def _eval_interval(pk, z, js, iv):
    mp, dm, _label = pk.segments[iv.seg]
    half = 0.5 * (iv.v - iv.u)
    mid = 0.5 * (iv.v + iv.u)
    res = {}
    for tag, (xs, ws) in (("hi", contour._GL_HI), ("lo", contour._GL_LO)):
        s = mid + half * xs
        t = mp(s)
        L = pk.log_phi(iv.seg, s, t) - z * t
        pref = ws * half * dm(s)
        scale = float(L.real.max()) if len(L) else -math.inf
        core = np.exp(L - scale) * pref
        sums = np.array([np.sum(core * (-t) ** j) for j in js])
        res[tag] = (scale, sums)
        iv.nodes += len(s)
    s_hi, v_hi = res["hi"]
    s_lo, v_lo = res["lo"]
    scale = max(s_hi, s_lo)
    iv.scale = scale
    iv.hi = v_hi * math.exp(s_hi - scale)
    iv.lo = v_lo * math.exp(s_lo - scale)


def _loop_scores(kd, cands, z):
    return np.array([_score_contour(kd, c, z) for c in cands])


def _loop_intervals(pk, z, js, ivs):
    for iv in ivs:
        _eval_interval(pk, z, js, iv)


def _evaluate(kd, nu, z, js):
    c = plan_contour(kd, nu, z)
    return c, laplace_eval_multi(kd, c, z, js)


# ----------------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------------

def _fields(q):
    return (q.mantissa, q.log_scale, q.est_error, q.nodes_used, q.flags)


def _cases(problems, name):
    kd = problems(name).kernel
    for nu in range(kd.m + 1):
        for r in MODULI:
            for th in DIRECTIONS:
                yield kd, nu, r * complex(math.cos(th), math.sin(th))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_batched_matches_loop_reference(problems, monkeypatch, name):
    js = [0, 1]
    for kd, nu, z in _cases(problems, name):
        with monkeypatch.context() as mp:
            mp.setattr(contour, "_plan_scores", _loop_scores)
            mp.setattr(contour, "_eval_intervals", _loop_intervals)
            mp.setattr(kernel.KernelData, "log_magnitude_bound",
                       _ref_log_magnitude_bound)
            mp.setattr(kernel.KernelData, "log_phi_with_args",
                       _ref_log_phi_with_args)
            ref_contour, ref = _evaluate(kd, nu, z, js)
        got_contour, got = _evaluate(kd, nu, z, js)
        where = "%s nu=%d z=%r" % (name, nu, z)
        assert got_contour == ref_contour, where
        assert [_fields(q) for q in got] == [_fields(q) for q in ref], where


def test_reference_grid_reaches_budget_and_branch_tables(problems):
    """The grid covers a many-valued kernel (branch tables) and a case that
    exhausts the node budget."""
    kd6 = problems("ex7_6").kernel
    assert kd6.poles and not kd6.is_single_valued
    kd3 = problems("ex7_3").kernel
    assert 40.0 in MODULI and DIRECTIONS[0] == 2.5
    z = 40.0 * complex(math.cos(2.5), math.sin(2.5))
    _c, (q,) = _evaluate(kd3, 0, z, [0])
    assert "node_budget_exhausted" in q.flags
