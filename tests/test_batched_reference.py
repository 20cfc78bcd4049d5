"""The array-held quadrature against an object-based loop reference.

The reference is the refinement loop the array code replaced: one
``_Interval`` object per interval, one ``log_phi`` call per interval, and
kernel coefficients converted from their exact form on every
evaluation.  On the polygon of a ray-arc-ray contour the arithmetic per node
and the order of every sum are the same, so results must be equal, not
merely close.
"""

import math

import numpy as np
import pytest

from laplace_ode import contour, kernel
from laplace_ode.contour import (QuadResult, _PathKernel, _polygon,
                                 canonical_contour, laplace_eval_multi,
                                 log_rescale, truncation_bound,
                                 validate_contour)
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


class _Interval:
    __slots__ = ("u", "v", "scale", "hi", "lo", "mass", "nodes")

    def __init__(self, u, v, nodes=0):
        self.u = u
        self.v = v
        self.scale = -math.inf
        self.hi = None
        self.lo = None
        self.mass = None
        self.nodes = nodes


def _eval_interval(pk, z, js, iv):
    n = len(pk.steps)
    k = int(0.5 * (iv.u + iv.v) * n)
    a, b = iv.u * n - k, iv.v * n - k
    half = 0.5 * (b - a)
    # one node set: the K21 nodes, the G10 rule on every other one
    x = 0.5 * (b + a) + half * contour._GL_NODES
    t = pk.starts[k] + x * pk.steps[k]
    L = pk.log_phi(np.full(len(t), k), t) - z * t
    dx = half * pk.steps[k]
    iv.scale = float(L.real.max())
    core = np.exp(L - iv.scale)
    core_hi = core * (contour._GL_WEIGHTS * dx)
    core_lo = core[1::2] * (contour._G10_WEIGHTS[1::2] * dx)
    iv.hi, iv.lo, iv.mass = (np.empty(len(js), dtype)
                             for dtype in (complex, complex, float))
    for c, j in enumerate(js):
        power = (-t) ** j
        terms = core_hi * power
        iv.hi[c] = np.sum(terms)
        iv.lo[c] = np.sum(core_lo * power[1::2])
        iv.mass[c] = np.sum(np.abs(terms))
    iv.nodes += len(t)


def _loop_eval_multi(kd, c, z, js, tol=contour.DEFAULT_TOL,
                     node_budget=contour.NODE_BUDGET):
    """The object-based refinement loop, one interval at a time."""
    validate_contour(kd, c)
    pk = _PathKernel(kd, _polygon(kd, c, z,
                                  truncation_bound(kd, c, z, min(tol, 1e-8))))
    cuts = np.linspace(0.0, 1.0, len(pk.steps) + 1)
    intervals = [_Interval(float(u), float(v))
                 for u, v in zip(cuts[:-1], cuts[1:])]
    for iv in intervals:
        _eval_interval(pk, z, js, iv)
    flags = []
    while True:
        scale, factors = log_rescale([iv.scale for iv in intervals])
        factors = np.array(factors)[:, None]
        hi = np.array([iv.hi for iv in intervals])
        lo = np.array([iv.lo for iv in intervals])
        mass = np.array([iv.mass for iv in intervals])
        gaps = np.abs(hi - lo) * factors
        tot = np.cumsum(hi * factors, axis=0)[-1]
        err = np.cumsum(gaps, axis=0)[-1]
        mags = np.maximum(np.abs(tot), 1e-300)
        rel = err / mags
        nodes = sum(iv.nodes for iv in intervals)
        if rel.max() <= tol:
            break
        floor = contour.ROUNDOFF * mass * factors
        if all(err[j] <= floor.sum(axis=0)[j]
               for j in range(len(js)) if rel[j] > tol):
            flags.append("refinement_stalled")
            break
        room = (node_budget - nodes) // (2 * len(contour._GL_NODES))
        if room < 1:
            flags.append("node_budget_exhausted")
            break
        scores = [max(g / m if g > f else 0.0 for g, f, m in zip(*row, mags))
                  for row in zip(gaps.tolist(), floor.tolist())]
        cutoff = max(max(scores) * 0.1, tol / max(len(intervals), 1))
        chosen = [i for i, (iv, sc) in enumerate(zip(intervals, scores))
                  if sc >= cutoff and (iv.v - iv.u) > 1e-13]
        if not chosen:
            flags.append("refinement_stalled")
            break
        # the highest scores first, the earlier interval on a tie
        chosen = set(sorted(chosen, key=lambda i: -scores[i])[:room])
        new_intervals = []
        split = []
        for i, iv in enumerate(intervals):
            if i in chosen:
                mid = 0.5 * (iv.u + iv.v)
                a = _Interval(iv.u, mid, nodes=iv.nodes)
                b = _Interval(mid, iv.v)
                new_intervals += [a, b]
                split += [a, b]
            else:
                new_intervals.append(iv)
        intervals = new_intervals
        for iv in split:
            _eval_interval(pk, z, js, iv)
    return [QuadResult(mantissa=tot[k] / (2j * math.pi), log_scale=scale,
                       est_error=float(err[k]) / (2.0 * math.pi),
                       nodes_used=nodes, flags=tuple(flags))
            for k in range(len(js))]


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
                z = r * complex(math.cos(th), math.sin(th))
                yield kd, canonical_contour(kd, nu), z


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_batched_matches_loop_reference(problems, monkeypatch, name):
    js = [0, 1]
    for kd, c, z in _cases(problems, name):
        with monkeypatch.context() as mp:
            mp.setattr(kernel.KernelData, "log_magnitude_bound",
                       _ref_log_magnitude_bound)
            mp.setattr(kernel.KernelData, "log_phi_with_args",
                       _ref_log_phi_with_args)
            ref = _loop_eval_multi(kd, c, z, js)
        got = laplace_eval_multi(kd, c, z, js)
        where = "%s %r z=%r" % (name, c, z)
        assert [_fields(q) for q in got] == [_fields(q) for q in ref], where


def test_reference_grid_reaches_budget_and_branch_tables(problems):
    """The grid covers a many-valued kernel (whose nodes take continued
    branch arguments) and a case that exhausts the node budget."""
    kd6 = problems("ex7_6").kernel
    assert kd6.poles and not kd6.is_single_valued
    kd3 = problems("ex7_3").kernel
    assert 40.0 in MODULI and DIRECTIONS[0] == 2.5
    z = 40.0 * complex(math.cos(2.5), math.sin(2.5))
    (q,) = laplace_eval_multi(kd3, canonical_contour(kd3, 0), z, [0])
    assert "node_budget_exhausted" in q.flags
