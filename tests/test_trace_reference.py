"""The scalar descent-path tracer and Aberth iteration against array
references.

The references step every curve (and every root) together as numpy arrays,
one array operation per rule, until the slowest one settles.  They keep
every rule of the scalar code: the first step, the step-length cap, the
midpoint step, the retried climbing step, the three stop conditions, the
step limit and the valley rounding.  Only the order of the arithmetic
differs, so saddles and vertices must agree to rounding, the valley pairs
exactly, and the windings the planner derives from them exactly.
"""

import cmath
import math

import numpy as np
import pytest

from laplace_ode import contour
from laplace_ode.contour import (SADDLE_GAP, TRACE_DROP, TRACE_STEPS, Z_TILT,
                                 _descent_path, _trace_saddles)
from laplace_ode.kernel import build_kernel
from laplace_ode.poly import horner
from laplace_ode.problem import FIXTURE_NAMES
from laplace_ode.ratfun import _aberth

from oracles import random_normalized_spec

MODULI = (0.5, 3.0, 10.0, 40.0)
DIRECTIONS = tuple(2 * math.pi * (k + 0.3) / 8 for k in range(8))
RANDOM_SPECS = 30
RANDOM_POINTS = tuple(r * cmath.exp(1j * th) for r in (3.0, 10.0)
                      for th in (0.4, 2.0, 3.6, 5.2))


# ----------------------------------------------------------------------------
# array references
# ----------------------------------------------------------------------------

def _ref_aberth(coeffs, max_iter=400):
    coeffs = np.asarray(coeffs, dtype=complex)
    d = len(coeffs) - 1
    if d == 1:
        return np.array([-coeffs[0] / coeffs[1]])
    monic = coeffs / coeffs[-1]
    radius = 1.0 + max(abs(monic[:-1]))
    ks = np.arange(d)
    z = 0.6 * radius * np.exp(2j * np.pi * (ks + 0.25) / d + 1j * 0.4 * ks / d)
    dcoeffs = monic[1:] * np.arange(1, d + 1)

    def pval(x, c):
        acc = np.zeros_like(x)
        for ck in c[::-1]:
            acc = acc * x + ck
        return acc

    for _ in range(max_iter):
        p = pval(z, monic)
        dp = pval(z, dcoeffs)
        newton = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0.1)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        sums = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * sums
        step = newton / np.where(np.abs(denom) < 1e-30, 1e-30, denom)
        z = z - step
        if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(z))):
            break
    return z


def _ref_trace_saddles(kd, zt):
    m = kd.m
    d1 = [k * c for k, c in enumerate(kd._r0c)][1:]
    d2 = [k * c for k, c in enumerate(d1)][1:]
    saddles = _ref_aberth([d1[0] - zt, *d1[1:]])
    f2 = horner(d2, saddles)
    gap = np.abs(saddles[:, None] - saddles) + np.diag(np.full(m, np.inf))
    gap = gap.min(axis=1)
    # curve i leaves saddle i % m, along +tangent for i < m
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.minimum(np.sqrt(2.0 / np.abs(f2)), SADDLE_GAP * gap)
        rho = np.tile(rho, 2)
        cap = np.tile(0.5 * gap, 2)
        tangent = np.exp(0.5j * (math.pi - np.angle(f2)))
        t = np.tile(saddles, 2) + np.concatenate([tangent, -tangent]) * rho
        level = (horner(kd._r0c, saddles) - zt * saddles).real - TRACE_DROP
        level = np.tile(level, 2)
        r_far = 1.5 * np.abs(saddles).max() + 2.0 * kd.singular_radius + 2.0

        def height(t):
            return (horner(kd._r0c, t) - zt * t).real

        def settled(t, ft):
            return ((ft <= level) & (np.abs(t) > r_far)
                    & (np.cos((m + 1) * np.angle(t)) < -0.5))

        def downhill(t):
            g = np.conj(horner(d1, t) - zt)
            return -g / np.abs(g)

        h = rho
        ft = height(t)
        done = settled(t, ft)
        count = np.ones(2 * m, dtype=int)
        pts = [t]
        for _ in range(TRACE_STEPS):
            if done.all():
                break
            h = np.minimum(np.minimum(1.5 * h, 0.5 * np.abs(t) + rho), cap)
            step = t + h * downhill(t + 0.5 * h * downhill(t))
            f_step = height(step)
            moved = ~done & (f_step < ft)
            h = np.where(moved, h, 0.5 * h)
            t, ft = np.where(moved, step, t), np.where(moved, f_step, ft)
            pts.append(t)
            count += ~done
            done = done | settled(t, ft)
        ends = np.rint(((m + 1) * np.angle(t) / math.pi - 1.0) / 2.0)
        ends = ends.astype(int) % (m + 1)
    pts = np.array(pts)
    pieces = []
    for i, s in enumerate(saddles):
        a, b = ends[i], ends[m + i]
        ok = f2[i] != 0 and done[i] and done[m + i] and a != b
        points = np.concatenate([pts[:count[i], i][::-1], [s],
                                 pts[:count[m + i], m + i]])
        keep = np.concatenate([[True], np.diff(points) != 0])
        pieces.append((int(a), int(b), points[keep]) if ok else None)
    return saddles, pieces


# ----------------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------------

def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(
        (np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b))).all())


def _compare(kd, z, monkeypatch, where):
    zt = z * cmath.exp(1j * Z_TILT)
    saddles, pieces = _trace_saddles(kd, zt)
    ref_saddles, ref_pieces = _ref_trace_saddles(kd, zt)
    assert _close(saddles, ref_saddles), where
    for got, ref in zip(pieces, ref_pieces):
        assert (got is None) == (ref is None), where
        if got is not None:
            assert got[:2] == ref[:2], where
            assert _close(got[2], ref[2]), where
    paths = [_descent_path(kd, nu, z) for nu in range(kd.m + 1)]
    with monkeypatch.context() as mp:
        mp.setattr(contour, "_trace_saddles", _ref_trace_saddles)
        ref_paths = [_descent_path(kd, nu, z) for nu in range(kd.m + 1)]
    for got, ref in zip(paths, ref_paths):
        assert (got is None) == (ref is None), where
        if got is not None:
            assert got.windings == ref.windings, where
    return sum(p is not None for p in pieces)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_tracer_matches_array_reference(problems, monkeypatch, name):
    kd = problems(name).kernel
    traced = 0
    for r in MODULI:
        for th in DIRECTIONS:
            z = r * cmath.exp(1j * th)
            traced += _compare(kd, z, monkeypatch, "%s z=%r" % (name, z))
    assert traced


def test_tracer_matches_array_reference_on_random_specs(monkeypatch):
    rng = np.random.default_rng(5)
    ms = set()
    for k in range(RANDOM_SPECS):
        kd = build_kernel(random_normalized_spec(rng))
        ms.add(kd.m)
        for z in RANDOM_POINTS:
            _compare(kd, z, monkeypatch, "spec %d z=%r" % (k, z))
    assert max(ms) >= 5


def test_aberth_matches_array_reference():
    rng = np.random.default_rng(3)
    for d in range(1, 9):
        for _ in range(10):
            coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            assert _close(_aberth(list(coeffs)), _ref_aberth(coeffs)), coeffs
