"""Exact branch continuation against the sampled continuation it replaced.

The references are the densifying ``continue_args``, which inserted chord
midpoints until every argument step was below pi/8, and the path kernel that
ran it on 257 points of the polygon, doubling up to eight times, and
interpolated every pole's argument at every quadrature node.  Both snap the
principal argument onto the sheet they find, so wherever they find the same
sheet as the exact chord rule, log phi agrees to the bit.
"""

import cmath
import math

import numpy as np
import pytest

from laplace_ode import ContourError, KernelData, Problem, contour
from laplace_ode.contour import (Polygon, _polygon, canonical_contour,
                                 laplace_eval_multi, plan_contour)
from laplace_ode.kernel import continue_args
from laplace_ode.odespec import OdeSpec
from laplace_ode.scalars import GaussRational
from laplace_ode.solutions import symmetry_sum

MAX_ARG_STEP = math.pi / 8
MODULI = (0.3, 2.0, 10.0, 40.0)
DIRECTIONS = tuple(2 * math.pi * (k + 0.5) / 8 for k in range(8))


def _spec(a, b):
    return OdeSpec(n=len(a), a=tuple(GaussRational(v) for v in a),
                   b=tuple(GaussRational(v) for v in b))


# m = 1, poles at 0 and -2 with exponents -4.875 and 9.875: the arc of
# Lambda_1 turns arg(t + 2) by more than pi
M1_SPEC = _spec([-3, 3, 3, 1, 2], [0, 0, 0, -2, 1])


# ----------------------------------------------------------------------------
# sampled references
# ----------------------------------------------------------------------------

def _principal(kd, point):
    """The (point, args) start of principal arguments at ``point``."""
    return point, np.angle(point - kd._locs)


def _ref_continue_args(kd, pts, start, max_refine=14):
    """Densify by chord midpoints until every argument step is below
    MAX_ARG_STEP, then unwrap from ``start``, a (point, args) pair."""
    pts = np.asarray(pts, dtype=complex)
    if len(kd.poles) == 0:
        return np.empty((0, len(pts)))
    point, start_args = start
    assert abs(pts[0] - point) <= 1e-9 * (1 + abs(point)), \
        "path does not start at the start point"
    locs = kd._locs
    clear = kd.clearance()
    work = pts
    index = np.arange(len(pts))
    for _ in range(max_refine):
        if np.any(np.abs(work[:, None] - locs[None, :]) < clear[None, :]):
            raise ContourError("path passes within clearance of a kernel pole")
        raw = np.angle(work[None, :] - locs[:, None])
        jumps = np.angle(np.exp(1j * np.diff(raw, axis=1)))
        bad = np.any(np.abs(jumps) >= MAX_ARG_STEP, axis=0)
        if not bad.any():
            unwrapped = raw.copy()
            np.cumsum(np.concatenate([raw[:, :1] * 0, jumps], axis=1), axis=1,
                      out=unwrapped)
            unwrapped += raw[:, :1]
            shift = 2 * math.pi * np.round((start_args - unwrapped[:, 0]) /
                                           (2 * math.pi))
            unwrapped += shift[:, None]
            offset = start_args - unwrapped[:, 0]
            assert np.max(np.abs(offset)) <= 1e-6, \
                "start arguments inconsistent with the path start"
            unwrapped += offset[:, None]
            return unwrapped[:, index]
        mids = 0.5 * (work[:-1][bad] + work[1:][bad])
        merged = np.empty(len(work) + len(mids), dtype=complex)
        pos = np.zeros(len(work), dtype=int)
        pos[1:] = np.cumsum(bad.astype(int))
        new_idx = np.arange(len(work)) + pos
        merged[new_idx] = work
        merged[(np.arange(len(work) - 1) + pos[:-1] + 1)[bad]] = mids
        index = new_idx[index]
        work = merged
    raise AssertionError("branch continuation could not refine the path "
                         "enough")


class _RefPathKernel:
    """A table of continued arguments along the polygon, interpolated at the
    nodes."""

    def __init__(self, kd, path):
        self.kd = kd
        lead = path.lead_in
        args = _ref_continue_args(kd, lead, _principal(kd, lead[0]))
        start = (lead[-1], args[:, -1])
        self.starts, self.steps = path.vertices[:-1], np.diff(path.vertices)
        n = 257
        for _ in range(8):
            s = np.linspace(0.0, 1.0, n)
            args = _ref_continue_args(kd, self._point(s), start)
            steps = np.abs(np.diff(args, axis=1))
            if steps.size == 0 or steps.max() < math.pi / 8:
                break
            n = 2 * n - 1
        self.table = (s, args)

    def _point(self, s):
        """Edge k of n on [k/n, (k+1)/n]."""
        n = len(self.steps)
        k = np.minimum((s * n).astype(int), n - 1)
        return self.starts[k] + (s * n - k) * self.steps[k]

    def log_phi(self, k, t):
        kd = self.kd
        s = (k + ((t - self.starts[k]) / self.steps[k]).real) / len(self.steps)
        s_grid, args_grid = self.table
        raw = np.angle(t[None, :] - kd._locs[:, None])
        interp = np.vstack([np.interp(s, s_grid, row) for row in args_grid])
        snapped = raw + 2 * math.pi * np.round((interp - raw) / (2 * math.pi))
        return kd.log_phi_with_args(t, snapped)


# ----------------------------------------------------------------------------
# comparison on every node an evaluation asks for
# ----------------------------------------------------------------------------

@pytest.fixture
def checked_nodes(monkeypatch):
    """Make every Polygon.log_phi call, each path's first pass
    (``Polygon.first_pass``) included, also evaluate the reference and
    require the same bits; returns the per-path-kind node counts."""
    counts = {"canonical": 0, "descent": 0}
    init, exact = Polygon.__init__, Polygon.log_phi

    def __init__(self, kd, vertices, *args, **kwargs):
        init(self, kd, vertices, *args, **kwargs)
        self.ref = _RefPathKernel(kd, self)
        # a canonical polygon starts its branch at its first vertex; a
        # descent path's lead-in runs there along an arc
        self.kind = "descent" if len(self.lead_in) > 1 else "canonical"

    def log_phi(self, k, t):
        got = exact(self, k, t)
        assert np.array_equal(got, self.ref.log_phi(k, t)), self.kind
        counts[self.kind] += len(t)
        return got

    monkeypatch.setattr(Polygon, "__init__", __init__)
    monkeypatch.setattr(Polygon, "log_phi", log_phi)
    return counts


def _grid(kd):
    for nu in range(kd.m + 1):
        for r in MODULI:
            for th in DIRECTIONS:
                yield nu, r * cmath.exp(1j * th)


@pytest.mark.parametrize("name", ["ex7_6", "m1"])
def test_exact_continuation_matches_sampled_tables(problems, checked_nodes,
                                                   name):
    kd = (problems(name) if name != "m1" else Problem(M1_SPEC)).kernel
    assert kd.poles and not kd.is_single_valued
    for nu, z in _grid(kd):
        path = plan_contour(kd, nu, z, 1e-8)
        laplace_eval_multi(kd, path, z, [0], tol=1e-8)
        canonical = _polygon(kd, canonical_contour(kd, nu), z, 1e-8)
        if not np.array_equal(path.vertices, canonical.vertices):
            laplace_eval_multi(kd, canonical, z, [0], tol=1e-8)
    # both path kinds were compared
    assert checked_nodes["canonical"] > 0 and checked_nodes["descent"] > 0


def test_grid_turns_an_arc_by_more_than_pi():
    """The arc of the m = 1 case above turns arg(t + 2) by more than pi,
    which no single chord can; the chords of its canonical polygon continue
    that turn exactly, as the densified reference does."""
    kd = Problem(M1_SPEC).kernel
    c = canonical_contour(kd, 1)
    v = _polygon(kd, c, 0.0, 1e-8).vertices
    args = continue_args(kd, v)
    assert np.allclose(args, _ref_continue_args(kd, v, _principal(kd, v[0])),
                       rtol=0, atol=1e-12)
    arc = np.nonzero(np.isclose(np.abs(v), c.radius))[0]
    turn = args[:, arc[-1]] - args[:, arc[0]]
    assert np.max(np.abs(turn)) > 1.2 * math.pi


def test_sheet_snap_only_rounds(problems, monkeypatch):
    """At every first-pass node of ex7_6's planned and canonical paths and
    of its subnormal symmetry circle, the continued argument
    anchors[:, k] + turn lies within 1e-12 of the sheet ``_Edges.log_phi``
    picks: the 2 pi snap only rounds, and never jumps to another sheet."""
    kd = problems("ex7_6").kernel
    paths, multi = [], contour.laplace_eval_multi
    monkeypatch.setattr(contour, "laplace_eval_multi",
                        lambda kd, c, *a: paths.append(c) or multi(kd, c, *a))
    ss = symmetry_sum(kd)
    assert ss.classification == "subnormal"
    ss.handle.eval_multi(3.0, [0], 1e-8)
    for nu in range(kd.m + 1):
        for z in (2.0, -1.5 + 6j, 10j, 12 * cmath.exp(0.3j)):
            paths += [plan_contour(kd, nu, z, 1e-8),
                      _polygon(kd, canonical_contour(kd, nu), z, 1e-8)]
    picked, pick = [], KernelData.log_phi_with_args
    monkeypatch.setattr(KernelData, "log_phi_with_args",
                        lambda kd, t, args: picked.append(args) or
                        pick(kd, t, args))
    locs, off_principal = kd._locs[:, None], 0
    for pk in paths:
        t = pk.first_pass[0].ravel()
        k = np.repeat(np.arange(len(pk.steps)), pk.first_pass[0].shape[1])
        continued = pk.anchors[:, k] + np.angle((t - locs) /
                                                (pk.starts[k] - locs))
        pk.log_phi(k, t)
        assert np.abs(picked[-1] - continued).max() < 1e-12
        off_principal += (np.abs(picked[-1] - np.angle(t - locs)) > 1).sum()
    # the snap is put to nodes off the principal sheet
    assert off_principal > 0


# ----------------------------------------------------------------------------
# one long chord
# ----------------------------------------------------------------------------

def test_long_chord_close_above_the_poles(problems):
    """A 2000-long chord passing 1.5 clearances above the poles at +-1 and 3
    above the pole at 0: the sampled rule ran out of refinement rounds."""
    kd = problems("ex7_6").kernel
    pts = np.array([-1000 + 3e-3j, 1000 + 3e-3j])
    args = continue_args(kd, pts)
    dense = np.concatenate([np.linspace(-1000.0, -2.0, 100),
                            np.linspace(-2.0, 2.0, 40001)[1:-1],
                            np.linspace(2.0, 1000.0, 100)]) + 3e-3j
    unwrapped = np.unwrap(np.angle(dense[None, :] - kd._locs[:, None]), axis=1)
    turn = args[:, -1] - args[:, 0]
    assert np.allclose(turn, unwrapped[:, -1] - unwrapped[:, 0], rtol=0,
                       atol=1e-12)
    assert np.allclose(turn, -math.pi, rtol=0, atol=1e-4)


def test_chord_within_clearance_between_clear_ends(problems):
    kd = problems("ex7_6").kernel
    pts = np.array([-0.5 + 5e-4j, 0.5 + 5e-4j])
    assert (np.abs(pts[:, None] - kd._locs[None, :]) > 0.4).all()
    with pytest.raises(ContourError):
        Polygon(kd, pts)
