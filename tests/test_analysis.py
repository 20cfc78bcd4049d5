import cmath
import math
import threading

import numpy as np
import pytest

from laplace_ode import (FIXTURE_NAMES, NumericError, Poly, QuadResult,
                         char_roots, closed_form_solution, indicator_empirical,
                         indicator_predicted, nevanlinna_estimates,
                         nevanlinna_predicted, order_catalog, poly_roots,
                         solutions, zero_count_sector)
from laplace_ode.contour import (_GL_NODES, Polygon, laplace_eval_multi,
                                 plan_contour)
from laplace_ode.kernel import KernelData


def char_models(spec, z: complex):
    """Asymptotic model values for the three classes at z."""
    n, q, p = spec.n, spec.indices.q, spec.indices.p
    m = n - q
    outer = []
    zr = z ** (1.0 / m)
    for k in range(m):
        gamma = cmath.exp(1j * math.pi * (m % 2) / m) * \
            cmath.exp(2j * math.pi * k / m)
        outer.append(gamma * zr)
    middle = []
    bpoly = Poly([complex(bj) for bj in spec.b])
    if bpoly.degree >= 1:
        for c in poly_roots(bpoly):
            for _ in range(c.multiplicity):
                if abs(c.center_complex) > 1e-12:
                    middle.append(c.center_complex)
    inner = []
    if p >= 1 and spec.a[0]:
        tau_p = -complex(spec.a[0]) / complex(spec.b[p])
        base = tau_p ** (1.0 / p)
        for k in range(p):
            inner.append(base * cmath.exp(2j * math.pi * k / p) * z ** (-1.0 / p))
    return outer, middle, inner


def test_char_roots_airy_large_z(airy):
    cr = char_roots(airy.spec, 1e6)
    assert cr.counts() == (2, 0, 0)
    mags = sorted(abs(r) for r in cr.roots)
    assert all(abs(m - 1000.0) < 1e-6 for m in mags)


def test_char_roots_sixth_order(problems):
    spec = problems("ex7_2").spec
    cr = char_roots(spec, 1e6)
    assert cr.counts() == (2, 2, 2)
    mids = sorted((r for r, c in zip(cr.roots, cr.classes) if c == "middle"),
                  key=lambda v: v.imag)
    assert abs(mids[0] + 1j) < 1e-3 and abs(mids[1] - 1j) < 1e-3
    _outer, _middle, inner = char_models(spec, 1e6)
    got_inner = [r for r, c in zip(cr.roots, cr.classes) if c == "inner"]
    for g in got_inner:
        assert min(abs(g - i) for i in inner) < 1e-6 * abs(g)


def test_char_roots_class_counts_generic(problems):
    for name in ("ex7_1", "ex7_5", "ex7_6"):
        prob = problems(name)
        cr = char_roots(prob.spec, 3e4)
        idx = prob.indices
        assert cr.counts() == (prob.spec.n - idx.q, idx.q - idx.p, idx.p)


def test_char_roots_refuses_small_z(airy):
    with pytest.raises(NumericError, match="threshold"):
        char_roots(airy.spec, 2.0)


def test_order_catalog_rows(problems):
    from fractions import Fraction
    cat = order_catalog(problems("airy").spec)
    assert cat.orders() == [Fraction(3, 2)]
    # p = 2 > 1 gives the 1 - 1/p = 1/2 row (not any other value)
    cat = order_catalog(problems("ex7_2").spec)
    assert cat.orders() == [Fraction(3, 2), Fraction(1), Fraction(1, 2)]
    cat = order_catalog(problems("ex7_1").spec)
    assert cat.orders() == [Fraction(3, 2), Fraction(1), Fraction(0)]
    assert cat.entries[0][1] == "guaranteed"


def test_indicator_predicted_values():
    assert abs(indicator_predicted(1.5, 0.0) + 2.0 / 3.0) < 1e-15
    assert abs(indicator_predicted(1.5, math.pi / 3)) < 1e-15
    assert indicator_predicted(2, 7 * math.pi / 8, "q_eq_n_minus_1") == 0.0
    assert abs(indicator_predicted(2, 0.0, "q_eq_n_minus_1") + 0.5) < 1e-15


def test_indicator_zeros_at_quarter_period():
    for rho in (1.5, 4 / 3, 1.25):
        th = math.pi / (2 * rho)
        assert abs(indicator_predicted(rho, th)) < 1e-14
        assert abs(indicator_predicted(rho, -th)) < 1e-14


def test_indicator_properties_100_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        rho = float(rng.uniform(1.01, 2.0))
        h = lambda th: indicator_predicted(rho, th)
        # pairing property: h(phi) + h(phi + pi/rho) >= 0 when both in range
        phi = float(rng.uniform(-math.pi, math.pi - math.pi / rho))
        assert h(phi) + h(phi + math.pi / rho) >= -1e-12
        # trigonometric convexity on short arcs
        th1 = float(rng.uniform(-math.pi, math.pi - 0.2))
        th2 = th1 + float(rng.uniform(0.05, min(math.pi / rho - 1e-6,
                                                math.pi - th1)))
        th = float(rng.uniform(th1, th2))
        lhs = h(th1) * math.sin(rho * (th2 - th)) + \
            h(th2) * math.sin(rho * (th - th1))
        rhs = h(th) * math.sin(rho * (th2 - th1))
        assert lhs >= rhs - 1e-10


def test_indicator_converges_per_theta(airy):
    lam = airy.lam(0)
    thetas = np.linspace(-0.9 * math.pi, 0.9 * math.pi, 13)
    prof = indicator_empirical(lam, 1.5, thetas, [10.0, 40.0], tol=1e-9)
    dev10 = np.abs(prof.h_emp[:, 0] - prof.h_pred)
    dev40 = np.abs(prof.h_emp[:, 1] - prof.h_pred)
    assert np.all(dev40 <= dev10)


def test_indicator_empirical_airy(airy):
    lam = airy.lam(0)
    thetas = np.linspace(-0.9 * math.pi, 0.9 * math.pi, 13)
    prof = indicator_empirical(lam, 1.5, thetas, [10.0, 40.0], tol=1e-9)
    assert prof.deviations[1] <= 0.05
    assert prof.deviations[1] <= prof.deviations[0]
    # positive growth near the negative axis
    i = 0  # theta = -0.9 pi
    assert prof.h_emp[i, 1] > 0


def test_indicator_rejects_bad_grid(airy):
    lam = airy.lam(0)
    with pytest.raises(ValueError, match="pi - 0.05"):
        indicator_empirical(lam, 1.5, [0.0, math.pi], [10.0])
    with pytest.raises(ValueError, match="increasing"):
        indicator_empirical(lam, 1.5, [0.0], [10.0, 5.0])


def test_indicator_cells_run_in_order_on_the_calling_thread():
    # a stand-in handle: |f(z)| = e^|z|, except one cell fails to evaluate;
    # without a batch evaluator, eval_many goes through _multi per cell
    thetas, radii, bad = [-1.0, 0.0, 1.0], [2.0, 5.0], (1, 0)
    calls = []

    def multi(z, js, tol):
        calls.append((threading.get_ident(), z))
        if len(calls) - 1 == bad[0] * len(radii) + bad[1]:
            raise NumericError("stand-in failure")
        return [QuadResult(1 + 0j, abs(z), 1e-12 * abs(z)) for _j in js]

    handle = solutions.SolutionHandle(kind="closed_form", label="stand-in",
                                      _multi=multi)
    prof = indicator_empirical(handle, 1.5, thetas, radii)
    assert [ident for ident, _ in calls] == [threading.get_ident()] * 6
    want = [r * cmath.exp(1j * th) for th in thetas for r in radii]
    np.testing.assert_allclose([z for _, z in calls], want, rtol=1e-15)
    nan = np.zeros((len(thetas), len(radii)), dtype=bool)
    nan[bad] = True
    assert (np.isnan(prof.h_emp) == nan).all()
    assert (np.isnan(prof.est_rel_err) == nan).all()
    for i, k in zip(*np.nonzero(~nan)):
        assert prof.h_emp[i, k] == pytest.approx(radii[k] ** -0.5)
        assert prof.est_rel_err[i, k] == pytest.approx(1e-12 * radii[k])


def test_radius_with_fewer_than_two_finite_cells_has_no_estimate():
    # a stand-in handle, |f(z)| = e^|z|: every cell at r = 5 fails, and at
    # r = 9 all but one.  Those radii have no deviation and no empirical
    # Nevanlinna coefficients, and no All-NaN warning is raised
    thetas, radii = [-1.0, 0.0, 1.0], [2.0, 5.0, 9.0]

    def multi(z, js, tol):
        r = round(abs(z))
        if r == 5 or (r == 9 and z.imag):
            raise NumericError("stand-in failure")
        return [QuadResult(1 + 0j, abs(z), 1e-12 * abs(z)) for _j in js]

    handle = solutions.SolutionHandle(kind="closed_form", label="stand-in",
                                      _multi=multi)
    prof = indicator_empirical(handle, 1.5, thetas, radii)
    assert np.isfinite(prof.deviations[0])
    assert np.isnan(prof.deviations[1:]).all()
    assert np.isfinite(nevanlinna_estimates(prof, 0)["emp"]).all()
    for k in (1, 2):
        est = nevanlinna_estimates(prof, k)
        assert np.isnan(est["emp"]).all()
        assert np.isfinite(est["pred"]).all()


def test_nevanlinna_predicted_airy_values():
    t, m, n = nevanlinna_predicted(1.5)
    assert abs(t - 8.0 / (9.0 * math.pi)) < 1e-9
    assert abs(n - 4.0 / (9.0 * math.pi)) < 1e-9
    assert abs((t - m) - n) < 1e-12


def test_nevanlinna_generic_formula():
    for rho in (1.5, 4.0 / 3.0):
        t, _m, _n = nevanlinna_predicted(rho)
        want = (1.0 + abs(math.sin(math.pi * rho))) / (math.pi * rho * rho)
        assert abs(t - want) < 1e-9


def test_nevanlinna_q_eq_n_minus_1():
    t, _m, n = nevanlinna_predicted(2, "q_eq_n_minus_1")
    assert abs(t - 1.0 / (2 * math.pi)) < 1e-9
    assert abs(n - 1.0 / (4 * math.pi)) < 1e-9


def test_nevanlinna_predicted_is_exact():
    # the antiderivative of the predicted indicator gives the integrals
    # to rounding
    cases = [(1.5, "generic", 8 / (9 * math.pi), 4 / (9 * math.pi)),
             (2, "q_eq_n_minus_1", 1 / (2 * math.pi), 1 / (4 * math.pi))]
    for k in range(2, 7):
        rho = 1 + 1 / k
        cases.append((rho, "generic", (1 + abs(math.sin(math.pi * rho))) /
                      (math.pi * rho ** 2), None))
    for rho, case, t_want, n_want in cases:
        t, m, n = nevanlinna_predicted(rho, case)
        assert abs(t - t_want) < 1e-14
        if n_want is not None:
            assert abs(n - n_want) < 1e-14
        assert abs((t - m) - n) < 1e-15
    with pytest.raises(ValueError, match="unknown indicator case"):
        nevanlinna_predicted(1.5, "q_eq_n")


def test_proposition_negative_sector(problems):
    # the indicator is negative on |theta| < m pi / (2 (m + 1)) for
    # m = n - q in {1, 2, 3}
    cases = (("ex7_3", 1), ("airy", 2), ("cubic_airy", 3))
    for name, m in cases:
        prob = problems(name)
        assert prob.kernel.m == m
        lam = prob.lam(0)
        half = m * math.pi / (2 * (m + 1)) - 0.05
        thetas = np.linspace(-half, half, 9)
        radius = 40.0 if m > 1 else 20.0
        prof = indicator_empirical(lam, prob.rho_max, thetas, [radius],
                                   tol=1e-8, case=prob.indicator_case)
        assert np.nanmax(prof.h_emp[:, 0]) < 0.0


def test_zero_count_polynomial_oracle():
    # closed-form polynomial handles make the winding count directly
    # checkable against the known roots.  Two inputs: every root at least
    # 0.05 from the boundary, and the nearest one 0.002-0.05 from it, where
    # the boundary walk has to shorten its steps
    far, near = np.random.default_rng(3), np.random.default_rng(11)
    for rng in [far] * 100 + [near] * 3000:
        deg = int(rng.integers(1, 5))
        roots = rng.normal(0, 1.2, deg) + 1j * rng.normal(0, 1.2, deg)
        coeffs = np.poly(roots)[::-1].astype(complex)
        h = closed_form_solution(Poly(list(coeffs)))
        radius = 2.5
        th1 = float(rng.uniform(-math.pi, 0))
        th2 = th1 + float(rng.uniform(0.8, 2 * math.pi - abs(th1)))

        def inside(w, a, b, r):
            if abs(w) >= r or abs(w) < 1e-3 * r:
                return None
            ang = cmath.phase(w)
            for shift in (0.0, 2 * math.pi, -2 * math.pi):
                if a + 1e-9 < ang + shift < b - 1e-9:
                    return True
            return False

        marks = [inside(w, th1, th2, radius) for w in roots]
        if any(m is None for m in marks):
            continue
        want = sum(marks)
        # a root on the boundary has no count: keep the nearest root in
        # the input's band
        dists = [min(abs(abs(w) - radius),
                     abs(abs(w) * abs(cmath.phase(w) - th1)),
                     abs(abs(w) * abs(cmath.phase(w) - th2))) for w in roots]
        margin = min(dists, default=1.0)
        if (margin < 0.05) != (rng is near) or margin < 0.002:
            continue
        zc = zero_count_sector(h, (th1, th2, radius), 1e-9)
        assert zc.count == want, (roots, th1, th2)


def test_zero_count_additivity(airy):
    lam = airy.lam(0)
    left = zero_count_sector(lam, (math.pi / 2, 3 * math.pi / 2, 6.0), 1e-9)
    right = zero_count_sector(lam, (-math.pi / 2, math.pi / 2, 6.0), 1e-9)
    disk = zero_count_sector(lam, (-math.pi, math.pi, 6.0), 1e-9)
    assert left.count + right.count == disk.count
    assert disk.count == 3
    assert left.reliable and right.reliable and disk.reliable


class _StandIn:
    """f(z) = 1 + z/10 as a solution handle; its ``flag_call``-th evaluation
    comes back flagged."""

    walk = None

    def __init__(self, flag_call=None):
        self.flag_call = flag_call
        self.calls = 0

    def eval_multi(self, z, js, tol):
        self.calls += 1
        flags = ("node_budget_exhausted",) if self.calls == self.flag_call \
            else ()
        return [QuadResult(mantissa=(1 + z / 10, 0.1)[j], log_scale=0.0,
                           est_error=0.0, flags=flags) for j in js]


def test_zero_count_flagged_evaluation_is_unreliable():
    sector = (-math.pi, math.pi, 1.0)
    clean = zero_count_sector(_StandIn(), sector, 1e-9)
    assert clean.count == 0 and clean.reliable
    flagged = zero_count_sector(_StandIn(flag_call=5), sector, 1e-9)
    assert flagged.count == 0 and not flagged.reliable
    assert flagged.raw == clean.raw and flagged.samples == clean.samples


# ----------------------------------------------------------------------------
# the boundary walk keeps its path
# ----------------------------------------------------------------------------

class _FreshPlans:
    """A handle with eval_multi and no walk evaluator, so every sample of a
    zero count plans its own path."""

    walk = None

    def __init__(self, handle):
        self.eval_multi = handle.eval_multi


# the airy sectors perfbench's analysis-sweep draws for seeds 1-3
SEEDED_SECTORS = [
    (2.924298154023325, 3.959791472601853, 4.214834767674064),
    (-1.377161628629107, 0.08010505592144967, 5.244346803368665),
    (3.0228572055928433, 3.7168763181342506, 4.965042138711067),
    (0.9830588041353061, 2.328485466382848, 3.2351393448681915),
    (2.3682478436129712, 3.4070641458166864, 4.424068558803606),
    (-2.228388375134064, -1.1238471673710586, 3.3207997583303057),
]
# criterion 9 and the additivity test
NAMED_SECTORS = [(-math.pi / 2, math.pi / 2, 6.0),
                 (math.pi - 0.2, math.pi + 0.2, 5.0),
                 (math.pi - 0.2, math.pi + 0.2, 6.0),
                 (math.pi / 2, 3 * math.pi / 2, 6.0),
                 (-math.pi, math.pi, 6.0)]
WALK_CASES = ([("airy", s, 1e-10) for s in SEEDED_SECTORS]
              + [("airy", s, 1e-9) for s in NAMED_SECTORS]
              + [(name, s, 1e-9) for name in FIXTURE_NAMES if name != "airy"
                 for s in ((-0.5, 0.5, 4.0), (2.5, 3.5, 4.0))])


@pytest.fixture
def plan_counter(monkeypatch):
    calls = []
    plan = solutions.plan_contour

    def counted(*args):
        calls.append(plan(*args))
        return calls[-1]

    monkeypatch.setattr(solutions, "plan_contour", counted)
    return calls


@pytest.mark.parametrize("name,sector,tol", WALK_CASES)
def test_walk_changes_no_count(problems, plan_counter, name, sector, tol):
    lam = problems(name).lam(0)
    walked = zero_count_sector(lam, sector, tol)
    walk_plans = len(plan_counter)
    fresh = zero_count_sector(_FreshPlans(lam), sector, tol)
    fresh_plans = len(plan_counter) - walk_plans
    assert (walked.count, walked.reliable, walked.samples) == \
        (fresh.count, fresh.reliable, fresh.samples)
    assert abs(walked.raw - fresh.raw) <= 1e-12
    assert fresh_plans == fresh.samples
    if name == "airy":
        assert walk_plans <= fresh_plans / 2


@pytest.mark.parametrize("name", ["airy", "ex7_1"])
def test_walk_values_match_fresh_plans(problems, plan_counter, name):
    """Round |z| = 5 in 400 steps: a value on a kept path agrees with a
    freshly planned one within the two results' error estimates and the
    rounding of sums at their path maxima.  On ex7_1 the walk starts where
    the descent path sweeps a pole, so a kept path must bring its windings
    along."""
    problem = problems(name)
    lam = problem.lam(0)
    points = [5.0 * cmath.exp(2j * math.pi * (k + 0.5) / 400)
              for k in range(400)]
    start = next((k for k, z in enumerate(points)
                  if solutions.plan_contour(problem.kernel, 0, z).windings),
                 0)
    points = points[start:] + points[:start]
    step = lam.walk()
    eps = np.finfo(float).eps
    reused = swept = 0
    for z in points:
        before = len(plan_counter)
        kept = step(z, [0, 1], 1e-10)
        if len(plan_counter) > before:
            path = plan_counter[-1]
        else:
            reused += 1
            swept += bool(path.windings)
        fresh = lam.eval_multi(z, [0, 1], 1e-10)
        for q, f in zip(kept, fresh):
            bound = (q.est_error + 64 * eps) * math.exp(q.log_scale) + \
                (f.est_error + 64 * eps) * math.exp(f.log_scale)
            assert abs(q.value - f.value) <= bound, z
    assert reused >= 200
    if name == "ex7_1":
        assert swept > 0


@pytest.mark.parametrize("name", ["airy", "ex7_1", "ex7_6"])
def test_kept_path_reuses_its_first_pass_exactly(problems, plan_counter,
                                                 monkeypatch, name):
    """Round |z| = 5 in 200 steps, each z sampled twice: a kept path gives
    what a freshly prepared copy of its polygon gives, bit for bit, and
    evaluates kernel points only where it refines.  ex7_1's walk starts on
    a path with windings, and ex7_6's kept paths carry branch anchors."""
    kd = problems(name).kernel
    zs = [5.0 * cmath.exp(2j * math.pi * (k + 0.5) / 200) for k in range(200)]
    start = next((k for k, z in enumerate(zs)
                  if plan_contour(kd, 0, z).windings), 0)
    calls = []      # (polygon, z, js, tol, result, kernel points)
    points = [0]
    log_phi = KernelData.log_phi_with_args
    evaluate = solutions.laplace_eval_multi

    def counted(self, t, args):
        points[0] += len(t)
        return log_phi(self, t, args)

    def recorded(kd, path, z, js, tol):
        before = points[0]
        out = evaluate(kd, path, z, js, tol)
        calls.append((path, z, js, tol, out, points[0] - before))
        return out

    monkeypatch.setattr(KernelData, "log_phi_with_args", counted)
    monkeypatch.setattr(solutions, "laplace_eval_multi", recorded)
    step = problems(name).lam(0).walk()
    for z in zs[start:] + zs[:start]:
        first, again = step(z, [0, 1], 1e-10), step(z, [0, 1], 1e-10)
        assert [vars(q) for q in first] == [vars(q) for q in again], z
    monkeypatch.undo()

    seen, reused, swept = set(), 0, 0
    for pk, z, js, tol, out, evaluated in calls:
        assert isinstance(pk, Polygon)
        if id(pk) not in seen:
            seen.add(id(pk))
            assert evaluated == out[0].nodes_used
            continue
        reused += 1
        swept += bool(pk.windings)
        assert evaluated == out[0].nodes_used - len(_GL_NODES) * len(pk.steps)
        copy = Polygon(kd, pk.vertices, pk.lead_in, pk.windings)
        fresh = laplace_eval_multi(kd, copy, z, js, tol)
        assert [vars(q) for q in out] == [vars(q) for q in fresh], z
        assert all(not a.flags.writeable
                   for a in (*pk._first, pk.vertex_log_phi))
    assert reused >= 200
    assert len(plan_counter) == len(seen)
    if name == "ex7_1":
        assert swept > 0
    if name == "ex7_6":
        assert all(pk.anchors is not None for pk, *_rest in calls)
