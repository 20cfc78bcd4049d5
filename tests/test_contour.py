import cmath
import decimal
import math
import numpy as np
import pytest

from laplace_ode import (Contour, ContourError, NumericError, Problem,
                         canonical_contour, combine_linear, contour, kernel,
                         lambda_solution, laplace_eval, laplace_eval_multi,
                         plan_contour, truncation_bound)
from laplace_ode.contour import (DEFAULT_TOL, Polygon, QuadResult, _Edges,
                                 _interval_nodes, _interval_sums, _polygon,
                                 laplace_eval_batch)
from laplace_ode.kernel import polygon_distances
from laplace_ode.odespec import OdeSpec
from laplace_ode.problem import FIXTURE_NAMES
from laplace_ode.scalars import GaussRational

from oracles import airy_derivative, airy_value


def test_canonical_contour_airy(airy):
    kd = airy.kernel
    c = canonical_contour(kd, 0)
    assert c.radius == 0.0
    # counterclockwise run: in along -pi/3, out along +pi/3
    assert abs(c.alpha + math.pi / 3) < 1e-15
    assert abs(c.beta - math.pi / 3) < 1e-15
    c1 = canonical_contour(kd, 1)
    assert abs(c1.alpha - math.pi / 3) < 1e-15
    assert abs(c1.beta - math.pi) < 1e-15


def test_canonical_contour_quartic(problems):
    kd = problems("ex7_3").kernel
    c = canonical_contour(kd, 0)
    assert c.radius == 1.0
    assert abs(abs(c.alpha) - math.pi / 2) < 1e-15
    assert abs(abs(c.beta) - math.pi / 2) < 1e-15


def test_canonical_contour_bounds(problems):
    kd = problems("airy").kernel
    with pytest.raises(ContourError):
        canonical_contour(kd, 3)


def test_decay_condition_rejected(airy):
    kd = airy.kernel
    # rays at +-pi/6 sit exactly on the decay boundary for m + 1 = 3
    c = Contour(radius=0.0, alpha=-math.pi / 6, beta=math.pi / 6)
    with pytest.raises(ContourError, match="decay"):
        laplace_eval(kd, c, 0.0, 0)


def test_radius_must_clear_poles(problems):
    kd = problems("ex7_1").kernel
    c = Contour(radius=0.5, alpha=-math.pi / 3, beta=math.pi / 3)
    with pytest.raises(ContourError, match="singular"):
        laplace_eval(kd, c, 0.0, 0)


def test_user_contour_just_outside_a_large_singular_radius():
    """A pole at 8 and a contour of radius 8.05: the chords of its arc must
    not sag past the pole, or the polygon would leave it outside."""
    # a simple pole (single-valued) and a branch point at 8
    for a0 in (GaussRational(0), GaussRational(1, 2)):
        spec = OdeSpec(n=2, a=(a0, GaussRational(8)),
                       b=(GaussRational(8), GaussRational(1)))
        kd = Problem(spec).kernel
        assert kd.singular_radius == 8.0 and kd.poles[0].is_singular
        c0 = canonical_contour(kd, 0)
        c = Contour(radius=8.05, alpha=c0.alpha, beta=c0.beta)
        for z in (0.5, 2.0, -1.0 + 1.0j):
            a = laplace_eval(kd, c0, z, 0, 1e-10)
            b = laplace_eval(kd, c, z, 0, 1e-10)
            assert not a.flags and not b.flags
            rel = abs(a.mantissa * math.exp(a.log_scale - b.log_scale)
                      - b.mantissa) / abs(b.mantissa)
            assert rel < 1e-9, (a0, z)


def test_truncation_bound_airy_example(airy):
    kd = airy.kernel
    c = canonical_contour(kd, 0)
    t16 = truncation_bound(kd, c, 0.0, 1e-16)
    assert 4.5 <= t16 <= 9.0          # the bound solves near 6.1
    t8 = truncation_bound(kd, c, 0.0, 1e-8)
    assert t8 <= t16
    t_big = truncation_bound(kd, c, 8.0, 1e-16)
    assert t_big >= t16               # monotone in |z|


def _per_ray_truncation(kd, c, z, tol):
    """``truncation_bound`` as a search of one ray at a time, 160 profile
    points per doubling."""
    contour.check_decay(kd, c)
    drop = -math.log(max(tol, 1e-300)) + 40.0
    t_max = c.radius + 1.0
    r0 = max(c.radius, 1.0, 2.0 * kd.singular_radius + 1.0)
    for angle in (c.alpha, c.beta):
        hi = r0 * 2.0
        for _ in range(200):
            r = np.geomspace(max(r0 * 0.5, 1e-3), hi, 160)
            g = kd.log_magnitude_bound(r * np.exp(1j * angle)) + abs(z) * r
            below = np.nonzero((g <= g.max() - drop) &
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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_truncation_bound_matches_per_ray_search(problems, name):
    # both rays profiled in one kernel call per doubling, each on the grid
    # the per-ray search gives it: the same length to the bit
    kd = problems(name).kernel
    zs = [0.0] + [r * cmath.exp(2j * math.pi * (k + 0.3) / 8)
                  for r in (0.005, 3.0, 20.0, 40.0) for k in range(8)]
    for nu in range(kd.m + 1):
        c = canonical_contour(kd, nu)
        for z in zs:
            for tol in (1e-8, 1e-10, 1e-14, 1e-16):
                assert truncation_bound(kd, c, z, tol) == \
                    _per_ray_truncation(kd, c, z, tol), (nu, z, tol)


@pytest.mark.parametrize("flat", ["alpha", "beta", "both"])
def test_truncation_names_the_ray_that_does_not_decay(airy, monkeypatch,
                                                      flat):
    # a bound that stays 0 on one ray, or both, where |e^(-zt)| <= e^(|z|r)
    # keeps rising: the first ray that never falls is named, as the per-ray
    # search names it
    kd = airy.kernel
    c = canonical_contour(kd, 0)        # in at -pi/3, out at pi/3
    bound = kd.log_magnitude_bound

    def flat_bound(t):
        t = np.asarray(t)
        on = {"alpha": t.imag < 0, "beta": t.imag > 0, "both": t.imag != 0}
        return np.where(on[flat], 0.0, bound(t))

    monkeypatch.setattr(kd, "log_magnitude_bound", flat_bound)
    ray = "%.4f" % (c.beta if flat == "beta" else c.alpha)
    for search in (truncation_bound, _per_ray_truncation):
        with pytest.raises(ContourError, match="along ray %s$" % ray):
            search(kd, c, 2.0, 1e-10)


def test_airy_values_against_oracle(airy):
    kd = airy.kernel
    c = canonical_contour(kd, 0)
    for x in (0.0, 1.0, 2.0):
        got = laplace_eval(kd, c, x, 0, 1e-12).value
        want = airy_value(x)
        assert abs(got - want) <= 1e-9 * abs(want)
        got1 = laplace_eval(kd, c, x, 1, 1e-12).value
        want1 = airy_derivative(x)
        assert abs(got1 - want1) <= 1e-9 * abs(want1)


def test_contour_independence(airy):
    kd = airy.kernel
    c1 = canonical_contour(kd, 0)
    c2 = Contour(radius=2.0, alpha=-0.4 * math.pi, beta=0.4 * math.pi)
    for z in (0.0, 2.0, 2j, -3.0):
        a = laplace_eval(kd, c1, z, 0, 1e-12)
        b = laplace_eval(kd, c2, z, 0, 1e-12)
        assert abs(a.value - b.value) <= 1e-9 * abs(a.value)


def test_derivative_consistency(problems):
    kd = problems("ex7_5").kernel
    c = canonical_contour(kd, 0)
    rng = np.random.default_rng(5)
    pts = rng.normal(0, 1.2, 10) + 1j * rng.normal(0, 1.2, 10)
    h = 1e-5
    for z in pts:
        d = laplace_eval(kd, c, z, 1, 1e-11)
        f_p = laplace_eval(kd, c, z + h, 0, 1e-11)
        f_m = laplace_eval(kd, c, z - h, 0, 1e-11)
        fd = combine_linear([(1.0 / (2 * h), f_p), (-1.0 / (2 * h), f_m)])
        scale = math.exp(fd.log_scale - d.log_scale)
        rel = abs(fd.mantissa * scale - d.mantissa) / abs(d.mantissa)
        assert rel <= 1e-5


def test_shared_scale_across_derivatives(problems):
    kd = problems("ex7_2").kernel
    c = canonical_contour(kd, 0)
    rs = laplace_eval_multi(kd, c, 1.0 + 0.5j, [0, 1, 2, 3], 1e-10)
    assert len({r.log_scale for r in rs}) == 1
    assert all(r.est_error <= 1e-9 * abs(r.mantissa) + 1e-300 for r in rs)


def _counting_kernel_points(monkeypatch):
    """A one-item list that counts the kernel points every path evaluates,
    on its own edges or on the edge table its first pass shares."""
    seen = [0]
    log_phi = _Edges.log_phi

    def counted(self, k, t):
        seen[0] += len(t)
        return log_phi(self, k, t)
    monkeypatch.setattr(_Edges, "log_phi", counted)
    return seen


def _is_canonical(kd, nu, z, path, tol=DEFAULT_TOL):
    """Whether ``path`` is the canonical contour's polygon for z and tol,
    vertex for vertex: where the planner found no descent path."""
    canonical = _polygon(kd, canonical_contour(kd, nu), z, tol)
    return np.array_equal(path.vertices, canonical.vertices)


# the canonical cells of ex7_6 whose values cancel 8.3 digits: K21 and G10
# meet at rounding level before they meet tol 1e-10
EX7_6_NOISY = complex(-19.11, 5.91)


def test_node_budget_flag(airy, monkeypatch):
    # the fixed canonical contour cannot resolve z = 40 within 100 nodes:
    # less than its first pass of one interval per edge, so no kernel point
    # is evaluated
    kd = airy.kernel
    c = canonical_contour(kd, 0)
    seen = _counting_kernel_points(monkeypatch)
    r = laplace_eval(kd, c, 40.0, 0, 1e-10, node_budget=100)
    assert "node_budget_exhausted" in r.flags
    assert r.nodes_used == seen[0] == 0 and r.rel_error() == math.inf


@pytest.mark.parametrize("budget", [20000, 3000])
def test_node_budget_holds(problems, monkeypatch, budget):
    kd = problems("ex7_6").kernel
    seen = _counting_kernel_points(monkeypatch)
    q = laplace_eval(kd, plan_contour(kd, 0, EX7_6_NOISY), EX7_6_NOISY, 0,
                     node_budget=budget)
    assert q.flags
    assert q.nodes_used == seen[0] <= budget


def test_rounding_floor_stops_refinement(problems):
    # Lambda_0 of a real kernel on the real-symmetric canonical contour:
    # Lambda_0(conj z) = conj Lambda_0(z).  Both cells stop at the rounding
    # floor, flagged, long before the node budget, and still agree within
    # their error estimates.
    kd = problems("ex7_6").kernel
    got = []
    for z in (EX7_6_NOISY, EX7_6_NOISY.conjugate()):
        c = plan_contour(kd, 0, z)
        assert _is_canonical(kd, 0, z, c)
        q = laplace_eval(kd, c, z, 0)
        assert q.flags == ("refinement_stalled",)
        assert q.nodes_used < 10000
        got.append(q)
    a, b = got
    gap = abs(a.mantissa * math.exp(a.log_scale - b.log_scale)
              - b.mantissa.conjugate())
    assert gap <= a.est_error * math.exp(a.log_scale - b.log_scale) \
        + b.est_error


@pytest.mark.parametrize("z", [3.0, -4.0 + 2.0j])
def test_descent_path_starts_with_one_interval_per_edge(airy, monkeypatch, z):
    # airy has no poles, so the path is the traced chain as it stands; an
    # evaluation that meets tol in its first round pays one interval's
    # kernel points per traced edge
    kd = airy.kernel
    saddles, trace = contour._trace_saddles(
        kd, z * cmath.exp(1j * contour.Z_TILT))
    chain = contour._saddle_chain(trace, len(saddles), kd.m, 0)
    traced = [v for _i, points in chain for v in points]
    path = plan_contour(kd, 0, z)
    assert isinstance(path, Polygon)
    assert np.array_equal(path.vertices, traced)
    seen = _counting_kernel_points(monkeypatch)
    q = laplace_eval(kd, path, z, 0)
    assert q.flags == () and q.rel_error() <= contour.DEFAULT_TOL
    width = len(contour._GL_NODES)
    assert q.nodes_used == seen[0] == width * (len(traced) - 1)


@pytest.mark.parametrize("name, modulus", [
    ("airy", 0.005),            # the zero counter's sector apex
    ("ex7_1", 0.3), ("ex7_5", 0.3)])
def test_fallback_before_the_trace_traces_nothing(problems, monkeypatch,
                                                  name, modulus):
    # every saddle lies within singular_radius + 1, so every chain would be
    # refused: the canonical contour serves and no curve is traced
    kd = problems(name).kernel
    trace_saddles, traced = contour._trace_saddles, []

    def counting(*args):
        saddles, trace = trace_saddles(*args)
        return saddles, lambda i: traced.append(i) or trace(i)

    monkeypatch.setattr(contour, "_trace_saddles", counting)
    for k in range(8):
        z = modulus * cmath.exp(2j * math.pi * (k + 0.5) / 8)
        for nu in range(kd.m + 1):
            assert _is_canonical(kd, nu, z, plan_contour(kd, nu, z))
    assert traced == []


def test_plan_contour_small_z_is_canonical(airy):
    # the rays at -pi/3 and pi/3 meet at 0: airy has no poles, so radius 0
    kd = airy.kernel
    c = plan_contour(kd, 0, 0.5)
    assert _is_canonical(kd, 0, 0.5, c)
    apex = np.argmin(np.abs(c.vertices))
    assert c.vertices[apex] == 0
    assert np.allclose(np.angle(c.vertices[:apex]), -math.pi / 3,
                       rtol=0, atol=1e-12)
    assert np.allclose(np.angle(c.vertices[apex + 1:]), math.pi / 3,
                       rtol=0, atol=1e-12)


def test_canonical_contour_is_truncated_per_evaluation(airy):
    # a Contour is its shape alone: integrated directly, the canonical
    # contour gives bit for bit what Lambda_0 gives where it falls back to it
    kd, z = airy.kernel, 0.5
    assert _is_canonical(kd, 0, z, plan_contour(kd, 0, z))
    got = laplace_eval_multi(kd, canonical_contour(kd, 0), z, [0, 1])
    want = lambda_solution(kd, 0).eval_multi(z, [0, 1])
    assert [vars(q) for q in got] == [vars(q) for q in want]


def test_plan_contour_matches_canonical_value(problems):
    # through lambda_solution, so the residues of swept poles are included;
    # the later points make the descent paths of the pole fixtures sweep
    # poles
    points = (0.7, -2.0 + 1.0j, 8.0, 20j)
    swept_points = (-2.0 + 1.0j, 20j, -4.0j, 5.0 * cmath.exp(2.5j))
    cases = [("airy", points), ("ex7_2", points + swept_points[3:]),
             ("ex7_1", swept_points[2:]), ("ex7_3", swept_points),
             ("ex7_5", swept_points)]
    swept = 0
    for name, zs in cases:
        kd = problems(name).kernel
        lam = lambda_solution(kd, 0)
        for z in zs:
            swept += bool(plan_contour(kd, 0, z).windings)
            a = laplace_eval(kd, canonical_contour(kd, 0), z, 0, 1e-11)
            b = lam.eval(z, 0, 1e-11)
            assert abs(a.log_abs() - b.log_abs()) < 1e-7
            rel = abs(a.mantissa * math.exp(a.log_scale - b.log_scale)
                      - b.mantissa) / abs(b.mantissa)
            assert rel < 1e-7
    assert swept >= 8


def test_ex7_6_path_sweeps_no_branch_point(problems):
    # a many-valued kernel keeps the canonical contour wherever a descent
    # path would sweep a pole, so each path it takes gives the canonical value
    kd = problems("ex7_6").kernel
    descents = 0
    for nu in range(kd.m + 1):
        for z in (3.0, 4.0j, -5.0 + 1.0j, 8.0 * cmath.exp(0.3j), 12.0j):
            path = plan_contour(kd, nu, z)
            if _is_canonical(kd, nu, z, path):
                continue
            assert path.windings == ()
            descents += 1
            a = laplace_eval(kd, canonical_contour(kd, nu), z, 0, 1e-11)
            b = laplace_eval(kd, path, z, 0, 1e-11)
            rel = abs(a.mantissa * math.exp(a.log_scale - b.log_scale)
                      - b.mantissa) / abs(b.mantissa)
            assert rel < 1e-7, (nu, z)
    assert descents


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_planner_returns_one_path_type(problems, name):
    # a prepared polygon in every cell: the descent path where there is
    # one, else the canonical contour's polygon, which integrates field for
    # field as the Contour itself does
    kd = problems(name).kernel
    tol = 1e-8
    zs = [r * cmath.exp(2j * math.pi * (k + 0.5) / 8)
          for r in (0.005, 0.3, 3.0, 20.0, 40.0) for k in range(8)]
    if name == "ex7_6":
        zs.append(EX7_6_NOISY)
    fallbacks = 0
    for nu in range(kd.m + 1):
        for z in zs:
            path = plan_contour(kd, nu, z, tol)
            assert isinstance(path, Polygon)
            descent = contour._descent_path(kd, nu, z)
            if descent is not None:
                assert np.array_equal(path.vertices, descent.vertices)
                continue
            fallbacks += 1
            assert _is_canonical(kd, nu, z, path, tol), (nu, z)
            assert path.windings == ()
            got = laplace_eval_multi(kd, path, z, [0, 1], tol)
            want = laplace_eval_multi(kd, canonical_contour(kd, nu), z,
                                      [0, 1], tol)
            assert [vars(q) for q in got] == [vars(q) for q in want], (nu, z)
    assert fallbacks


def test_large_z_log_scale_is_referenced_to_path_max(airy):
    kd = airy.kernel
    z = 40.0
    c = plan_contour(kd, 0, z)
    q = laplace_eval(kd, c, z, 0, 1e-10)
    want = -(2.0 / 3.0) * z ** 1.5
    assert abs(q.log_abs() - want) < 0.05 * abs(want)
    assert q.rel_error() < 1e-8


def test_large_positive_z_log_law(problems):
    # log|value| * rho / z^rho approaches -1 on the positive axis
    cases = (("ex7_3", 2.0, 25.0), ("cubic_airy", 4.0 / 3.0, 40.0))
    for name, rho, x in cases:
        kd = problems(name).kernel
        c = plan_contour(kd, 0, x)
        q = laplace_eval(kd, c, x, 0, 1e-9)
        ratio = q.log_abs() * rho / x ** rho
        assert abs(ratio + 1.0) < 0.06


@pytest.mark.parametrize("name, z", [("ex7_5", 1e18j), ("airy", 1e300)])
def test_huge_z_returns_a_result_or_a_numeric_error(problems, name, z):
    # at ex7_5's 1e18i the trace's first step rounds back onto its saddle,
    # where no slope is left, and the canonical contour serves; at 1e300
    # the ray profile |z| r would overflow.  pyproject turns a
    # RuntimeWarning into an error
    try:
        q = problems(name).lam(0).eval(z)
    except NumericError:
        return
    assert math.isfinite(abs(q.mantissa))


def test_overflowing_derivative_order_is_a_numeric_error(airy):
    # airy's path at z = 2 reaches |t| = 5.5, and 420 ln 5.5 > ln DBL_MAX:
    # (-t)^420 would overflow, so both entry points refuse it before summing
    lam = airy.lam(0)
    (q,) = lam.eval_multi(2, [400])
    assert math.isfinite(abs(q.mantissa)) and math.isfinite(q.est_error)
    pk = plan_contour(airy.kernel, 0, 2)
    assert 420 * pk.log_reach > 709.8 > 400 * pk.log_reach
    with pytest.raises(NumericError, match="420"):
        lam.eval_multi(2, [420])
    with pytest.raises(NumericError, match="420"):
        laplace_eval_multi(airy.kernel, pk, 2, [0, 420])
    with pytest.raises(NumericError, match="420"):
        laplace_eval_batch([pk, pk], [2, 3], [420])
    with pytest.raises(NumericError, match="420"):
        lam.eval_many([2, 3], [420])


def test_truncation_bound_refuses_an_overflowing_profile(airy):
    kd = airy.kernel
    with pytest.raises(ContourError, match="overflows"):
        truncation_bound(kd, canonical_contour(kd, 0), 1e300, 1e-8)


def test_kronrod_rule_constants():
    # K21 integrates x^k exactly on [-1, 1] through k = 31 and no further;
    # its nodes at _G10, with their Gauss weights, are the 10-point Gauss
    # rule, and the 11 nodes Kronrod adds carry Gauss weight 0; both rules
    # are symmetric about 0
    x, w, wg = contour._GL_NODES, contour._GL_WEIGHTS, contour._G10_WEIGHTS
    assert len(x) == 21
    for k in range(33):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert (abs(w @ x ** k - exact) <= 1e-15) == (k <= 31), k
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.abs(x[contour._G10] - gx).max() <= 2e-16
    assert np.abs(wg[contour._G10] - gw).max() <= 2e-16
    assert not np.delete(wg, contour._G10).any()
    for a in (x, w, wg):
        assert np.array_equal(a, (-1 if a is x else 1) * a[::-1])
    assert np.all(np.diff(x) > 0)


@pytest.mark.parametrize("name, arg", [("airy", 0.7), ("ex7_6", 2.0)])
def test_eval_intervals_rows_are_independent(problems, name, arg):
    # one kernel call over every interval gives each row the numbers it
    # gets in any other batch, bit for bit, and so does one sums call with
    # a z per row
    kd = problems(name).kernel
    z = 20.0 * cmath.exp(1j * arg)
    pk = plan_contour(kd, 0, z)
    # three intervals per edge, each [a, b] in the edge's own coordinate
    k = np.repeat(np.arange(len(pk.steps)), 3)
    a = np.tile([0.0, 1 / 3, 2 / 3], len(pk.steps))
    b = np.tile([1 / 3, 2 / 3, 1.0], len(pk.steps))
    js, cut = [0, 1, 2], len(k) // 3
    zs = np.where(np.arange(len(k)) < cut, z, 0.5 * z)
    whole = _interval_sums(zs, js, *_interval_nodes(pk, k, a, b))
    parts = [_interval_sums(zs[rows], js,
                            *_interval_nodes(pk, k[rows], a[rows], b[rows]))
             for rows in (slice(None, cut), slice(cut, None))]
    for w, first, rest in zip(whole, *parts):
        assert np.array_equal(w, np.concatenate([first, rest]))


def test_tolerance_below_floor_rejected_before_evaluation(airy, monkeypatch):
    def not_called(*_args, **_kwargs):
        raise AssertionError("evaluated before the tolerance was checked")
    monkeypatch.setattr(contour, "_interval_nodes", not_called)
    monkeypatch.setattr(contour, "_interval_sums", not_called)
    kd = airy.kernel
    c = canonical_contour(kd, 0)
    with pytest.raises(ValueError, match="tol"):
        laplace_eval_multi(kd, c, 0.5, [0], tol=1e-300, node_budget=10**9)
    with pytest.raises(ValueError, match="tol"):
        laplace_eval_multi(kd, c, 0.5, [0], tol=math.nan)


@pytest.mark.parametrize("name, nu, z", [
    ("ex7_6", 0, 3.0),          # canonical
    ("ex7_6", 0, 4.0j),         # a detoured candidate, then canonical
    ("ex7_6", 0, 6.0),          # descent: branch anchors from the lead-in
    ("ex7_1", 0, -5.0 + 1.0j),  # descent sweeping three poles
    ("airy", 0, 3.0),           # no poles, nothing to measure
])
def test_each_polygon_is_measured_once(problems, monkeypatch, name, nu, z):
    # the planner's distance pass clears its polygon for the evaluation and
    # the branch continuation; a canonical polygon is measured once, when it
    # is built
    kd = problems(name).kernel
    canonical = _is_canonical(kd, nu, z, plan_contour(kd, nu, z))
    measure, descent = kernel.polygon_distances, contour._descent_path
    passes = {"plan": 0, "prepare": 0}
    where = ["prepare"]

    def spy(vertices, points):
        passes[where[-1]] += 1
        return measure(vertices, points)

    def planning(*args):
        where.append("plan")
        try:
            return descent(*args)
        finally:
            where.pop()

    monkeypatch.setattr(kernel, "polygon_distances", spy)
    monkeypatch.setattr(contour, "polygon_distances", spy)
    monkeypatch.setattr(contour, "_descent_path", planning)
    lambda_solution(kd, nu).eval_multi(z, [0, 1])
    assert passes["prepare"] == canonical
    if name == "airy":
        assert passes["plan"] == 0


@pytest.mark.parametrize("name", ["ex7_6", "ex7_1"])
def test_user_polygon_within_clearance_is_refused(problems, name):
    # a chord 5e-4 above the pole at 0, whose clearance is 1e-3; and on the
    # many-valued kernel, a clear polygon whose lead-in is not: refused when
    # it is built
    kd = problems(name).kernel
    near = np.array([-0.5 + 5e-4j, 0.5 + 5e-4j])
    clear = np.array([-0.5 + 0.5j, 0.5 + 0.5j])
    with pytest.raises(ContourError):
        Polygon(kd, near)
    if not kd.is_single_valued:
        with pytest.raises(ContourError):
            Polygon(kd, clear, np.array([0.5 + 5e-4j, -0.5 + 5e-4j, clear[0]]))


def test_descent_path_detours_leave_every_disk_and_clear_every_pole(
        problems, monkeypatch):
    # ex7_2 at nu = 2: the traced chain passes 0.77 from -i, and its detour
    # around the essential pole's disk at 0 brings it within 0.08, inside
    # the disk at -i; each disk is tested on the polygon as it stands after
    # the detours before it
    kd = problems("ex7_2").kernel
    detour = contour._detour
    centers = []

    def spy(vertices, center, radius):
        centers.append(center)
        return detour(vertices, center, radius)

    monkeypatch.setattr(contour, "_detour", spy)
    path = contour._descent_path(kd, 2, 6.0 * cmath.exp(1j * math.pi / 32))
    assert isinstance(path, Polygon)
    assert centers == [0j, -1j]
    dist = polygon_distances(path.vertices, kd._locs)
    # the arcs are chords of their circles, each spanning at most ARC_STEP
    sag = math.cos(contour.ARC_STEP / 2)
    for d, (center, radius) in zip(dist, contour._pole_disks(kd)):
        assert d >= radius * sag, (center, d, radius)
    assert (dist >= kd.clearance()).all()


def _exact_value(mantissa, log_scale):
    """mantissa * e^log_scale, each component rounded once to double."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        factor = decimal.Decimal(log_scale).exp()
        return [float(decimal.Decimal(x) * factor)
                for x in (mantissa.real, mantissa.imag)]


@pytest.mark.parametrize("mantissa, log_scale", [
    (1e-10 + 0j, 705.0),            # 1.5e296
    (-3 + 0j, 710.0),               # overflows, negative
    (1e-300 - 2e-290j, 1000.0),
    (1e-10 + 1e-300j, 1000.0),      # the real part alone overflows
    (2.5 - 1j, 700.0)])
def test_quad_result_value_above_log_scale_700(mantissa, log_scale):
    got = QuadResult(mantissa, log_scale, 0.0).value
    for part, want in zip((got.real, got.imag),
                          _exact_value(mantissa, log_scale)):
        if math.isinf(want):
            assert part == want
        else:
            assert math.isclose(part, want, rel_tol=4 * np.finfo(float).eps)
    if log_scale <= 700.0:
        assert got == mantissa * math.exp(log_scale)
