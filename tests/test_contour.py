import cmath
import math
import numpy as np
import pytest

from laplace_ode import (Contour, ContourError, Problem, canonical_contour,
                         combine_linear, contour, kernel, lambda_solution,
                         laplace_eval, laplace_eval_multi, plan_contour,
                         truncation_bound)
from laplace_ode.contour import (Polygon, _interval_nodes, _interval_sums,
                                 _PathKernel, _polygon)
from laplace_ode.kernel import polygon_distances
from laplace_ode.odespec import OdeSpec
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
    """A one-item list that counts the kernel points every path evaluates."""
    seen = [0]
    log_phi = contour._PathKernel.log_phi

    def counted(self, k, t):
        seen[0] += len(t)
        return log_phi(self, k, t)
    monkeypatch.setattr(contour._PathKernel, "log_phi", counted)
    return seen


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
        assert isinstance(c, Contour)
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
    _saddles, pieces = contour._trace_saddles(
        kd, z * cmath.exp(1j * contour.Z_TILT))
    traced = [v for _i, points in contour._saddle_chain(pieces, kd.m, 0)
              for v in points]
    path = plan_contour(kd, 0, z)
    assert isinstance(path, Polygon)
    assert np.array_equal(path.vertices, traced)
    seen = _counting_kernel_points(monkeypatch)
    q = laplace_eval(kd, path, z, 0)
    assert q.flags == () and q.rel_error() <= contour.DEFAULT_TOL
    width = len(contour._GL_NODES)
    assert q.nodes_used == seen[0] == width * (len(traced) - 1)


def test_plan_contour_small_z_is_canonical(airy):
    kd = airy.kernel
    c = plan_contour(kd, 0, 0.5)
    assert c.radius == 0.0
    assert abs(c.alpha + math.pi / 3) < 1e-12
    assert abs(c.beta - math.pi / 3) < 1e-12


def test_canonical_contour_is_truncated_per_evaluation(airy):
    # a Contour is its shape alone: integrated directly, the canonical
    # contour gives bit for bit what Lambda_0 gives where it falls back to it
    kd, z = airy.kernel, 0.5
    assert plan_contour(kd, 0, z) == canonical_contour(kd, 0)
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
            path = plan_contour(kd, 0, z)
            swept += isinstance(path, Polygon) and bool(path.windings)
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
            if isinstance(path, Contour):
                continue
            assert path.windings == ()
            descents += 1
            a = laplace_eval(kd, canonical_contour(kd, nu), z, 0, 1e-11)
            b = laplace_eval(kd, path, z, 0, 1e-11)
            rel = abs(a.mantissa * math.exp(a.log_scale - b.log_scale)
                      - b.mantissa) / abs(b.mantissa)
            assert rel < 1e-7, (nu, z)
    assert descents


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
    # gets in any other batch, bit for bit
    kd = problems(name).kernel
    z = 20.0 * cmath.exp(1j * arg)
    path = plan_contour(kd, 0, z)
    if isinstance(path, Contour):
        path = _polygon(kd, path, z, truncation_bound(kd, path, z, 1e-8))
    pk = _PathKernel(kd, path)
    # three intervals per edge, so no interval straddles a vertex
    cuts = np.linspace(0.0, 1.0, 3 * len(pk.steps) + 1)
    u, v, js = cuts[:-1], cuts[1:], [0, 1, 2]
    whole = _interval_sums(z, js, *_interval_nodes(pk, u, v))
    cut = len(u) // 3
    parts = [_interval_sums(z, js, *_interval_nodes(pk, u[rows], v[rows]))
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
    # the branch continuation; a canonical polygon is measured once when it
    # is prepared
    kd = problems(name).kernel
    canonical = isinstance(plan_contour(kd, nu, z), Contour)
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
    # many-valued kernel, a clear polygon whose lead-in is not
    kd = problems(name).kernel
    near = np.array([-0.5 + 5e-4j, 0.5 + 5e-4j])
    clear = np.array([-0.5 + 0.5j, 0.5 + 0.5j])
    paths = [Polygon(vertices=near, lead_in=near[:1], windings=())]
    if not kd.is_single_valued:
        paths.append(Polygon(vertices=clear, windings=(),
                             lead_in=np.array([0.5 + 5e-4j, -0.5 + 5e-4j,
                                               clear[0]])))
    for path in paths:
        with pytest.raises(ContourError):
            laplace_eval_multi(kd, path, 1.0, [0])


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
