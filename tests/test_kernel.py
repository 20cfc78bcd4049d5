import math

import numpy as np
import pytest

from laplace_ode import (FIXTURE_NAMES, GaussRational, OdeSpec, Poly,
                         SpecError, build_kernel, normalize, parse_ode)
from laplace_ode.kernel import continue_args
from laplace_ode.solutions import residue_solutions

from oracles import random_normalized_spec


def log_kernel(kd, pts) -> np.ndarray:
    """log phi at the vertices of a polygon, branch-continued along it from
    principal arguments at the first point."""
    pts = np.asarray(pts, dtype=complex)
    return kd.log_phi_on_sheet(pts, continue_args(kd, pts))


def log_q0_over_q1(kd, t) -> np.ndarray:
    """-(d/dt) log phi = Q0/Q1 + Q1'/Q1 evaluated directly."""
    t = np.asarray(t, dtype=complex)
    q0 = kd.q0.eval_array(t)
    q1 = kd.q1.eval_array(t)
    dq1 = kd.q1.derivative().eval_array(t)
    return -(q0 / q1 + dq1 / q1)


def test_airy_kernel_is_pure_cubic_exponential(airy):
    kd = airy.kernel
    assert kd.poles == []
    assert kd.r0 == Poly.exact([0, 0, 0, GaussRational(1, 0) / 3])
    v = log_kernel(kd, np.array([2.0 + 0j]))
    assert abs(v[0] - 8.0 / 3.0) < 1e-14


def test_fifth_order_kernel_factors(problems):
    kd = problems("ex7_1").kernel
    # exp[t^3/3 + t] / (t^3 (t-1)^3 (t+1)^4)
    assert kd.r0 == Poly.exact([0, 1, 0]) + Poly.exact([0, 0, 0, 1]) * \
        (GaussRational(1) / 3)
    info = {complex(p.location): (p.multiplicity, complex(p.lam),
                                  complex(p.exponent))
            for p in kd.poles}
    assert info == {0j: (1, 2 + 0j, -3 + 0j),
                    1 + 0j: (1, 2 + 0j, -3 + 0j),
                    -1 + 0j: (1, 3 + 0j, -4 + 0j)}
    assert complex(kd.residue_sum) == 7 + 0j
    assert kd.is_single_valued
    assert kd.singular_radius == 1.0


def test_sixth_order_kernel_factors(problems):
    kd = problems("ex7_2").kernel
    # (t^4 + t^2)^-1 exp[t^3/3 - t - 1/t]
    assert kd.r0 == Poly([GaussRational(0), GaussRational(-1), GaussRational(0),
                          GaussRational(1) / 3])
    by_loc = {complex(p.location): p for p in kd.poles}
    p0 = by_loc[0j]
    assert p0.multiplicity == 2 and complex(p0.lam) == 0
    assert [complex(c) for c in p0.r_poly.coeffs] == [0j, -1 + 0j]
    assert p0.is_essential and p0.order_of_q0q1 == 2
    for loc in (1j, -1j):
        p = by_loc[loc]
        assert p.multiplicity == 1 and complex(p.lam) == 0
        assert p.r_poly.is_zero and not p.is_essential


def test_quartic_kernel_factors(problems):
    kd = problems("ex7_3").kernel
    # t^-3 exp[t^2/2 + 1/(2 t^2)]
    assert kd.r0 == Poly([GaussRational(0), GaussRational(0),
                          GaussRational(1) / 2])
    (p,) = kd.poles
    assert p.multiplicity == 3
    assert [complex(c) for c in p.r_poly.coeffs] == [0j, 0j, 0.5 + 0j]


def test_parametrized_kernel_exponents(problems):
    # lambda = 1/4, mu = 1/2: exponents -(1 - 1/4), -(1 + 3/4), -(2 - 1/2)
    kd = problems("ex7_6").kernel
    exps = {complex(p.location): complex(p.exponent) for p in kd.poles}
    assert exps == {0j: -0.75 + 0j, 1 + 0j: -1.75 + 0j, -1 + 0j: -1.5 + 0j}
    assert not kd.is_single_valued
    assert kd.residue_sum_integer == 1
    assert kd.single_valued_outside


def test_build_kernel_requires_normalized():
    spec = parse_ode('{"n":2,"a":[0,0],"b":[1,0]}')    # b_0 = +1, target -1
    with pytest.raises(SpecError, match="normalize"):
        build_kernel(spec)


def test_log_derivative_identity_100_random():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        spec = random_normalized_spec(rng)
        kd = build_kernel(spec)
        pts = rng.normal(3.0, 1.0, 4) + 1j * rng.normal(0.0, 2.0, 4)
        if kd.poles:
            d = np.abs(pts[:, None] - kd._locs[None, :]).min(axis=1)
            pts = pts[d > 0.3]
        if len(pts) == 0:
            continue
        h = 1e-6
        fd = (kd.log_phi_principal(pts + h) -
              kd.log_phi_principal(pts - h)) / (2 * h)
        truth = log_q0_over_q1(kd, pts)
        rel = np.abs(fd - truth) / np.maximum(np.abs(truth), 1.0)
        assert rel.max() < 1e-6
        checked += len(pts)


def test_psi_growth_bound(problems):
    # log phi = t^(m+1)/(m+1) + psi with |psi| <= C |t|^m
    for name in ("airy", "ex7_1", "ex7_2", "ex7_3"):
        kd = problems(name).kernel
        m = kd.m
        lead = Poly([0] * (m + 1) + [1.0 / (m + 1)])
        samples = {}
        for radius in (10.0, 100.0):
            th = (np.arange(16) + 0.5) / 16 * 2 * np.pi
            t = radius * np.exp(1j * th)
            psi = kd.log_phi_principal(t) - lead.eval_array(t)
            samples[radius] = np.abs(psi).max()
        if samples[100.0] < 1e-12:
            continue                      # psi vanishes identically
        slope = math.log(samples[100.0] / samples[10.0]) / math.log(10.0)
        assert slope <= m + 0.1


def test_winding_gain_around_all_poles(problems):
    kd = problems("ex7_1").kernel
    th = np.linspace(0.0, 2 * np.pi, 513)
    v = log_kernel(kd, 2.0 * np.exp(1j * th))
    gain = (v[-1] - v[0]) / (2j * np.pi)
    total = complex(sum(p.multiplicity + complex(p.lam) for p in kd.poles))
    assert abs(gain - (-total)) < 1e-10


def test_single_valued_kernel_closes_on_circle(problems):
    # sum of residues is an integer, so phi returns to its start value
    kd = problems("ex7_6").kernel
    th = np.linspace(0.0, 2 * np.pi, 513)
    v = log_kernel(kd, 2.0 * np.exp(1j * th))
    assert abs(np.exp(v[-1]) - np.exp(v[0])) < 1e-10 * abs(np.exp(v[0]))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pole_predicates_agree_on_exact_and_float_data(problems, name):
    # the same spec with complex coefficients takes the inexact route
    # (float roots, tolerance-based integer tests); each pole must be
    # classified as on the exact route
    exact = problems(name)
    spec = exact.raw_spec
    floats = OdeSpec(n=spec.n, a=tuple(complex(c) for c in spec.a),
                     b=tuple(complex(c) for c in spec.b))
    kd_exact = exact.kernel
    kd_float = build_kernel(normalize(floats)[0])
    assert not any(p.exact for p in kd_float.poles)
    assert len(kd_float.poles) == len(kd_exact.poles)
    for p in kd_exact.poles:
        q = min(kd_float.poles,
                key=lambda q: abs(q.location_complex - p.location_complex))
        assert abs(q.location_complex - p.location_complex) <= 1e-6
        assert (q.multiplicity, q.lam_integer, q.order_of_q0q1,
                q.is_singular, q.is_essential) == \
            (p.multiplicity, p.lam_integer, p.order_of_q0q1,
             p.is_singular, p.is_essential)
    assert kd_float.residue_sum_integer == kd_exact.residue_sum_integer
    # the residue solutions agree too: the complex route computes the exact
    # route's polynomials and exponential scales to rounding
    rs_exact = residue_solutions(kd_exact)
    rs_float = residue_solutions(kd_float)
    assert len(rs_float) == len(rs_exact)
    for r in rs_exact:
        s = min(rs_float, key=lambda s: abs(complex(s.pole) - complex(r.pole)))
        assert s.form == r.form
        assert (s.poly is None) == (r.poly is None)
        assert (s.exp_scale is None) == (r.exp_scale is None)
        if r.poly is not None:
            a = np.array(r.poly.complex_coeffs(), dtype=complex)
            b = np.array(s.poly.complex_coeffs(), dtype=complex)
            n = max(len(a), len(b))
            diff = np.pad(a, (0, n - len(a))) - np.pad(b, (0, n - len(b)))
            assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(a)
        if r.exp_scale is not None:
            want = complex(r.exp_scale)
            assert abs(complex(s.exp_scale) - want) <= 1e-12 * max(1.0, abs(want))


def test_homotopic_paths_agree(problems):
    kd = problems("ex7_6").kernel
    p1 = 3.0 * np.exp(1j * np.linspace(0.0, np.pi, 101))
    p2 = np.concatenate([np.linspace(3.0, 5.0, 21),
                         5.0 * np.exp(1j * np.linspace(0.0, np.pi, 151)),
                         np.linspace(-5.0, -3.0, 21)])
    v1 = log_kernel(kd, p1)
    v2 = log_kernel(kd, p2)
    assert abs(np.exp(v1[-1]) - np.exp(v2[-1])) < 1e-9 * abs(np.exp(v1[-1]))


def test_clearance_enforced(problems):
    kd = problems("ex7_1").kernel
    from laplace_ode import ContourError
    with pytest.raises(ContourError):
        log_kernel(kd, np.array([2.0 + 0j, 1.0 + 1e-9j, 2.0 + 2j]))
