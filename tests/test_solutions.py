import cmath
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from laplace_ode import (GaussRational, NumericError, Poly, ResidueError,
                         check_solution, closed_form_solution, combine_linear,
                         empirical_growth, independence_check, lambda_solution,
                         parse_closed_form, residue_solution, residue_solutions,
                         symmetry_check, symmetry_sum)
from laplace_ode.contour import circle_eval_multi

from oracles import airy_value


def _ratio_is_constant(poly, reference):
    assert poly.degree == len(reference) - 1
    ratios = set()
    for c, r in zip(poly.coeffs, reference):
        if r == 0:
            assert complex(c) == 0
        else:
            ratios.add(complex(c) / r)
    assert len(ratios) == 1
    return ratios.pop()


def test_lambda_solution_is_airy(airy):
    lam = airy.lam(0)
    for x in (0.0, 1.0):
        assert abs(lam.value(x, 1e-11) - airy_value(x)) < 1e-10


def test_airy_rotational_sum_vanishes(airy):
    kd = airy.kernel
    lams = [lambda_solution(kd, nu) for nu in range(3)]
    for z in (0.0, 1.0, 1j, -2.0):
        parts = [h.eval(z, 0, 1e-11) for h in lams]
        total = combine_linear([(1.0, p) for p in parts])
        scale = max(p.log_scale + math.log(max(abs(p.mantissa), 1e-300))
                    for p in parts)
        assert abs(total.mantissa) * math.exp(total.log_scale - scale) < 1e-10


def test_lambda_decays_right_grows_left(problems):
    lam = problems("airy").lam(0)
    right = lam.eval(9.0, 0, 1e-9).log_abs()
    left = lam.eval(-9.0, 0, 1e-9).log_abs()
    assert right < -15                  # ~ -(2/3) 9^(3/2) = -18
    assert left > -8                    # oscillatory, polynomially small


def test_residue_polynomial_fifth_order(problems):
    prob = problems("ex7_1")
    rs = residue_solution(prob.kernel, 0)
    assert rs.form == "polynomial"
    const = _ratio_is_constant(rs.poly, [7, 0, 1])
    assert const != 0
    rep = check_solution(prob.spec, rs.handle, [0.3], 1e-10)
    assert rep["exact"] and rep["max_residual"] == 0.0


def test_residue_exponential_fifth_order(problems):
    prob = problems("ex7_1")
    rs = residue_solution(prob.kernel, -1)
    assert rs.form == "exp_times_entire"
    const = _ratio_is_constant(rs.poly, [-635, 264, -39, 2])
    assert const == complex(GaussRational(Fraction(-1, 96)))
    assert complex(rs.handle.exp_factor) == 1.0          # e^{+z} factor
    rep = check_solution(prob.spec, rs.handle, [0.3], 1e-10)
    assert rep["exact"] and rep["max_residual"] == 0.0

    rs = residue_solution(prob.kernel, 1)
    const = _ratio_is_constant(rs.poly, [15, 6, 1])
    rep = check_solution(prob.spec, rs.handle, [0.3], 1e-10)
    assert rep["max_residual"] == 0.0


def test_residue_polynomial_ex5(problems):
    prob = problems("ex7_5")
    rs = residue_solution(prob.kernel, 0)
    _ratio_is_constant(rs.poly, [8, 0, 1])
    rep = check_solution(prob.spec, rs.handle, [1.0], 1e-10)
    assert rep["exact"] and rep["max_residual"] == 0.0


def test_residue_identically_zero():
    # w'' + z w' + w = 0: kernel is entire (exponent 0 at the origin),
    # so the residue solution vanishes
    from laplace_ode import Problem
    prob = Problem.from_text('{"n":2,"a":[1,0],"b":[0,1]}')
    kd = prob.kernel
    (pole,) = kd.poles
    assert complex(pole.lam) == -1
    assert not pole.is_singular
    rs = residue_solution(kd, 0)
    assert rs.form == "identically_zero"
    assert rs.handle.value(1.0) == 0


def test_gaussian_solution_of_ex7_4(problems):
    # w = e^{-z^2/2} solves w'' + z w' + w = 0 (direct substitution),
    # and the distinguished solution is proportional to it
    prob = problems("ex7_4")
    for z in (0.3, 1.0 + 0.5j, -1.2j):
        w = cmath.exp(-z * z / 2)
        wp = -z * w
        wpp = (z * z - 1) * w
        assert abs(wpp + z * wp + w) < 1e-14
    lam = prob.lam(0)
    ratios = []
    for z in (0.0, 0.8, 1.0 + 0.5j):
        val = lam.value(z, 1e-11)
        ratios.append(val / cmath.exp(-z * z / 2))
    assert abs(ratios[1] - ratios[0]) < 1e-9 * abs(ratios[0])
    assert abs(ratios[2] - ratios[0]) < 1e-9 * abs(ratios[0])


def test_residue_rejects_non_integer(problems):
    kd = problems("ex7_6").kernel
    with pytest.raises(ResidueError, match="not an integer"):
        residue_solution(kd, 0)


def test_symmetry_airy_identically_zero(airy):
    ss = symmetry_sum(airy.kernel)
    assert ss.classification == "identically_zero"
    assert symmetry_check(airy.kernel, [0.0, 1.0, 1j, -2.0], 1e-11) < 1e-10


def test_symmetry_sixth_order_residue_combination(problems):
    kd = problems("ex7_2").kernel
    ss = symmetry_sum(kd)
    assert ss.classification == "residue_combination"
    assert symmetry_check(kd, [0.3, 1 + 0.5j, -1.2 + 0.8j, 2j, -2.0],
                          1e-10) < 1e-8


def _circle_trapezoid(kd, radius, z, n=1024):
    """(1/2 pi i) * integral of phi(t) e^(-z t) dt over |t| = radius by the
    n-point trapezoid rule, phi built from the kernel's factored form with
    principal powers: the reference for kernels whose exponents are all
    integers, single-valued on the circle."""
    t = radius * np.exp(2j * np.pi * np.arange(n) / n)
    log_phi = np.polyval(kd.r0.complex_coeffs()[::-1], t) - z * t
    for p in kd.poles:
        d = t - p.location_complex
        log_phi += p.exponent_complex * np.log(d)
        log_phi += np.polyval(p.r_poly.complex_coeffs()[::-1], 1.0 / d)
    # dt = i t d(theta), and d(theta) = 2 pi / n
    return complex(np.mean(np.exp(log_phi) * t))


def test_symmetry_equals_sum_of_residue_solutions(problems):
    # all residues integral: the sum of the residue solutions equals the
    # positively oriented circle integral outside every pole, evaluated
    # here by the trapezoid rule as an independent reference
    for name in ("ex7_1", "ex7_2", "ex7_5"):
        kd = problems(name).kernel
        assert kd.is_single_valued
        rsols = residue_solutions(kd)
        for z in (0.4, 1 + 0.5j, -1.5, 0.9j, 2.0):
            circ = _circle_trapezoid(kd, kd.singular_radius + 1.0, z)
            parts = [rs.handle.eval(z, 0, 1e-11) for rs in rsols]
            total = combine_linear([(1.0, p) for p in parts]).value
            assert abs(total - circ) < 1e-8 * max(abs(total), abs(circ))


def test_circle_about_a_branch_point_is_rejected(problems):
    # the pole at -1 of ex7_6 has exponent -3/2: phi changes sign around it
    kd = problems("ex7_6").kernel
    with pytest.raises(NumericError, match="not single-valued"):
        circle_eval_multi(kd, -1.0, 0.5, 1.0, [0])


@pytest.mark.parametrize("name", ["ex7_1", "ex7_2", "ex7_3", "ex7_5"])
def test_symmetry_sum_holds_at_large_z(problems, name):
    # a residue combination is summed from the residue solutions, so the
    # identity holds to rounding where a circle quadrature at
    # singular_radius + 1 stops converging
    kd = problems(name).kernel
    ss = symmetry_sum(kd)
    assert ss.classification == "residue_combination"
    pts = [r * cmath.exp(2j * math.pi * (k + 0.5) / 8)
           for r in (20.0, 39.5) for k in range(8)]
    assert symmetry_check(kd, pts, 1e-10) <= 1e-12
    assert not any(ss.handle.eval(z, 0, 1e-10).flags for z in pts)


def test_residue_cache_under_threads():
    # library callers may share one kernel across threads; racing builds of
    # the same pole must still give every caller the same residue solutions
    from laplace_ode import Problem, fixture_path
    kd = Problem.from_file(fixture_path("ex7_1")).kernel
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: results.append(residue_solutions(kd)))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    assert len(kd._residues) == 3
    for rsols in results:
        assert [rs.poly for rs in rsols] == [rs.poly for rs in results[0]]
    assert all(a is b for a, b in zip(residue_solutions(kd),
                                      residue_solutions(kd)))


def test_symmetry_rejects_non_integer_sum():
    from laplace_ode import Problem
    # perturbing the t^2 coefficient of Q0 moves the residue sum off the
    # integers (sum of residues = 7.5 here)
    prob = Problem.from_text('{"n":5,"a":[-2,0,7.5,0,0],"b":[0,1,0,-1,0]}')
    assert prob.kernel.residue_sum_integer is None
    with pytest.raises(ResidueError, match="not an integer"):
        symmetry_sum(prob.kernel)


def test_sixth_order_sum_identity(problems):
    # Lam0 + Lam1 + Lam2 = (i/2) e^{-i(z+1/3)} - (i/2) e^{+i(z+1/3)} + w3(z)
    # (counterclockwise orientation: the sum is +sum of residues)
    prob = problems("ex7_2")
    kd = prob.kernel
    w3 = residue_solution(kd, 0)
    assert w3.form == "exp_times_entire"
    assert w3.order == 2
    assert w3.growth_order == Fraction(1, 2)
    lams = [lambda_solution(kd, nu) for nu in range(3)]
    for z in (0.3, 1 + 0.5j, -1.2 + 0.8j, 2j, -2.0):
        z = complex(z)
        tot = sum(h.value(z, 1e-10) for h in lams)
        rhs = (0.5j) * cmath.exp(-1j * (z + 1 / 3)) \
            - (0.5j) * cmath.exp(1j * (z + 1 / 3)) \
            + w3.handle.value(z, 1e-10)
        assert abs(tot - rhs) <= 1e-8 * max(abs(tot), 1.0)


def test_quartic_sum_is_residue(problems):
    kd = problems("ex7_3").kernel
    w = residue_solution(kd, 0)
    assert w.growth_order == Fraction(2, 3)
    lams = [lambda_solution(kd, nu) for nu in range(2)]
    for z in (0.5, 1j, -0.7 + 0.2j):
        tot = sum(h.value(z, 1e-10) for h in lams)
        assert abs(tot - w.handle.value(z, 1e-10)) < 1e-9 * max(1.0, abs(tot))


def test_closed_form_json_interface(problems):
    h = parse_closed_form({"poly": [7, 0, 1], "exp_factor": 0}, "w5")
    rep = check_solution(problems("ex7_1").spec, h, [0.4, 1 - 1j], 1e-10)
    assert rep["exact"] and rep["max_residual"] == 0.0
    h = parse_closed_form({"poly": [1], "exp_factor": [0, 1]}, "e^{iz}")
    rep = check_solution(problems("ex7_2").spec, h, [0.4], 1e-10)
    assert rep["exact"] and rep["max_residual"] == 0.0


def test_closed_form_derivatives_and_nonsolution():
    h = closed_form_solution(Poly.exact([0, 0, 1]), GaussRational(2))
    # (z^2 e^{2z})' = (2 z + 2 z^2) e^{2z}
    q = h.eval(0.5, 1)
    want = (2 * 0.5 + 2 * 0.25) * math.exp(1.0)
    assert abs(q.value - want) < 1e-12 * want
    from laplace_ode import Problem
    prob = Problem.from_text('{"n":2,"a":[0,0],"b":[-1,0]}')
    rep = check_solution(prob.spec, h, [0.5], 1e-10)
    assert rep["max_residual"] > 0


def test_independence_airy(airy):
    kd = airy.kernel
    pair = [lambda_solution(kd, nu) for nu in (0, 1)]
    _w, verdict = independence_check(pair, 0.3, 1e-6)
    assert verdict == "independent"
    triple = [lambda_solution(kd, nu) for nu in (0, 1, 2)]
    _w, verdict = independence_check(triple, 0.3, 1e-6)
    assert verdict == "dependent-suspected"


def test_independence_fifth_order_triple(problems):
    # the three distinguished solutions here are genuinely independent:
    # their sum equals the (nonzero) sum of the residue solutions, which is
    # of lower order and hence outside the span of any two of them
    kd = problems("ex7_1").kernel
    ss = symmetry_sum(kd)
    assert abs(ss.handle.value(0.4, 1e-11)) > 1e-4
    triple = [lambda_solution(kd, nu) for nu in (0, 1, 2)]
    _w, verdict = independence_check(triple, 0.3, 1e-6)
    assert verdict == "independent"


def test_residue_growth_order_bound(problems):
    # order bound 1 - 1/m + 0.1 for the essential residue solution
    kd = problems("ex7_2").kernel
    w3 = residue_solution(kd, 0)
    logm, slope = empirical_growth(w3.handle, [10, 20, 40], 16, 1e-8)
    bound = 1.0 - 1.0 / w3.order + 0.1
    assert slope <= bound
    assert all(b > a for a, b in zip(logm, logm[1:]))


def test_parametrized_symmetry_sum_subnormal(problems):
    prob = problems("ex7_6")
    ss = symmetry_sum(prob.kernel)
    assert ss.classification == "subnormal"
    _logm, slope = empirical_growth(ss.handle, [6, 12, 24], 16, 1e-8)
    assert slope <= 1.1
