"""Large-|z| values of Lambda_nu against closed forms that share no code
with the contour machinery.

- airy: Lambda_nu(z) = w^nu Ai(w^nu z) with w = e^(2 pi i / 3), from
  ``scipy.special.airy``;
- ex7_4: phi(t) = e^(t^2 / 2) and the residue sum is zero, so
  Lambda_1(z) = -Lambda_0(z) = -e^(-z^2 / 2) / sqrt(2 pi);
- ex7_3 (m = 1, an essential pole at 0): phi(t) = t^-3 e^(t^2/2 + 1/(2t^2))
  integrated by the trapezoid rule along the steepest-descent line
  Re t = Re z, plus the residue at 0 from its brute-force series where the
  line passes on the other side of the pole than the canonical contour;
- cubic_airy (m = 3): phi(t) = e^(t^4 / 4) integrated by ``mpmath.quad``
  at 30 digits along the two rays of the canonical contour;
- ex7_6's subnormal symmetry sum: phi(t) = e^(t^3 / 3) t^(-3/4)
  (t + 1)^(-3/2) (t - 1)^(-7/4) integrated by ``mpmath.quad`` at 30 digits
  around |t| = 2.

The airy and ex7_4 grid is |z| up to 40 in 24 directions arg z = pi k / 12,
which include the axes and the Stokes lines.  Values are compared in log
form, log|w| and arg w, so nothing over- or underflows.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import airy

from laplace_ode import Problem, fixture_path

from oracles import quartic_residue_series_coeff

TOL = 1e-10             # requested, and allowed as the distance from the oracle
MODULI = (0.5, 2.0, 5.0, 10.0, 20.0, 40.0)
POINTS = [r * cmath.exp(1j * math.pi * k / 12) for r in MODULI
          for k in range(24)]


def _log_distance(q, log_ref: complex) -> float:
    """|log(w / ref)|, about |w / ref - 1| when small, for
    w = q.mantissa * e^(q.log_scale) and ref = e^(log_ref)."""
    return abs(complex(q.log_abs() - log_ref.real,
                       cmath.phase(q.mantissa * cmath.exp(-1j * log_ref.imag))))


def _worst(handle, log_oracle):
    worst = (0.0, None)
    for z in POINTS:
        q = handle.eval(z, 0, TOL)
        assert not q.flags, z
        worst = max(worst, (_log_distance(q, log_oracle(z)), z),
                    key=lambda item: item[0])
    return worst


@pytest.mark.parametrize("nu", range(3))
def test_airy_against_scipy(problems, nu):
    w = cmath.exp(2j * math.pi * nu / 3)

    def log_oracle(z):
        return cmath.log(w * airy(w * z)[0])

    dist, z = _worst(problems("airy").lam(nu), log_oracle)
    assert dist <= TOL, z


@pytest.mark.parametrize("nu", range(2))
def test_ex7_4_against_closed_form(problems, nu):
    sign = math.pi if nu == 1 else 0.0     # Lambda_1 = -Lambda_0

    def log_oracle(z):
        return -z * z / 2 - 0.5 * math.log(2 * math.pi) + 1j * sign

    dist, z = _worst(problems("ex7_4").lam(nu), log_oracle)
    assert dist <= TOL, z


# ex7_3: Lambda_0 runs up the imaginary direction right of the pole at 0
# (in along -pi/2, arc through 0, out along pi/2) and Lambda_1 down its left
EX7_3_POINTS = [r * cmath.exp(2j * math.pi * (k + 0.5) / 12)
                for r in (1.5, 3.0, 5.0, 8.0) for k in range(12)]
EX7_3_SERIES = [quartic_residue_series_coeff(k, amax=25) for k in range(45)]


def _ex7_3_log_oracle(nu, z):
    """log Lambda_nu(z) for ex7_3: the trapezoid rule on t = z + i s, where
    t^2/2 - z t = -z^2/2 - s^2/2, plus res_0[phi(t) e^(-z t)] =
    sum_k c_k z^(2k) when the line and the canonical contour pass the
    pole on different sides."""
    s = np.linspace(-12.0, 12.0, 1201)
    t = z + 1j * s
    # the line integral (upwards) without its factor e^(-z^2/2)
    phi = t ** -3.0 * np.exp(0.5 / t ** 2 - 0.5 * s ** 2)
    up = complex(np.sum(phi)) * (s[1] - s[0]) / (2 * math.pi)
    line = up if nu == 0 else -up
    if (z.real < 0) == (nu == 0):
        res = sum(c * z ** (2 * k) for k, c in enumerate(EX7_3_SERIES))
        line += res * cmath.exp(z * z / 2)
    return cmath.log(line) - z * z / 2


@pytest.mark.parametrize("nu", range(2))
def test_ex7_3_against_saddle_line(nu):
    prob = Problem.from_file(fixture_path("ex7_3"))     # no residue built yet
    handle = prob.lam(nu)
    worst = (0.0, None)
    for z in EX7_3_POINTS:
        if abs(z.real) < 0.5:       # the line would graze the pole
            continue
        q = handle.eval(z, 0, TOL)
        assert not q.flags, z
        worst = max(worst, (_log_distance(q, _ex7_3_log_oracle(nu, z)), z),
                    key=lambda item: item[0])
    assert worst[0] <= TOL, worst
    # the descent path swept the pole somewhere, so the residue was added
    assert prob.kernel._residues


@pytest.mark.parametrize("nu", range(4))
def test_cubic_airy_against_mpmath(problems, nu):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    handle = problems("cubic_airy").lam(nu)
    worst = (0.0, None)
    for r in (0.5, 2.0, 5.0, 10.0):
        for k in range(6):
            z = r * cmath.exp(2j * math.pi * (k + 0.3) / 6)
            # (1/2 pi i) (out along theta_(2nu+1) - in along theta_(2nu-1))
            # of e^(t^4/4 - z t), t^4 = -r^4 on both rays
            total = 0
            for sign, j in ((-1, 2 * nu - 1), (1, 2 * nu + 1)):
                e = mp.expjpi(mp.mpf(j) / 4)
                total += sign * e * mp.quad(
                    lambda x: mp.exp(-x ** 4 / 4 - mp.mpc(z) * x * e),
                    [0, 2, 4, 8])
            log_ref = complex(mp.log(total / (2j * mp.pi)))
            q = handle.eval(z, 0, TOL)
            assert not q.flags, z
            worst = max(worst, (_log_distance(q, log_ref), z),
                        key=lambda item: item[0])
    assert worst[0] <= TOL, worst


def test_ex7_6_symmetry_sum_against_mpmath(problems):
    """The subnormal symmetry sum at z = 20, where the circle integral
    cancels about 8 digits against its path maximum: within TOL of the
    reference, or flagged."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    kd = problems("ex7_6").kernel
    ss = problems("ex7_6").symmetry()
    assert ss.classification == "subnormal" and ss.radius == 2.0
    z = 20.0
    r0 = [mp.mpc(c) for c in kd.r0.complex_coeffs()[::-1]]
    poles = [(mp.mpc(p.location_complex), mp.mpf(p.exponent_complex.real))
             for p in kd.poles]

    def integrand(theta):
        # t = 2 e^(i theta), dt = i t d(theta); log(t - t_nu) continued from
        # its principal value at t = 2 is log 2 + i theta
        # + log(1 - t_nu e^(-i theta) / 2), the last log principal
        t = 2 * mp.expj(theta)
        log_phi = mp.polyval(r0, t) - z * t
        for loc, e in poles:
            log_phi += e * (mp.log(2) + 1j * theta
                            + mp.log(1 - loc * mp.expj(-theta) / 2))
        return mp.exp(log_phi) * t

    total = mp.quad(integrand, mp.linspace(0, 2 * mp.pi, 9)) / (2 * mp.pi)
    q = ss.handle.eval(z, 0, TOL)
    assert q.flags or _log_distance(q, complex(mp.log(total))) <= TOL
