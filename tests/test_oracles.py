"""Large-|z| values of Lambda_nu against closed forms that share no code
with the contour machinery.

- airy: Lambda_nu(z) = w^nu Ai(w^nu z) with w = e^(2 pi i / 3), from
  ``scipy.special.airy``;
- ex7_4: phi(t) = e^(t^2 / 2) and the residue sum is zero, so
  Lambda_1(z) = -Lambda_0(z) = -e^(-z^2 / 2) / sqrt(2 pi).

The grid is |z| up to 40 in 24 directions arg z = pi k / 12, which include
the axes and the Stokes lines.  Values are compared in log form,
log|w| and arg w, so nothing over- or underflows.
"""

import cmath
import math

import pytest
from scipy.special import airy

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
