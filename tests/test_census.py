"""Accuracy census: every large-|z| evaluation either satisfies the ODE or
says that it does not.

The grid is every fixture, every distinguished solution Lambda_nu,
|z| in {20, 40} and eight directions arg z = 2 pi (k + 1/2) / 8, at
tol 1e-10.  A cell passes when the log-scaled ODE residual of
w, w', ..., w^(n) from one ``eval_multi`` call is at most 1e-8, or when
the evaluation carries a flag.  A large residual without a flag is a
silent inaccuracy.
"""

import cmath
import math

import pytest

from laplace_ode.problem import FIXTURE_NAMES

TOL = 1e-10
RESIDUAL_TOL = 1e-8
MODULI = (20.0, 40.0)
DIRECTIONS = 8


def _ode_residual(spec, z, qs):
    """|sum c_j w^(j)| / sum |c_j w^(j)|, with every term rescaled to the
    largest log scale, so no value leaves the double range."""
    coeffs = [complex(spec.a[j]) + complex(spec.b[j]) * z
              for j in range(spec.n)] + [1.0]
    top = max(q.log_scale for q in qs)
    terms = [c * q.mantissa * math.exp(q.log_scale - top)
             for c, q in zip(coeffs, qs)]
    den = sum(abs(t) for t in terms)
    return abs(sum(terms)) / den if den > 0 else math.inf


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_census_no_silent_inaccuracy(problems, name):
    prob = problems(name)
    silent = []
    for nu in range(prob.kernel.m + 1):
        handle = prob.lam(nu)
        for r in MODULI:
            for k in range(DIRECTIONS):
                z = r * cmath.exp(2j * math.pi * (k + 0.5) / DIRECTIONS)
                qs = handle.eval_multi(z, range(prob.spec.n + 1), TOL)
                resid = _ode_residual(prob.spec, z, qs)
                if not (resid <= RESIDUAL_TOL or any(q.flags for q in qs)):
                    silent.append((nu, z, resid))
    assert not silent
