"""Accuracy census: every large-|z| evaluation satisfies the ODE, and the
one that cannot says so.

The grid is every fixture, every distinguished solution Lambda_nu,
|z| in {20, 40} and sixteen directions, arg z = 2 pi k / 8 (on the axes and
the Stokes lines) and 2 pi (k + 1/2) / 8, at tol 1e-10.  A cell passes when
the log-scaled ODE residual of w, w', ..., w^(n) from one ``eval_multi``
call is at most 1e-8 and no value carries a flag.  Only ex7_6, whose
many-valued kernel keeps the canonical contour wherever the descent path
would sweep a branch point, may instead flag a cell it cannot resolve; a
large residual without a flag is a silent inaccuracy there.

The fuzz pass applies the same rule to random specs: every cell either
solves the ODE to 1e-8 or carries a flag, and a spec the library cannot
handle raises a ``NumericError``, never anything else.
"""

import cmath
import math

import numpy as np
import pytest

from laplace_ode import NumericError, Problem
from laplace_ode.problem import FIXTURE_NAMES

from oracles import random_normalized_spec

TOL = 1e-10
RESIDUAL_TOL = 1e-8
MODULI = (20.0, 40.0)
DIRECTIONS = 8
FLAGS_ALLOWED = {"ex7_6"}


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
    failed = []
    for nu in range(prob.kernel.m + 1):
        handle = prob.lam(nu)
        for r in MODULI:
            for k in range(2 * DIRECTIONS):
                z = r * cmath.exp(1j * math.pi * k / DIRECTIONS)
                qs = handle.eval_multi(z, range(prob.spec.n + 1), TOL)
                resid = _ode_residual(prob.spec, z, qs)
                flagged = any(q.flags for q in qs)
                if name in FLAGS_ALLOWED:
                    ok = resid <= RESIDUAL_TOL or flagged
                else:
                    ok = resid <= RESIDUAL_TOL and not flagged
                if not ok:
                    failed.append((nu, z, resid, flagged))
    assert not failed


FUZZ_SPECS = 20
FUZZ_MODULI = (2.0, 10.0, 30.0)
FUZZ_DIRECTIONS = 4


def test_fuzz_random_specs_no_silent_inaccuracy():
    rng = np.random.default_rng(7)
    cells, failed = 0, []
    for _ in range(FUZZ_SPECS):
        spec = random_normalized_spec(rng)
        try:
            prob = Problem(spec)
            for nu in range(prob.kernel.m + 1):
                handle = prob.lam(nu)
                for r in FUZZ_MODULI:
                    for k in range(FUZZ_DIRECTIONS):
                        z = r * cmath.exp(2j * math.pi * (k + 0.5) / FUZZ_DIRECTIONS)
                        qs = handle.eval_multi(z, range(spec.n + 1), TOL)
                        cells += 1
                        if not (_ode_residual(prob.spec, z, qs) <= RESIDUAL_TOL
                                or any(q.flags for q in qs)):
                            failed.append((spec, nu, z))
        except NumericError:
            continue
    assert cells > 500
    assert not failed
