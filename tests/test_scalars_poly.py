import math
from fractions import Fraction

import numpy as np
import pytest

from laplace_ode import GaussRational, Poly
from laplace_ode.series import (binomial_coeffs, integer_value, poly_series,
                                series_div, series_exp, series_mul)

from scalars_reference import compare


def test_gauss_rational_field_ops():
    a = GaussRational(Fraction(1, 3), 2)
    b = GaussRational(-2, Fraction(1, 2))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (GaussRational(1) / a) == GaussRational(1)
    assert complex(a) == complex(1 / 3, 2)
    assert (a ** 3) == a * a * a
    assert GaussRational(0, 1) ** -2 == GaussRational(-1)


def test_gauss_rational_from_float_is_exact():
    x = 0.1 + 0.2
    g = GaussRational.from_number(x)
    assert float(g.re) == x
    with pytest.raises(ValueError):
        GaussRational.from_number(float("inf"))


def test_gauss_rational_matches_fraction_pair_reference():
    # the integer triple against the Fraction-pair class it replaced, on
    # 3,000 random operand pairs: exact values, float bits, exceptions,
    # hashes and reprs must all agree
    checks, bad = compare(GaussRational, pairs=3000, seed=11)
    assert checks > 70000
    assert not bad, bad[:3]


def test_integer_detection():
    assert integer_value(GaussRational(3)) == 3
    assert integer_value(GaussRational(Fraction(1, 2))) is None
    assert integer_value(2.0 + 1e-10j) == 2
    assert integer_value(2.5) is None


def test_poly_arithmetic_exact():
    p = Poly.exact([1, 2, 1])              # (1 + t)^2
    q = Poly.exact([-1, 1])                # t - 1
    prod = p * q
    assert prod == Poly.exact([-1, -1, 1, 1])
    quot, rem = divmod(prod, q)
    assert quot == p and rem.is_zero
    assert p.derivative() == Poly.exact([2, 2])
    assert Poly.exact([0, 0, 3]).antiderivative() == \
        Poly([GaussRational(0), GaussRational(0), GaussRational(0),
              GaussRational(1)])


def test_poly_shift_and_eval():
    p = Poly.exact([1, 0, 1])              # 1 + t^2
    s = poly_series(p, GaussRational(2), 2)   # 5 + 4u + u^2
    assert Poly(s) == Poly.exact([5, 4, 1])
    t = np.array([1j, 2.0 + 0j])
    np.testing.assert_allclose(p.eval_array(t), [0j, 5 + 0j])


def test_poly_compose_neg_scale():
    p = Poly.exact([1, 2, 3])
    assert p.compose_neg() == Poly.exact([1, -2, 3])
    assert p.scale_arg(GaussRational(2)) == Poly.exact([1, 4, 12])


def test_series_exp_matches_reference():
    # exp(t + t^3/3) coefficients
    a = [GaussRational(0), GaussRational(1), GaussRational(0),
         GaussRational(Fraction(1, 3))]
    e = series_exp(a, 6)
    ref = [1, 1, Fraction(1, 2), Fraction(1, 2), Fraction(3, 8),
           Fraction(7, 40), Fraction(9, 80)]
    assert [c.re for c in e] == ref


def test_series_div_binomial():
    # 1/(1 - t) = sum t^k
    inv = series_div([GaussRational(1)], [GaussRational(1), GaussRational(-1)], 5)
    assert all(c.re == 1 for c in inv)
    # (1 + t)^(-3)
    b = binomial_coeffs(GaussRational(-3), GaussRational(1), 4)
    assert [c.re for c in b] == [1, -3, 6, -10, 15]


def test_series_mul_truncation():
    a = [GaussRational(1)] * 3
    b = [GaussRational(1)] * 3
    assert [c.re for c in series_mul(a, b, 2)] == [1, 2, 3]


def test_series_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        series_exp([GaussRational(1)], 3)


# ----------------------------------------------------------------------------
# Taylor shift and division by (t - r) against the loop references they
# replaced: Horner composition of Poly objects, and long division.  The
# arithmetic is the same, so results must be equal to the last bit.
# ----------------------------------------------------------------------------

def _ref_shift(p, a):
    out = Poly([p.coeffs[-1]]) if p.coeffs else Poly()
    for c in reversed(p.coeffs[:-1]):
        out = out * Poly([a, 1]) + Poly([c])
    return out


def _ref_divide_linear(p, r):
    """Long division of p by the monic (t - r)."""
    lin = (-r, GaussRational(1))
    rem = list(p.coeffs)
    dq = len(rem) - 2
    if dq < 0:
        return Poly(), Poly(rem)
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + 1] / lin[1]
        quot[k] = c
        for j, b in enumerate(lin):
            rem[k + j] = rem[k + j] - c * b
    return Poly(quot), Poly(rem[:1])


def _same(p, q):
    """Equal coefficient by coefficient, type and signed zeros included."""
    return [repr(c) for c in p.coeffs] == [repr(c) for c in q.coeffs]


def _same_series(p, a):
    """poly_series(p, a, order) is the head of the full Taylor shift, to
    the last bit, at every truncation order."""
    ref = _ref_shift(p, a).coeffs
    return all([repr(c) for c in poly_series(p, a, order)] ==
               [repr(c) for c in ref[: order + 1]]
               for order in range(p.degree + 1))


def _rand_gauss_rational(rng):
    return GaussRational(Fraction(int(rng.integers(-9, 10)),
                                  int(rng.integers(1, 7))),
                         Fraction(int(rng.integers(-9, 10)),
                                  int(rng.integers(1, 7))))


def test_shift_matches_composition_on_complex_coefficients():
    rng = np.random.default_rng(5)
    for deg in range(9):
        for _ in range(200):
            re = rng.normal(size=deg + 1)
            im = rng.normal(size=deg + 1)
            # zero parts of either sign, as negated real data carries them
            for part in (re, im):
                part[rng.random(deg + 1) < 0.2] = 0.0
                part[rng.random(deg + 1) < 0.2] = -0.0
            p = Poly([complex(x, y) for x, y in zip(re, im)])
            a = complex(rng.normal(scale=3.0), rng.normal(scale=3.0))
            if rng.random() < 0.3:
                a = complex(a.real, -0.0)
            assert _same_series(p, a), (p, a)


def test_shift_matches_composition_on_exact_coefficients():
    rng = np.random.default_rng(6)
    for deg in range(9):
        for _ in range(8):
            p = Poly([_rand_gauss_rational(rng) for _ in range(deg + 1)])
            a = _rand_gauss_rational(rng)
            assert _same_series(p, a), (p, a)
    assert poly_series(Poly(), GaussRational(2), 2) == [GaussRational(0)] * 3


def test_synthetic_division_matches_long_division():
    from laplace_ode.ratfun import _divide_linear
    rng = np.random.default_rng(7)
    for deg in range(9):
        for _ in range(8):
            p = Poly([_rand_gauss_rational(rng) for _ in range(deg + 1)])
            r = _rand_gauss_rational(rng)
            # once with a remainder, once with (t - r) as an exact factor
            for q in (p, p * Poly([-r, GaussRational(1)])):
                quot, rem = _divide_linear(q, r)
                ref_quot, ref_rem = _ref_divide_linear(q, r)
                assert _same(quot, ref_quot), (q, r)
                assert _same(Poly([rem]), ref_rem), (q, r)
