import json
import math
from fractions import Fraction

import numpy as np
import pytest

from laplace_ode import (GaussRational, Poly, Problem, build_q,
                         partial_fractions, poly_roots)
from laplace_ode.ratfun import CLUSTER_TOL
from laplace_ode.scalars import field_int

from oracles import random_normalized_spec


def residue_at(q0: Poly, q1: Poly, pole: complex) -> complex:
    """Residue of Q0/Q1 at ``pole``, which must be a root of Q1."""
    _outer, poles = partial_fractions(q0, q1)
    for p in poles:
        if abs(p.location_complex - complex(pole)) <= \
                CLUSTER_TOL * (1.0 + abs(complex(pole))):
            return p.lam
    raise ValueError("%r is not a root of Q1 (within clustering tolerance)" % (pole,))


def reexpand(outer: Poly, poles, q1: Poly) -> Poly:
    """Rebuild Q0 from a decomposition: outer*Q1 + sum over poles."""
    total = outer * q1
    for p in poles:
        # principal part times Q1: c_k * Q1 / (t - t0)^k
        for k, ck in enumerate(p.principal, start=1):
            if not ck:
                continue
            num = q1
            factor = Poly([-p.location, field_int(1, p.principal)])
            for _ in range(k):
                num, _r = divmod(num, factor)
            total = total + num * ck
    return total


def _cluster_map(clusters):
    return {complex(c.center): c.multiplicity for c in clusters}


def test_roots_q1_of_fifth_order_fixture():
    got = _cluster_map(poly_roots(Poly.exact([0, -1, 0, 1])))   # t^3 - t
    assert got == {0j: 1, 1 + 0j: 1, -1 + 0j: 1}


def test_roots_q1_of_sixth_order_fixture():
    got = _cluster_map(poly_roots(Poly.exact([0, 0, -1, 0, -1])))  # -t^4 - t^2
    assert got == {0j: 2, 1j: 1, -1j: 1}


def test_roots_triple():
    got = poly_roots(Poly.exact([-8, 12, -6, 1]))               # (t-2)^3
    assert _cluster_map(got) == {2 + 0j: 3}
    assert got[0].exact


def test_roots_triple_numeric():
    r = 1.234567
    p = Poly([-(r ** 3), 3 * r * r, -3 * r, 1.0])
    got = poly_roots(p)
    assert len(got) == 1
    assert got[0].multiplicity == 3
    assert abs(got[0].center_complex - r) < 1e-9


SQRT2, SQRT3, R = math.sqrt(2), math.sqrt(3), 0.3 + 1.7j
OMEGA = complex(-0.5, SQRT3 / 2)    # a root of t^2 + t + 1

# (factors with their powers, roots with their multiplicities); the
# integer polynomials are taken with exact and with complex coefficients
MULTIPLE_ROOTS = [
    ("(t^2-2)^2", [([-2, 0, 1], 2)], {SQRT2: 2, -SQRT2: 2}),
    ("(t^2-2)^3", [([-2, 0, 1], 3)], {SQRT2: 3, -SQRT2: 3}),
    ("(t^2-2)^4", [([-2, 0, 1], 4)], {SQRT2: 4, -SQRT2: 4}),
    ("(t^2+t+1)^2(t-1)", [([1, 1, 1], 2), ([-1, 1], 1)],
     {OMEGA: 2, OMEGA.conjugate(): 2, 1: 1}),
    ("(t^2-2)^2(t^2-3)", [([-2, 0, 1], 2), ([-3, 0, 1], 1)],
     {SQRT2: 2, -SQRT2: 2, SQRT3: 1, -SQRT3: 1}),
]


def _product(factors, poly):
    p = poly([1])
    for coeffs, power in factors:
        for _ in range(power):
            p = p * poly(coeffs)
    return p


@pytest.mark.parametrize("factors, want", [
    *(pytest.param(f, w, id=name + ", exact")
      for name, f, w in MULTIPLE_ROOTS),
    *(pytest.param([([complex(c) for c in coeffs], k) for coeffs, k in f], w,
                   id=name + ", complex") for name, f, w in MULTIPLE_ROOTS),
    pytest.param([([-R, 1], 2), ([1, 1], 1)], {R: 2, -1: 1}, id="(t-r)^2(t+1)"),
    pytest.param([([-R, 1], 3)], {R: 3}, id="(t-r)^3"),
])
def test_multiple_roots_are_merged_by_the_derivative_test(factors, want):
    exact = all(isinstance(c, int) for coeffs, _k in factors for c in coeffs)
    got = poly_roots(_product(factors, Poly.exact if exact else Poly))
    nearest = {min(want, key=lambda t: abs(c.center_complex - t)): c
               for c in got}
    assert len(got) == len(nearest) == len(want), got
    for t, c in nearest.items():
        assert c.multiplicity == want[t], (t, got)
        assert abs(c.center_complex - t) <= 1e-12 * (1 + abs(t)), (t, got)


def test_roots_requires_degree():
    with pytest.raises(ValueError):
        poly_roots(Poly.exact([3]))


def test_partial_fractions_airy(problems):
    outer, poles = partial_fractions(*build_q(problems("airy").spec))
    assert outer == Poly.exact([0, 0, -1])
    assert poles == []


def test_partial_fractions_quartic_transformed():
    # Q0 = t^4 - 1, Q1 = -t^3:  Q0/Q1 = -t + 1/t^3
    outer, poles = partial_fractions(Poly.exact([-1, 0, 0, 0, 1]),
                                     Poly.exact([0, 0, 0, -1]))
    assert outer == Poly.exact([0, -1])
    assert len(poles) == 1
    p = poles[0]
    assert complex(p.location) == 0j
    assert p.multiplicity == 3
    assert complex(p.lam) == 0j
    assert [complex(c) for c in p.principal] == [0j, 0j, 1 + 0j]


def test_residues_of_fifth_order_fixture(problems):
    q0, q1 = build_q(problems("ex7_1").spec)
    assert complex(residue_at(q0, q1, 0)) == 2 + 0j
    assert complex(residue_at(q0, q1, 1)) == 2 + 0j
    assert complex(residue_at(q0, q1, -1)) == 3 + 0j


def test_residue_simple():
    assert complex(residue_at(Poly.exact([1]), Poly.exact([0, 1]), 0)) == 1


def test_residue_rejects_non_pole():
    with pytest.raises(ValueError, match="not a root"):
        residue_at(Poly.exact([1]), Poly.exact([0, 1]), 3.0)


def test_exact_multiplicities_on_rational_roots():
    # (t-1)^2 (t+2)^3 t
    p = Poly.exact([1])
    for root, mult in ((1, 2), (-2, 3), (0, 1)):
        for _ in range(mult):
            p = p * Poly.exact([-root, 1])
    got = poly_roots(p)
    assert _cluster_map(got) == {1 + 0j: 2, -2 + 0j: 3, 0j: 1}
    assert all(c.exact for c in got)


def test_reexpansion_property_100_random():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        spec = random_normalized_spec(rng)
        q0, q1 = build_q(spec)
        outer, poles = partial_fractions(q0, q1)
        rebuilt = reexpand(outer, poles, q1)
        diff = rebuilt - q0
        scale = max(q0.max_abs_coeff(), 1.0)
        err = max((abs(complex(c)) for c in diff.coeffs), default=0.0)
        assert err <= 1e-10 * scale


def test_residue_matches_circle_quadrature_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        spec = random_normalized_spec(rng)
        q0, q1 = build_q(spec)
        outer, poles = partial_fractions(q0, q1)
        for p in poles:
            others = [complex(q.location) for q in poles if q is not p]
            dist = min((abs(complex(p.location) - o) for o in others),
                       default=1.0)
            if dist < 1e-6:
                continue
            radius = 0.5 * min(dist, 1.0)
            th = 2 * np.pi * np.arange(256) / 256
            t = complex(p.location) + radius * np.exp(1j * th)
            vals = q0.eval_array(t) / q1.eval_array(t)
            num = np.sum(vals * radius * np.exp(1j * th)) / 256
            assert abs(num - complex(p.lam)) <= \
                1e-9 * max(1.0, abs(complex(p.lam)))


# Q1 of this spec (after normalization, so inexact) has the roots
# 0.0268 +- 0.2832i, whose real parts come out of Aberth a last bit apart
CONJUGATE_PAIR_SPEC = {"n": 6, "a": [-3, 3, -3, -1, -1, 2],
                       "b": [1, -3, 0, 0, 0, 8]}


def test_conjugate_pair_lists_negative_imaginary_pole_first():
    docs = [CONJUGATE_PAIR_SPEC]
    for key in ("a", "b"):
        for j, v in enumerate(CONJUGATE_PAIR_SPEC[key]):
            for direction in (math.inf, -math.inf):
                doc = json.loads(json.dumps(CONJUGATE_PAIR_SPEC))
                doc[key][j] = math.nextafter(float(v), direction)
                docs.append(doc)
    for doc in docs:
        kd = Problem.from_text(json.dumps(doc)).kernel
        locs = [p.location_complex for p in kd.poles]
        pair = [k for k, t in enumerate(locs) if abs(t.imag) > 0.1]
        assert len(pair) == 2 and pair[1] == pair[0] + 1, (doc, locs)
        assert locs[pair[0]].imag < 0 < locs[pair[1]].imag, (doc, locs)
        # Q1 is real: the pair, and the residues built from it, are
        # conjugates to the last bit
        lower, upper = (kd.poles[k] for k in pair)
        assert lower.location_complex == upper.location_complex.conjugate(), \
            (doc, locs)
        assert complex(lower.lam) == complex(upper.lam).conjugate(), \
            (doc, lower.lam, upper.lam)


def test_real_polynomial_has_exactly_real_roots():
    # Q1 of this spec is real; Aberth left its real roots with imaginary
    # parts of order 1e-68, whose sign would pick the branch of a power
    kd = Problem.from_text(json.dumps(CONJUGATE_PAIR_SPEC)).kernel
    real = [p.location_complex for p in kd.poles
            if abs(p.location_complex.imag) < 0.1]
    assert len(real) == 3
    assert all(math.copysign(1.0, t.imag) == 1.0 and t.imag == 0.0
               for t in real), real
    # a complex polynomial keeps the imaginary parts of its roots
    roots = [c.center_complex for c in poly_roots(Poly([-1 - 1e-14j, 0j, 1 + 0j]))]
    assert all(0 < abs(t.imag) < 1e-13 for t in roots), roots


def test_zero_root_of_inexact_polynomial_is_exact():
    # t (t^3 - 0.25 t + 2^-1.5), as a normalized random spec gives it
    p = Poly([0j, 0.35355339059327395 + 0j, -0.2500000000000001 + 0j, 0j,
              1 + 0j])
    got = _cluster_map(poly_roots(p))
    assert got[0j] == 1 and len(got) == 4
    got = _cluster_map(poly_roots(p * Poly([0j, 1 + 0j])))
    assert got[0j] == 2 and len(got) == 4


def _clusters(p):
    return {(repr(c.center), c.multiplicity, c.exact) for c in poly_roots(p)}


@pytest.mark.parametrize("p, want", [
    # ex7_3's Q1 = -t^3 and ex7_2's Q1 = -t^4 - t^2
    (Poly.exact([0, 0, 0, -1]), {("GaussRational(0)", 3, True)}),
    (Poly.exact([0, 0, -1, 0, -1]), {("GaussRational(0)", 2, True),
                                     ("GaussRational(0, 1)", 1, True),
                                     ("GaussRational(0, -1)", 1, True)}),
    # t^2 (t - 1/2)^2
    (Poly.exact([0, 0, Fraction(1, 4), -1, 1]),
     {("GaussRational(0)", 2, True), ("GaussRational(1/2)", 2, True)}),
    # t^3 (t + 1), float
    (Poly([0j, 0j, 0j, 1 + 0j, 1 + 0j]), {("0j", 3, False),
                                          ("(-1+0j)", 1, False)}),
])
def test_zero_root_is_peeled_before_aberth(monkeypatch, p, want):
    from laplace_ode import ratfun
    aberth = ratfun._aberth
    seen = []

    def spy(coeffs):
        seen.append(list(coeffs))
        return aberth(coeffs)

    monkeypatch.setattr(ratfun, "_aberth", spy)
    assert _clusters(p) == want
    # Aberth would crawl onto a multiple root at 0 a digit at a time
    assert all(coeffs[0] != 0 for coeffs in seen), seen
