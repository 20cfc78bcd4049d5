"""Complex polynomial root finding and rational-function algebra.

Roots are located by Aberth-Ehrlich simultaneous iteration, merged into
multiplicity clusters, and confirmed by derivative tests.  When the input
polynomial has exact Gaussian-rational coefficients, rational roots are
peeled off by exact trial division first, so fixture kernels stay exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cmp_to_key

from .errors import RootFindingError
from .poly import Poly, horner
from .scalars import field_int, is_exact, rational_snap_candidates
from .series import integer_value, poly_series, series_div

CLUSTER_TOL = 1e-6
ROOT_RESIDUAL_TOL = 1e-10
ABERTH_MAX_ITER = 400
INT_TOL = 1e-8


@dataclass(frozen=True)
class RootCluster:
    """A root with multiplicity; exact is set when the root is certified."""

    center: object            # complex or GaussRational
    multiplicity: int
    exact: bool = False

    @property
    def center_complex(self) -> complex:
        return complex(self.center)


@dataclass
class PoleData:
    """One root t_nu of Q1: a pole of Q0/Q1 and a factor of the kernel
    (t - t_nu)^(-m - lambda) * exp(R_nu(1/(t - t_nu))).

    ``multiplicity`` is the multiplicity m of the root of Q1; ``lam`` is
    the 1/(t - t0) Laurent coefficient of Q0/Q1 there; ``principal`` holds
    the full principal part [c_1 .. c_m] with c_k the coefficient of
    (t - t0)^(-k) (so c_1 == lam and trailing entries may vanish when Q0
    cancels part of the pole); ``r_poly`` is R_nu as a polynomial in
    1/(t - t_nu) without constant term.
    """

    location: object                 # complex or GaussRational
    multiplicity: int
    lam: object
    principal: list
    r_poly: Poly
    exact: bool = False

    @property
    def location_complex(self) -> complex:
        return complex(self.location)

    @property
    def exponent(self):
        """Exponent of (t - t_nu) in the factored kernel: -m - lambda."""
        return -(self.lam + self.multiplicity)

    @property
    def exponent_complex(self) -> complex:
        return complex(self.exponent)

    @property
    def lam_integer(self):
        return integer_value(self.lam, INT_TOL)

    @property
    def is_singular(self) -> bool:
        """False when the factor is an entire power (nonneg integer exponent
        and no essential part), i.e. the kernel is analytic at the point."""
        if not self.r_poly.is_zero:
            return True
        e = integer_value(self.exponent, INT_TOL)
        return e is None or e < 0

    @property
    def is_essential(self) -> bool:
        return not self.r_poly.is_zero

    @property
    def order_of_q0q1(self) -> int:
        """Actual pole order of Q0/Q1 (< multiplicity when Q0 cancels)."""
        for k in range(len(self.principal), 0, -1):
            c = self.principal[k - 1]
            if (self.exact and bool(c)) or (not self.exact and abs(complex(c)) > 1e-12):
                return k
        return 0


def _aberth(coeffs):
    """Aberth-Ehrlich iteration for all roots of a complex polynomial (scalar
    coefficients, ascending), every root stepping from the last iterates."""
    d = len(coeffs) - 1
    if d == 1:
        return [-coeffs[0] / coeffs[1]]
    monic = [c / coeffs[-1] for c in coeffs]
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    z = [0.6 * radius * cmath.exp(2j * math.pi * (k + 0.25) / d + 0.4j * k / d)
         for k in range(d)]
    dcoeffs = [k * c for k, c in enumerate(monic)][1:]
    for _ in range(ABERTH_MAX_ITER):
        steps = []
        for k, zk in enumerate(z):
            dp = horner(dcoeffs, zk)
            newton = horner(monic, zk) / dp if dp != 0 else 0.1
            sums = sum(1.0 / (zk - zj) for j, zj in enumerate(z) if j != k)
            denom = 1.0 - newton * sums
            steps.append(newton / (denom if abs(denom) >= 1e-30 else 1e-30))
        z = [zk - sk for zk, sk in zip(z, steps)]
        if max(map(abs, steps)) < 1e-14 * (1.0 + max(map(abs, z))):
            break
    return z


def _exact_rational_roots(p: Poly):
    """Peel off Gaussian-rational roots by verified exact division.

    Aberth runs once on p; the snap candidates of each numeric root are
    tried against what is left after the roots already peeled.
    """
    roots = []
    work = p
    for z in _aberth(p.complex_coeffs()):
        if work.degree < 1:
            break
        for cand in rational_snap_candidates(z):
            if work(cand):
                continue
            mult = 0
            while work.degree >= 1:
                quot, rem = _divide_linear(work, cand)
                if rem:
                    break
                work = quot
                mult += 1
            if mult:
                roots.append(RootCluster(center=cand, multiplicity=mult,
                                         exact=True))
                break
    return roots, work


def _root_order(a, b) -> int:
    """-1, 0 or 1 as root a sorts before, with or after root b: by modulus,
    then real part, then imaginary part.  Unless both are exact, moduli and
    real parts within 1e-12 (1 + |t|) count as equal, so rounding noise
    cannot decide which pole of a conjugate pair comes first: the one with
    negative imaginary part does."""
    x, y = complex(a), complex(b)
    tol = 0.0 if is_exact(a) and is_exact(b) else 1e-12 * (1.0 + abs(x))
    for u, v in ((abs(x), abs(y)), (x.real, y.real)):
        if abs(u - v) > tol:
            return -1 if u < v else 1
    return (x.imag > y.imag) - (x.imag < y.imag)


_root_key = cmp_to_key(_root_order)


def poly_roots(p: Poly):
    """All roots of p as multiplicity clusters.

    Nearby numeric roots (within CLUSTER_TOL * (1 + |center|)) are merged;
    each merged cluster is confirmed by derivative tests and the center is
    polished on the (k-1)-th derivative, where the root is simple.  A real
    polynomial's roots within 1e-12 (1 + |t|) of the real axis are returned
    real, so no later branch choice rests on the sign of rounding noise,
    and its other roots as exact conjugate pairs.
    """
    if p.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")

    peeled, work = [], p
    if not p.coeffs[0]:
        # t = 0 is a root exactly: Aberth would crawl onto it a digit at a
        # time, and leave a float one off by rounding noise
        k = next(k for k, c in enumerate(p.coeffs) if c)
        peeled = [RootCluster(field_int(0, p.coeffs), k, exact=p.is_exact)]
        work = Poly(p.coeffs[k:])
    if work.is_exact and work.degree >= 1:
        rational, work = _exact_rational_roots(work)
        peeled += rational
    if work.degree < 1:
        _check_count(peeled, p)
        return peeled

    coeffs = work.complex_coeffs()
    raw = _aberth(coeffs)

    clusters = []
    used = [False] * len(raw)
    for idx in sorted(range(len(raw)), key=lambda k: abs(raw[k])):
        if used[idx]:
            continue
        group = [idx]
        used[idx] = True
        for jdx in range(len(raw)):
            if used[jdx]:
                continue
            if abs(raw[jdx] - raw[idx]) <= CLUSTER_TOL * (1.0 + abs(raw[idx])):
                group.append(jdx)
                used[jdx] = True
        center = sum(raw[g] for g in group) / len(group)
        mult = len(group)
        mult = _confirm_multiplicity(work, center, mult)
        center = _polish(work, center, mult)
        clusters.append(RootCluster(center=center, multiplicity=mult))

    clusters = _merge_confirmed(clusters)
    clusters = _merge_by_derivative_test(work, clusters)
    if not any(c.imag for c in coeffs):
        # a root below the axis takes the conjugate of its mate above
        for k, c in enumerate(clusters):
            t = c.center
            if abs(t.imag) <= 1e-12 * (1.0 + abs(t)):
                t = complex(t.real, 0.0)
            elif t.imag < 0:
                t = next((u.center.conjugate() for u in clusters
                          if u.center.imag > 0 and
                          u.multiplicity == c.multiplicity and
                          abs(u.center - t.conjugate()) <=
                          CLUSTER_TOL * (1.0 + abs(t))), t)
            clusters[k] = replace(c, center=t)
    _check_residuals(work, clusters)
    clusters = peeled + clusters
    _check_count(clusters, p)
    return clusters


def _merge_by_derivative_test(p: Poly, clusters):
    """Merge near-clusters that double precision cannot separate.

    A multiplicity-m root is only computable to about eps^(1/m), which can
    exceed the nominal cluster tolerance; wider merges are accepted only
    when the derivative test confirms the combined multiplicity.
    """
    changed = True
    while changed and len(clusters) > 1:
        changed = False
        clusters.sort(key=lambda c: _root_key(c.center))
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                a, b = clusters[i], clusters[j]
                gap = abs(a.center_complex - b.center_complex)
                if gap > 5e-4 * (1.0 + abs(a.center_complex)):
                    continue
                mult = a.multiplicity + b.multiplicity
                center = (a.center_complex * a.multiplicity +
                          b.center_complex * b.multiplicity) / mult
                polished = _polish(p, center, mult)
                if abs(polished - center) > 10 * gap + 1e-9 * (1 + abs(center)):
                    continue
                if _confirm_multiplicity(p, polished, mult) != mult:
                    continue
                merged = RootCluster(center=polished, multiplicity=mult)
                clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
                clusters.append(merged)
                changed = True
                break
            if changed:
                break
    return clusters


def _confirm_multiplicity(p: Poly, center: complex, mult: int) -> int:
    """Derivative test: smallest k with |p^(k)(center)| above noise scale."""
    for k in range(0, mult):
        dk = p.derivative(k)
        scale = sum(abs(c) * max(1.0, abs(center)) ** j
                    for j, c in enumerate(dk.complex_coeffs()))
        if abs(dk(center)) > 1e-6 * max(scale, 1e-300):
            return max(1, k)
    return mult


def _polish(p: Poly, center: complex, mult: int) -> complex:
    """Newton polish on p^(mult-1), where the cluster center is a simple root."""
    g = p.derivative(mult - 1)
    dg = g.derivative()
    z = center
    for _ in range(60):
        gv = g(z)
        dv = dg(z)
        if dv == 0:
            break
        step = gv / dv
        z = z - step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def _merge_confirmed(clusters):
    """Re-merge clusters whose polished centers collided."""
    merged = []
    for c in sorted(clusters, key=lambda c: _root_key(c.center)):
        for m in merged:
            if abs(m.center_complex - c.center_complex) <= \
                    CLUSTER_TOL * (1.0 + abs(m.center_complex)):
                mult = m.multiplicity + c.multiplicity
                merged.remove(m)
                merged.append(RootCluster(center=m.center, multiplicity=mult))
                break
        else:
            merged.append(c)
    return merged


def _check_residuals(p: Poly, clusters):
    scale = p.max_abs_coeff()
    for c in clusters:
        dk = p.derivative(c.multiplicity - 1)
        val = abs(dk(c.center_complex))
        bound = ROOT_RESIDUAL_TOL * max(dk.max_abs_coeff(), scale) * \
            max(1.0, abs(c.center_complex)) ** max(p.degree - c.multiplicity + 1, 0)
        if val > bound:
            raise RootFindingError(
                "root finder did not converge: residual %.3e at %s exceeds %.3e"
                % (val, c.center_complex, bound))


def _check_count(clusters, p: Poly):
    total = sum(c.multiplicity for c in clusters)
    if total != p.degree:
        raise RootFindingError("found multiplicity total %d for degree %d"
                               % (total, p.degree))


def principal_part(q0: Poly, q1: Poly, root: RootCluster):
    """Full principal part [c_1..c_m] of Q0/Q1 at one root of Q1.

    Writes Q1 = (t - t0)^m S(t) and series-divides Q0 by S about t0:
    c_k is the (m-k)-th Taylor coefficient of Q0/S.
    """
    m = root.multiplicity
    exact = root.exact and q0.is_exact and q1.is_exact
    if exact:
        t0 = root.center
    else:
        t0, q0, q1 = complex(root.center), q0.to_complex(), q1.to_complex()
    s_poly = _deflate(q1, t0, m, exact)
    order = m - 1
    g = series_div(poly_series(q0, t0, order), poly_series(s_poly, t0, order),
                   order)
    # c_k = g[m-k]
    return [g[m - k] for k in range(1, m + 1)], exact


def _divide_linear(p: Poly, r):
    """Quotient and remainder of p by (t - r), by synthetic division."""
    acc = []
    for c in reversed(p.coeffs):
        acc.append(c + r * acc[-1] if acc else c)
    rem = acc.pop() if acc else 0
    return Poly(acc[::-1]), rem


def _deflate(q1: Poly, t0, m: int, exact: bool) -> Poly:
    """Q1 / (t - t0)^m.  An exact root must leave no remainder; a numeric
    one leaves rounding noise, which is dropped."""
    s_poly = q1
    for _ in range(m):
        s_poly, rem = _divide_linear(s_poly, t0)
        if exact and rem:
            raise RootFindingError("exact deflation failed at %r" % (t0,))
    return s_poly


def partial_fractions(q0: Poly, q1: Poly):
    """Decompose Q0/Q1 = outer + sum of principal parts at the roots of Q1.

    Returns (outer, poles); outer is the polynomial quotient and poles is a
    list of PoleData carrying full principal parts and R_nu.
    """
    if q1.is_zero:
        raise ValueError("Q1 must not vanish identically")
    outer, _rem = divmod(q0, q1)
    if q1.degree == 0:
        return outer, []
    roots = poly_roots(q1)
    poles = []
    for r in roots:
        coeffs, exact = principal_part(q0, q1, r)
        # R_nu(x) = sum_{k=2}^{m} c_k x^(k-1) / (k-1), x = 1/(t - t_nu)
        r_coeffs = [field_int(0, coeffs)] + \
            [coeffs[k - 1] / (k - 1) for k in range(2, r.multiplicity + 1)]
        poles.append(PoleData(location=r.center, multiplicity=r.multiplicity,
                              lam=coeffs[0], principal=coeffs,
                              r_poly=Poly(r_coeffs), exact=exact))
    poles.sort(key=lambda p: _root_key(p.location))
    return outer, poles
