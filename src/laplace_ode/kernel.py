"""Kernel construction and evaluation of its logarithm at given arguments.

The kernel associated with the operator is stored in factored form

    phi(t) = prod_nu (t - t_nu)^(-m_nu - lambda_nu)
             * exp[ R0(t) + sum_nu R_nu(1/(t - t_nu)) ]

with R0 the negative antiderivative of the polynomial part of Q0/Q1
(integration constant 0) and R_nu built from the higher principal-part
coefficients.  The leading constant is fixed to 1, which pins the otherwise
free normalization; for the classical second-order fixture this makes the
distinguished contour solution equal the Airy function on the nose.
The kernel takes each arg(t - t_nu) as given: the path picks the sheet
(``contour.Polygon``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError
from .odespec import OdeSpec, build_q, is_normalized
from .poly import Poly, horner
from .ratfun import partial_fractions
from .scalars import GaussRational
from .series import integer_value

PATH_CLEARANCE = 1e-3


@dataclass
class KernelData:
    """Factored kernel plus the structural data evaluation needs."""

    spec: OdeSpec
    q0: Poly
    q1: Poly
    r0: Poly                         # -antiderivative(Q0/Q1's polynomial part)
    poles: list                      # PoleData per root of Q1
    m: int                           # n - q
    exact: bool = False

    # filled in __post_init__
    singular_radius: float = 0.0
    residue_sum: complex = 0j
    is_single_valued: bool = True    # every exponent is an integer
    _locs: np.ndarray = field(default=None, repr=False)
    _exps: np.ndarray = field(default=None, repr=False)
    # complex coefficients of r0 and of each R_nu, converted once: the
    # evaluation loops would otherwise convert GaussRationals per call
    _r0c: list = field(default=None, repr=False)
    _rc: list = field(default=None, repr=False)
    _disks: list = field(default=None, repr=False)   # contour._pole_disks
    # solutions.residue_solution by pole index, each built on first use
    _residues: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        locs = [p.location_complex for p in self.poles]
        self.singular_radius = max((abs(z) for z in locs), default=0.0)
        self.residue_sum = sum((p.lam for p in self.poles), GaussRational(0))
        self.is_single_valued = all(p.lam_integer is not None
                                    for p in self.poles)
        self._locs = np.array(locs, dtype=complex)
        self._exps = np.array([p.exponent_complex for p in self.poles],
                              dtype=complex)
        self._r0c = self.r0.complex_coeffs()
        self._rc = [p.r_poly.complex_coeffs() for p in self.poles]

    @property
    def residue_sum_complex(self) -> complex:
        return complex(self.residue_sum)

    @property
    def residue_sum_integer(self):
        return integer_value(self.residue_sum)

    @property
    def single_valued_outside(self) -> bool:
        """Single-valued on |t| > singular_radius iff sum of residues is integer."""
        return self.residue_sum_integer is not None

    def clearance(self) -> np.ndarray:
        return PATH_CLEARANCE * (1.0 + np.abs(self._locs))

    # -- pointwise pieces ---------------------------------------------------

    def log_magnitude_bound(self, t: np.ndarray) -> np.ndarray:
        """Upper estimate of Re log phi used for contour planning."""
        t = np.asarray(t, dtype=complex)
        val = horner(self._r0c, t).real
        for rc, loc, e in zip(self._rc, self._locs, self._exps):
            d = np.maximum(np.abs(t - loc), 1e-300)
            val = val + e.real * np.log(d) + abs(e.imag) * math.pi
            if rc:
                val = val + np.abs(horner(rc, 1.0 / (t - loc)))
        return val

    def log_phi_with_args(self, t: np.ndarray, args: np.ndarray) -> np.ndarray:
        """log phi at points t given continued arg(t - t_nu) per pole.

        ``args`` has shape (npoles, len(t)).
        """
        t = np.asarray(t, dtype=complex)
        out = horner(self._r0c, t)
        for k, (rc, loc, e) in enumerate(zip(self._rc, self._locs, self._exps)):
            d = t - loc
            out = out + e * (np.log(np.abs(d)) + 1j * args[k])
            if rc:
                out = out + horner(rc, 1.0 / d)
        return out


def build_kernel(spec: OdeSpec) -> KernelData:
    """Factor the kernel of a normalized spec."""
    if not is_normalized(spec):
        raise SpecError("spec must be normalized before building the kernel "
                        "(call normalize first)")
    q0, q1 = build_q(spec)
    outer, poles = partial_fractions(q0, q1)
    r0 = -outer.antiderivative()
    exact = q0.is_exact and q1.is_exact and all(p.exact for p in poles)
    kd = KernelData(spec=spec, q0=q0, q1=q1, r0=r0,
                    poles=poles, m=spec.n - spec.indices.q, exact=exact)
    lead = kd.r0.coeff(kd.m + 1)
    target = GaussRational(1) / GaussRational(kd.m + 1)
    if abs(complex(lead) - complex(target)) > 1e-12:
        raise SpecError("kernel leading term %r does not match 1/(m+1); "
                        "spec is not normalized" % (lead,))
    return kd


def polygon_distances(vertices: np.ndarray, points) -> np.ndarray:
    """Distance from each of ``points`` to the polygon through ``vertices``."""
    start, step = vertices[:-1], np.diff(vertices)
    if not len(step):
        start, step = vertices, np.zeros(1)
    norm = np.maximum(np.abs(step) ** 2, 1e-300)
    points = np.asarray(points)[:, None]
    lam = np.clip(((points - start) * step.conj()).real / norm, 0.0, 1.0)
    return np.abs(start + lam * step - points).min(axis=1)


def continue_args(kd: KernelData, pts: np.ndarray) -> np.ndarray:
    """Continue arg(t - t_nu) along the polygon through ``pts`` from its
    principal values at ``pts[0]``.

    A chord that misses t_nu turns arg(t - t_nu) by less than pi, so the
    principal angle it subtends, arg((b - t_nu) / (a - t_nu)), is its exact
    increment.  The caller keeps every chord clear of the poles (as
    ``contour.Polygon`` does); nothing is checked here.
    """
    pts = np.asarray(pts, dtype=complex)
    d = pts[None, :] - kd._locs[:, None]
    turns = np.angle(d[:, 1:] / d[:, :-1])
    return np.angle(d[:, :1]) + np.concatenate(
        [np.zeros((len(d), 1)), np.cumsum(turns, axis=1)], axis=1)
