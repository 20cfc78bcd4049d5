"""Convenience facade bundling the full pipeline for one ODE spec."""

from __future__ import annotations

import importlib.resources
import math
from functools import cached_property

from .analysis import order_catalog
from .kernel import build_kernel
from .odespec import OdeSpec, load_spec, normalize, parse_ode
from .solutions import (lambda_solution, residue_solutions, symmetry_sum)


class Problem:
    """Parsed spec, its normalization, kernel, and solution handles."""

    def __init__(self, spec: OdeSpec):
        self.raw_spec = spec
        self.spec, self.scale = normalize(spec)

    @classmethod
    def from_text(cls, text: str) -> "Problem":
        return cls(parse_ode(text))

    @classmethod
    def from_file(cls, path) -> "Problem":
        return cls(load_spec(path))

    @property
    def indices(self):
        return self.spec.indices

    @cached_property
    def kernel(self):
        return build_kernel(self.spec)

    @cached_property
    def catalog(self):
        return order_catalog(self.spec)

    @property
    def rho_max(self) -> float:
        return float(self.indices.rho_max)

    @property
    def indicator_case(self) -> str:
        return "q_eq_n_minus_1" if self.indices.q == self.spec.n - 1 \
            else "generic"

    def lam(self, nu: int = 0):
        return lambda_solution(self.kernel, nu)

    def residues(self):
        return residue_solutions(self.kernel)

    def symmetry(self):
        return symmetry_sum(self.kernel)


def sample_points(count: int = 20, radius: float = 3.0):
    """Deterministic low-discrepancy points in the disk of given radius."""
    pts = []
    for k in range(count):
        r = radius * (0.08 + 0.92 * (k / max(count - 1, 1)))
        th = 2 * math.pi * ((k * 0.381966011250105) % 1.0)
        pts.append(complex(r * math.cos(th), r * math.sin(th)))
    return pts


def fixture_path(name: str):
    """Path to a packaged fixture spec (e.g. 'airy', 'ex7_2')."""
    if not name.endswith(".json"):
        name = name + ".json"
    return importlib.resources.files("laplace_ode") / "fixtures" / name


FIXTURE_NAMES = ["airy", "ex7_1", "ex7_2", "ex7_3", "ex7_4", "ex7_5",
                 "ex7_6", "cubic_airy"]
