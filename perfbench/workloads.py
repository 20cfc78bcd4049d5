"""Seeded generators for the three workloads.

Every operation is one argv for ``laplace_ode.cli.main``; the program sees
nothing but that argv and the spec files it names.  The seed draws the
random specs, |z| and the zero-count sectors, and orders the ops.  Where a
seeded draw would decide a large share of a run's cost (arg z of an eval,
the indicator's theta grid) the value is fixed instead, so runs on
different seeds do the same mix of work.

A workload is a fixed list of distinct operations, the same for the same
seed; a run cycles through it.  So which operations a run attempts, and
which of them fail, follows from the seed alone, not from how fast the
host ran.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import AIRY_ZEROS, GQ, normalization_target, struct_q

FIXTURES = ["airy", "cubic_airy", "ex7_1", "ex7_2", "ex7_3", "ex7_4",
            "ex7_5", "ex7_6"]


@dataclass
class Spec:
    name: str
    path: str
    a: list                 # coefficients as GQ, exactly as in the file
    b: list

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        """Number of distinguished solutions minus one: n - q."""
        return self.n - struct_q(self.b)


@dataclass
class Op:
    kind: str               # eval | zeros | indicator | residues
    spec: Spec
    argv: list
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        def fmt(v):
            if isinstance(v, complex):
                return "%.6g%+.6gj" % (v.real, v.imag)
            if isinstance(v, tuple):
                return ",".join("%.4f" % x for x in v)
            return str(v)

        shown = ", ".join("%s=%s" % (k, fmt(v)) for k, v in self.params.items())
        return "%s %s (%s)" % (self.kind, self.spec.name, shown)


@dataclass
class Workload:
    name: str
    why: str
    specs: list             # every Spec the operations use (set-up builds each)
    ops: list               # the run's distinct operations, in running order


def _coeff(v) -> GQ:
    if isinstance(v, list):
        return GQ(v[0], v[1])
    return GQ(v)


def load_fixture(root: Path, name: str) -> Spec:
    path = root / "src" / "laplace_ode" / "fixtures" / (name + ".json")
    doc = json.loads(path.read_text())
    spec = Spec(name, str(path), [_coeff(v) for v in doc["a"]],
                [_coeff(v) for v in doc["b"]])
    q = struct_q(spec.b)
    if spec.b[q] != GQ(normalization_target(spec.n, q)):
        # eval checks substitute into the fixture's own coefficients
        raise ValueError("fixture %s is not normalized" % name)
    return spec


def _zarg(z: complex) -> str:
    # "--z=re,im": argparse would read "--z -3,1" as a flag
    return "--z=%r,%r" % (z.real, z.imag)


# ----------------------------------------------------------------------------
# eval-scatter
# ----------------------------------------------------------------------------

EVAL_BANDS = [(0.25, 3.0), (9.0, 11.0), (18.0, 22.0), (38.0, 42.0)]
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

EVAL_WHY = ("independent single-point evals: every op plans its own contour, "
            "so planning, truncation and refinement do the work; |z|~40 "
            "carries the node-budget failures")


def eval_scatter(root: Path, seed: int, workdir: Path) -> Workload:
    """`eval` of Lambda_nu at one z with --j 0..n at tol 1e-10, one op for
    every fixture, |z| band and nu: 88 evals.

    Why: independent single-point requests.  The ops are shuffled, so
    consecutive ops rarely share a fixture and never a nearby z; planning,
    the truncation solve and adaptive refinement do all the work.  The
    |z| ~ 40 band carries today's node-budget failures.  A change that
    reuses work across nearby z is bypassed here and should show no change.

    The seed draws |z| within the band and the order of the ops.  arg z is
    fixed per op, spread over all directions by the golden ratio.  The node
    budget runs out only in narrow sectors, where an op costs ~0.4 s against
    ~0.05 s elsewhere; with seeded directions the seed decided how many ops
    fell there (19 to 37 of 264 over five seeds), and so most of a run's
    time and its fail_share.
    """
    r = random.Random("%d/eval" % seed)
    specs = [load_fixture(root, f) for f in FIXTURES]
    ops = []
    for spec in specs:
        for lo, hi in EVAL_BANDS:
            label = "|z|<=%g" % hi if lo < 1 else "|z|~%d" % round(0.5 * (lo + hi))
            for nu in range(spec.m + 1):
                theta = 2 * math.pi * ((len(ops) * GOLDEN) % 1.0) - math.pi
                z = r.uniform(lo, hi) * cmath.exp(1j * theta)
                argv = ["eval", "--spec", spec.path, _zarg(z), "--nu", str(nu),
                        "--tol", "1e-10"]
                for j in range(spec.n + 1):
                    argv += ["--j", str(j)]
                ops.append(Op("eval", spec, argv, {"z": z, "nu": nu, "band": label}))
    r.shuffle(ops)
    return Workload("eval-scatter", EVAL_WHY, specs, ops)


# ----------------------------------------------------------------------------
# analysis-sweep
# ----------------------------------------------------------------------------

ANALYSIS_WHY = ("zero counts and indicator grids: each job evaluates one "
                "solution at many neighbouring z, where plan reuse, batching "
                "and the indicator thread pool act")
# 7 directions from -pi + 0.3 to pi - 0.3.  Fixed: a seeded grid made one
# fixture's job cost 0.66 s on one seed and 1.95 s on another.
INDICATOR_GRID = "%r:%r:7" % (-math.pi + 0.3, math.pi - 0.3)
ZERO_MARGIN = 0.1       # keep airy zeros this far from the sector boundary


def _airy_sector(r: random.Random, through_axis: bool):
    """A sector of radius 3-6 whose boundary stays ZERO_MARGIN away from
    every zero of Ai (the argument principle needs f != 0 there)."""
    while True:
        width = r.uniform(0.6, 1.6)
        if through_axis:
            center = math.pi + r.uniform(-0.5, 0.5) * (width - 2 * ZERO_MARGIN)
        else:
            center = r.uniform(-math.pi + 0.5 * width + ZERO_MARGIN,
                               math.pi - 0.5 * width - ZERO_MARGIN)
        radius = r.uniform(3.0, 6.0)
        if all(abs(radius + a) > ZERO_MARGIN for a in AIRY_ZEROS):
            return center - 0.5 * width, center + 0.5 * width, radius


def analysis_sweep(root: Path, seed: int, workdir: Path) -> Workload:
    """`zeros` on an airy sector of radius 3-6, or `indicator` on a coarse
    theta grid at radii 10 and 20, one job per operation.

    Why: each job evaluates one solution at many neighbouring z, so plan
    reuse and batched evaluation, the zero counter's refinement and the
    indicator's thread pool act only here.  The jobs are two airy zero
    counts, one on a sector through the negative real axis (where the zeros
    of Ai lie and scipy gives the count) and one on a sector off it, and
    one indicator job per fixture, in shuffled order.  Zero counts stay on
    airy, the only fixture whose count has an oracle; a zero count on
    another fixture costs 2-9 s and would make the job mix, not the
    program, decide a run's figures.
    """
    r = random.Random("%d/analysis" % seed)
    specs = [load_fixture(root, f) for f in FIXTURES]
    airy = specs[0]
    ops = []
    for through_axis in (True, False):
        sector = _airy_sector(r, through_axis)
        ops.append(Op("zeros", airy,
                      ["zeros", "--spec", airy.path, "--sector=%r,%r,%r" % sector],
                      {"sector": sector, "nu": 0}))
    for spec in specs:
        ops.append(Op("indicator", spec,
                      ["indicator", "--spec", spec.path,
                       "--theta-grid=" + INDICATOR_GRID, "--radii", "10,20"],
                      {"theta_grid": INDICATOR_GRID, "radii": "10,20"}))
    r.shuffle(ops)
    return Workload("analysis-sweep", ANALYSIS_WHY, specs, ops)


# ----------------------------------------------------------------------------
# residue-structure
# ----------------------------------------------------------------------------

RESIDUE_WHY = ("residue solutions of random specs: parsing, root finding, "
               "partial fractions and exact series, no contour at all")
RANDOM_SPECS = 200
UNNORMALIZED_LEAD = [-8, -4, -3, -2, 2, 3, 4, 8]


def random_spec(r: random.Random):
    """(a, b) with n in 2..6, small integer coefficients and a leading b_q
    that is not the normalized value, so that `normalize` rescales."""
    n = r.randint(2, 6)
    while True:
        a = [r.randint(-3, 3) for _ in range(n)]
        b = [r.randint(-3, 3) if r.random() < 0.5 else 0 for _ in range(n)]
        if not any(b):
            continue
        q = struct_q(b)
        b[q] = r.choice(UNNORMALIZED_LEAD)
        if a[0] or b[0]:
            return a, b


def residue_structure(root: Path, seed: int, workdir: Path) -> Workload:
    """`residues` on 200 seeded random specs plus the 8 fixtures.

    Why: no contour is evaluated at all.  Spec parsing, exact and Aberth
    root finding, partial fractions, exact series extraction of residues and
    CLI overhead are all the work, so any planning or quadrature change
    must show no change here, and a cost added to Poly or GaussRational
    shows here first.
    """
    rng = random.Random(seed)
    specs = []
    for i in range(RANDOM_SPECS):
        a, b = random_spec(rng)
        path = workdir / ("spec_%03d.json" % i)
        path.write_text(json.dumps({"n": len(a), "a": a, "b": b}))
        specs.append(Spec("random_%03d" % i, str(path),
                          [GQ(x) for x in a], [GQ(x) for x in b]))
    specs += [load_fixture(root, f) for f in FIXTURES]
    ops = [Op("residues", s, ["residues", "--spec", s.path],
              {"a": "[%s]" % ", ".join(map(str, s.a)),
               "b": "[%s]" % ", ".join(map(str, s.b))}) for s in specs]

    random.Random("%d/residues" % seed).shuffle(ops)
    return Workload("residue-structure", RESIDUE_WHY, specs, ops)


WORKLOADS = {
    "eval-scatter": eval_scatter,
    "analysis-sweep": analysis_sweep,
    "residue-structure": residue_structure,
}
