"""``SolutionHandle.eval_many`` against per-cell evaluation.

A contour solution's ``eval_many`` plans every z on its own, integrates
the paths of each batch of ``BATCH_CELLS`` z in one ``laplace_eval_batch``
call (their first passes in one kernel call and one sums call) and adds
each cell's residues.  Every cell must come back exactly as ``eval_multi``
gives it alone: mantissa, log_scale, est_error, nodes_used and flags.
"""

import cmath
import math

import numpy as np
import pytest

from laplace_ode import ContourError, indicator_empirical, solutions
from laplace_ode import contour
from laplace_ode.contour import (_polygon, canonical_contour,
                                 laplace_eval_batch, laplace_eval_multi,
                                 plan_contour)
from laplace_ode.kernel import KernelData
from laplace_ode.problem import FIXTURE_NAMES

TOL = 1e-8
# the analysis-sweep indicator grid, and |z| on both sides of it
THETAS = np.linspace(-math.pi + 0.3, math.pi - 0.3, 7)
MODULI = (0.3, 3.0, 10.0, 20.0, 40.0)
CELLS = [r * cmath.exp(1j * th) for th in THETAS for r in MODULI]


def _fields(quads):
    return None if quads is None else [vars(q) for q in quads]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_eval_many_equals_per_cell(problems, name):
    prob = problems(name)
    kd = prob.kernel
    js = list(range(prob.spec.n + 1))
    kinds = {"canonical": 0, "windings": 0, "anchors": 0}
    for nu in range(kd.m + 1):
        h = prob.lam(nu)
        many = h.eval_many(CELLS, js, TOL)
        assert len(many) == len(CELLS)
        for z, got in zip(CELLS, many):
            assert _fields(got) == _fields(h.eval_multi(z, js, TOL)), (nu, z)
            pk = plan_contour(kd, nu, z, TOL)
            canonical = _polygon(kd, canonical_contour(kd, nu), z, TOL)
            kinds["canonical"] += np.array_equal(pk.vertices,
                                                 canonical.vertices)
            kinds["windings"] += bool(pk.windings)
            kinds["anchors"] += pk.anchors is not None
    # every fixture has canonical cells (|z| = 0.3); ex7_1's descent cells
    # sweep poles, whose residues are added back, and ex7_6's paths carry
    # branch anchors
    assert kinds["canonical"] > 0
    if name == "ex7_1":
        assert kinds["windings"] > 0
    if name == "ex7_6":
        assert kinds["anchors"] == (kd.m + 1) * len(CELLS)


def test_batch_within_a_small_node_budget(problems, monkeypatch):
    """On ex7_6 at tol 1e-10, two paths at |z| = 40 cost 1,134 nodes on
    their first pass, more than the budget of 1,000, and come back zero,
    flagged; two at |z| = 20 start at 819 and need 1,155, so the budget
    ends their refinement.  Each comes back as it does alone."""
    kd = problems("ex7_6").kernel
    js, budget = [0, 1], 1000
    monkeypatch.setattr(contour, "NODE_BUDGET", budget)
    got = laplace_eval_batch([plan_contour(kd, 0, z) for z in CELLS],
                             CELLS, js, 1e-10)
    want = [laplace_eval_multi(kd, plan_contour(kd, 0, z), z, js, 1e-10)
            for z in CELLS]
    assert [_fields(q) for q in got] == [_fields(q) for q in want]
    exhausted = [q[0].nodes_used for q in got
                 if "node_budget_exhausted" in q[0].flags]
    assert 0 in exhausted and max(exhausted) > 0
    assert all(q[0].nodes_used <= budget for q in got)


def test_first_passes_take_one_kernel_call(problems, monkeypatch):
    """One batch of cells has its first passes laid out in one
    ``_interval_nodes`` call over every edge of every path and summed in one
    ``_interval_sums`` call; each later call is one refinement round of one
    path.  Each path's rows of that joint table are its own first pass,
    bit for bit: the K21 nodes on the whole of each of its edges."""
    prob = problems("ex7_6")
    kd = prob.kernel
    nodes, sums, kernel = [], [], [0]
    interval_nodes, interval_sums = contour._interval_nodes, \
        contour._interval_sums
    log_phi = KernelData.log_phi_with_args

    def counted_nodes(pk, k, *args):
        nodes.append(len(k))
        data = interval_nodes(pk, k, *args)
        joint.append(data)
        return data

    def counted_sums(z, js, t, *args):
        sums.append(len(t))
        return interval_sums(z, js, t, *args)

    def counted_kernel(self, t, args):
        kernel[0] += 1
        return log_phi(self, t, args)

    cells = CELLS[:solutions.BATCH_CELLS]
    paths = [plan_contour(kd, 0, z, TOL) for z in cells]
    edges = sum(len(pk.steps) for pk in paths)
    joint = []      # what each _interval_nodes call returns
    monkeypatch.setattr(contour, "_interval_nodes", counted_nodes)
    monkeypatch.setattr(contour, "_interval_sums", counted_sums)
    monkeypatch.setattr(KernelData, "log_phi_with_args", counted_kernel)
    prob.lam(0).eval_many(cells, [0], TOL)
    assert nodes[0] == sums[0] == edges
    assert len(nodes) == len(sums) == kernel[0]
    monkeypatch.undo()
    end = 0
    for pk in paths:
        rows = slice(end, end + len(pk.steps))
        end = rows.stop
        for got, want in zip(joint[0], pk.first_pass):
            assert np.array_equal(got[rows], want)
        x = 0.5 + 0.5 * contour._GL_NODES
        assert np.array_equal(pk.first_pass[0],
                              pk.starts[:, None] + x * pk.steps[:, None])
    assert end == edges


@pytest.mark.parametrize("count", [len(CELLS), 8])
def test_a_large_grid_is_taken_in_batches(problems, monkeypatch, count):
    """eval_many integrates at most BATCH_CELLS z at a time, in order, so
    its memory does not grow with the grid.  Eight cells leave one for the
    last batch, whose table holds that one path's edges alone."""
    prob = problems("ex7_6")
    cells = CELLS[:count]
    batches = []
    batch = solutions.laplace_eval_batch

    def counted(paths, *args):
        batches.append(len(paths))
        return batch(paths, *args)

    monkeypatch.setattr(solutions, "laplace_eval_batch", counted)
    many = prob.lam(0).eval_many(cells, [0], TOL)
    size = solutions.BATCH_CELLS
    assert batches == [len(cells[c:c + size])
                       for c in range(0, len(cells), size)]
    assert len(batches) > 1
    assert [_fields(q) for q in many] == \
        [_fields(prob.lam(0).eval_multi(z, [0], TOL)) for z in cells]


def test_a_batch_keeps_nothing_on_its_paths(problems):
    """laplace_eval_batch sets no attribute on the paths it is given: their
    first passes are laid out in its own joint table, not kept.  Each
    path's ``log_reach``, which the overflow check reads, is its own."""
    kd = problems("ex7_6").kernel
    cells = CELLS[:solutions.BATCH_CELLS]
    paths = [plan_contour(kd, 0, z, TOL) for z in cells]
    assert all(pk.log_reach >= 0 for pk in paths)

    def attributes():
        return [{name: id(x) for name, x in vars(pk).items()} for pk in paths]

    before = attributes()
    laplace_eval_batch(paths, cells, [0, 1], TOL)
    assert attributes() == before


def test_an_overflowing_cell_is_none_alone(airy):
    """On airy, (-t)^400 fits a double on the path at z = 2 (400 log_reach
    < 700) but not on the one at z = 10: that cell alone comes back None."""
    lam = airy.lam(0)
    got = lam.eval_many([2, 10], [400])
    assert _fields(got[0]) == _fields(lam.eval_multi(2, [400]))
    assert got[1] is None


def test_a_failed_cell_is_none_among_filled_ones(problems, monkeypatch):
    """A cell whose planning raises NumericError comes back None, and the
    indicator records NaN there alone."""
    prob = problems("ex7_1")
    h = prob.lam(0)
    js = [0, 1]
    want = [h.eval_multi(z, js, TOL) for z in CELLS]
    bad = 9
    plan = solutions.plan_contour

    def failing(kd, nu, z, tol):
        if z == CELLS[bad]:
            raise ContourError("stand-in failure")
        return plan(kd, nu, z, tol)

    monkeypatch.setattr(solutions, "plan_contour", failing)
    got = h.eval_many(CELLS, js, TOL)
    assert got[bad] is None
    assert [_fields(q) for k, q in enumerate(got) if k != bad] == \
        [_fields(q) for k, q in enumerate(want) if k != bad]
    prof = indicator_empirical(h, prob.rho_max, THETAS, MODULI)
    nan = np.isnan(prof.h_emp)
    assert nan.sum() == 1 and nan[np.unravel_index(bad, nan.shape)]
