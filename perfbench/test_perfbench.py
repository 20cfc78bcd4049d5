"""Tests of the benchmark's own code: output checks and span arithmetic.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import math
import sys
import threading
from pathlib import Path

import pytest
from scipy.special import airy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from checks import GQ  # noqa: E402
from workloads import Spec, load_fixture  # noqa: E402


def _cplx(c):
    return {"re": c.real, "im": c.imag}


def airy_eval_doc(z, mantissas, log_scale=0.0, flags=()):
    return {"results": [{"z": _cplx(z), "j": j, "mantissa": _cplx(m),
                         "log_scale": log_scale, "flags": list(flags)}
                        for j, m in enumerate(mantissas)]}


AIRY = Spec("airy", "airy.json", [GQ(0), GQ(0)], [GQ(-1), GQ(0)])


# ----------------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("z", [1.5 - 0.5j, -4.0 + 2.0j, 30.0 + 25.0j])
def test_eval_check_accepts_exact_airy_values(z):
    ai, aip, _, _ = airy(z)
    doc = airy_eval_doc(z, [ai, aip, z * ai])
    assert checks.check_eval(doc, AIRY, 0, z, True) == []


def test_eval_check_accepts_values_in_log_form():
    z = 35.0 + 1.0j                          # |Ai| ~ e^-138
    ai, aip, _, _ = airy(z)
    scale = -130.0
    f = math.exp(-scale)
    doc = airy_eval_doc(z, [ai * f, aip * f, z * ai * f], log_scale=scale)
    assert checks.check_eval(doc, AIRY, 0, z, True) == []


def test_eval_check_rejects_perturbed_mantissa():
    z = 2.0 + 1.0j
    ai, aip, _, _ = airy(z)
    doc = airy_eval_doc(z, [ai * (1 + 1e-6), aip, z * ai])
    reasons = checks.check_eval(doc, AIRY, 0, z, True)
    assert any("residual" in r for r in reasons)
    assert any("scipy airy" in r for r in reasons)


def test_eval_residual_alone_rejects_perturbed_mantissa():
    z = 2.0 + 1.0j
    ai, aip, _, _ = airy(z)
    doc = airy_eval_doc(z, [ai, aip, z * ai * (1 + 1e-6)])
    reasons = checks.check_eval(doc, AIRY, 0, z, False)
    assert len(reasons) == 1 and "residual" in reasons[0]


def test_eval_check_reports_flags():
    z = 1.0 + 0j
    ai, aip, _, _ = airy(z)
    doc = airy_eval_doc(z, [ai, aip, z * ai], flags=["node_budget_exhausted"])
    assert checks.check_eval(doc, AIRY, 0, z, True) == \
        ["flags node_budget_exhausted"]


def test_rotated_airy_reference_satisfies_the_ode():
    z = 1.3 - 0.4j
    for nu in range(3):
        w, wp = checks.airy_reference(nu, z)
        h = 1e-4
        w_plus, _ = checks.airy_reference(nu, z + h)
        w_minus, _ = checks.airy_reference(nu, z - h)
        assert abs((w_plus - w_minus) / (2 * h) - wp) < 1e-7
        wpp = (w_plus - 2 * w + w_minus) / h ** 2
        assert abs(wpp - z * w) < 1e-5


# ----------------------------------------------------------------------------
# zeros
# ----------------------------------------------------------------------------

def zeros_doc(count, reliable=True):
    return {"results": [{"count": count, "reliable": reliable,
                         "confidence": 0.0}]}


def test_airy_zero_count_oracle():
    # zeros of Ai: -2.338, -4.088, -5.521, -6.787
    assert checks.airy_zero_count(0, (2.8, 3.6, 5.0)) == 2
    assert checks.airy_zero_count(0, (-3.6, -2.8, 6.0)) == 3
    assert checks.airy_zero_count(0, (-1.0, 1.0, 6.0)) == 0
    # Lambda_1 has its zeros on the ray arg z = pi / 3
    assert checks.airy_zero_count(1, (0.8, 1.3, 3.0)) == 1


def test_zero_check_rejects_count_off_by_one():
    sector = (2.8, 3.6, 5.0)
    assert checks.check_zeros(zeros_doc(2), sector, 0, True) == []
    assert checks.check_zeros(zeros_doc(3), sector, 0, True)
    assert checks.check_zeros(zeros_doc(1), sector, 0, True)


def test_zero_check_rejects_unreliable_count():
    reasons = checks.check_zeros(zeros_doc(0, reliable=False), (0.0, 1.0, 4.0),
                                 0, False)
    assert len(reasons) == 1 and "not reliable" in reasons[0]


def test_indicator_check_rejects_nan_cell():
    doc = {"thetas": [-1.0, 0.0], "radii": [10, 20],
           "h_emp": [[0.1, 0.2], [0.3, float("nan")]]}
    assert checks.check_indicator(doc)
    doc["h_emp"][1][1] = 0.4
    assert checks.check_indicator(doc) == []


# ----------------------------------------------------------------------------
# residues: w'' + z w' - w = 0 has the solution w = z (pole t0 = 0)
# ----------------------------------------------------------------------------

def residues_doc(poly, scale=1.0, pole=0j):
    return {"spec": {"normalization_scale": _cplx(complex(scale))},
            "residue_solutions": [{"pole": _cplx(pole), "poly": poly},
                                  {"pole": _cplx(1j)}]}


RAW_A = [GQ(-1), GQ(0)]
RAW_B = [GQ(0), GQ(1)]


def test_residue_check_accepts_exact_solution():
    assert checks.check_residues(residues_doc(["0", "1"]), RAW_A, RAW_B) == []


def test_residue_check_rejects_non_solution_exactly():
    reasons = checks.check_residues(residues_doc(["1", "1"]), RAW_A, RAW_B)
    assert len(reasons) == 1 and "exact substitution" in reasons[0]


def test_residue_check_normalizes_exactly():
    # b_1 = 4 rescales by s = 1/2 to the same normalized equation
    raw_a, raw_b = [GQ(-4), GQ(0)], [GQ(0), GQ(4)]
    assert checks.check_residues(residues_doc(["0", "1"], 0.5), raw_a, raw_b) == []
    assert checks.check_residues(residues_doc(["1", "1"], 0.5), raw_a, raw_b)
    assert "normalization scale" in \
        checks.check_residues(residues_doc(["0", "1"], -0.5), raw_a, raw_b)[0]


def test_residue_check_float_substitution():
    good = [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]
    bad = [{"re": 1e-6, "im": 0.0}, {"re": 1.0, "im": 0.0}]
    assert checks.check_residues(residues_doc(good), RAW_A, RAW_B) == []
    reasons = checks.check_residues(residues_doc(bad), RAW_A, RAW_B)
    assert len(reasons) == 1 and "substitution residual" in reasons[0]


def test_operator_with_exponential_factor():
    # w = z e^(3z) in w'' + z w' + 2 w: w' = (1 + 3z) e^(3z), w'' = (6 + 9z) e^(3z)
    a, b = [GQ(2), GQ(0)], [GQ(0), GQ(1)]
    got = checks.apply_operator(a, b, [GQ(0), GQ(1)], GQ(3), GQ(0), GQ(1))
    assert got == [GQ(6), GQ(12), GQ(3)]


def test_residue_check_accepts_program_output_on_fixtures():
    pkg = run.import_program()
    for name in ("airy", "ex7_1", "ex7_2", "ex7_3", "ex7_5", "ex7_6"):
        spec = load_fixture(run.ROOT, name)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert pkg.cli.main(["residues", "--spec", spec.path]) == 0
        assert checks.check_residues(json.loads(out.getvalue()),
                                     spec.a, spec.b) == []


# ----------------------------------------------------------------------------
# spans: self time on a synthetic tree, pool threads, tail percentile
# ----------------------------------------------------------------------------

def make_span(id, parent, name, start, end, thread=1):
    sp = spans.Span(id, parent, name, thread, start, 0)
    sp.end = end
    return sp


def test_self_time_on_nested_spans_with_worker_threads():
    tree = [
        make_span(1, None, "root", 0.0, 10.0),
        make_span(2, 1, "a", 1.0, 4.0),
        make_span(3, 2, "a1", 2.0, 3.0),
        make_span(4, 1, "worker_b", 5.0, 9.0, thread=2),
        make_span(5, 1, "worker_c", 6.0, 8.0, thread=3),   # overlaps b
        make_span(6, 4, "b1", 5.5, 6.5, thread=2),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 2.0,
                                   6: 1.0})


def test_covered_clips_and_merges():
    assert spans.covered([(0, 2), (1, 3), (5, 6), (8, 20)], 1.5, 10) == \
        pytest.approx(1.5 + 1 + 2)
    assert spans.covered([], 0, 1) == 0.0


def test_tracer_links_pool_thread_spans_to_submitting_job():
    tracer = spans.Tracer()
    tracer.op = 7
    work = tracer.wrap(lambda x: x * 2, "work")

    def job():
        with tracer.executor_class()(max_workers=3) as ex:
            return list(ex.map(work, range(6)))

    assert tracer.wrap(job, "job")() == [0, 2, 4, 6, 8, 10]
    (job_span,) = [s for s in tracer.spans if s.name == "job"]
    workers = [s for s in tracer.spans if s.name == "work"]
    assert len(workers) == 6
    assert all(s.parent == job_span.id and s.op == 7 for s in workers)
    assert {s.thread for s in workers} != {threading.get_ident()}
    selfs = spans.self_times(tracer.spans)
    busy = spans.covered([(s.start, s.end) for s in workers],
                         job_span.start, job_span.end)
    assert selfs[job_span.id] == pytest.approx(job_span.duration - busy)


def test_install_restores_the_program():
    pkg = run.import_program()
    before = (pkg.solutions.plan_contour, pkg.kernel.KernelData.log_phi_with_args,
              pkg.analysis.ThreadPoolExecutor, pkg.cli.main)
    uninstall = spans.install(spans.Tracer(), pkg)
    assert pkg.solutions.plan_contour is not before[0]
    uninstall()
    assert (pkg.solutions.plan_contour, pkg.kernel.KernelData.log_phi_with_args,
            pkg.analysis.ThreadPoolExecutor, pkg.cli.main) == before


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 31))) == (20, 20)
    assert run.tail(list(range(1, 23))) == (12, 12)
    # too few ops for ten beyond a percentile above the median
    assert run.tail(list(range(1, 21))) == (11, 11)
    assert run.tail(list(range(1, 11))) == (6, 6)
    assert run.tail(list(range(1, 16))) == (8, 8)
    assert run.tail([5, 1, 3]) == (3, 2)


def test_benchmark_json_lists_the_printed_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    recs = [run.Record(object(), 0.01, 0.01, 0, "", "") for _ in range(3)]
    e2e, _ = run.end_to_end(recs, {}, [0.5], 1.0)
    assert [m["name"] for m in declared["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in declared["end_to_end"])

    class FakeCli:
        @staticmethod
        def main(argv):
            return 0

    layers, _, _ = run.per_layer(FakeCli, run.import_program(), [None], 0.02)
    assert [m["name"] for m in declared["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in declared["per_layer"])


def test_check_record_separates_flagged_from_silent_failures():
    z = 2.0 + 1.0j
    ai, aip, _, _ = airy(z)
    op = run.workloads.Op("eval", AIRY, [], {"z": z, "nu": 0})

    def record(doc, rc=0, error=None):
        return run.Record(op, 0.01, 0.01, rc, json.dumps(doc), "boom", error)

    good = airy_eval_doc(z, [ai, aip, z * ai])
    wrong = airy_eval_doc(z, [ai * 1.001, aip, z * ai])
    flagged = airy_eval_doc(z, [ai * 1.001, aip, z * ai],
                            flags=["node_budget_exhausted"])
    assert run.check_record(record(good), {}) == ([], False)
    assert run.check_record(record(wrong), {})[1] is True
    reasons, silent = run.check_record(record(flagged), {})
    assert reasons and not silent
    assert run.check_record(record(good, rc=3), {}) == (["exit 3: boom"], False)
    crashed = record(good, None, "Traceback\nKeyError: 'x'")
    reasons, silent = run.check_record(crashed, {})
    assert reasons == ["raised: KeyError: 'x'"] and not silent


def test_cycle_runs_every_op_once_however_short_the_run():
    assert list(run.cycle(["a", "b", "c"], 0.0)) == ["a", "b", "c"]
    ran = list(run.cycle(["a", "b"], 0.01))
    assert len(ran) >= 2
    assert ran == [("a", "b")[i % 2] for i in range(len(ran))]


@pytest.mark.parametrize("name", sorted(run.workloads.WORKLOADS))
def test_the_seed_alone_fixes_the_ops(name, tmp_path):
    def make(seed, sub):
        (tmp_path / sub).mkdir()
        return run.workloads.WORKLOADS[name](run.ROOT, seed, tmp_path / sub).ops

    first, again, other = make(5, "a"), make(5, "b"), make(6, "c")
    assert [op.describe() for op in first] == [op.describe() for op in again]
    assert [op.describe() for op in first] != [op.describe() for op in other]
    assert len({op.describe() for op in first}) == len(first)


def test_counts_and_times_are_per_distinct_op():
    z = 2.0 + 1.0j
    ai, aip, _, _ = airy(z)
    good = json.dumps(airy_eval_doc(z, [ai, aip, z * ai]))
    flagged = json.dumps(airy_eval_doc(z, [ai * 1.001, aip, z * ai],
                                       flags=["node_budget_exhausted"]))
    ok_op = run.workloads.Op("eval", AIRY, [], {"z": z, "nu": 0})
    bad_op = run.workloads.Op("eval", AIRY, [], {"z": z, "nu": 0})
    recs = [run.Record(ok_op, 1.0, 0.010, 0, good, ""),
            run.Record(bad_op, 1.0, 0.100, 0, flagged, ""),
            run.Record(ok_op, 1.0, 0.030, 0, good, ""),
            run.Record(bad_op, 1.0, 0.300, 0, flagged, ""),
            run.Record(ok_op, 1.0, 0.020, 0, good, "")]
    failed, silent = run.checked(recs)
    assert not silent
    assert [(op, times) for op, _, times in failed.values()] == [(bad_op, 2)]
    assert run.op_times(recs) == pytest.approx([0.020, 0.200])
    e2e, notes = run.end_to_end(recs, failed, [0.5], 0.5)
    assert e2e["ops_per_s"][0] == pytest.approx(2 / (0.5 * 0.220))
    assert e2e["op_p50_ms"][0] == pytest.approx(0.5 * 110.0)
    assert e2e["ok_share"][0] == 0.5
    assert notes["runs"] == 5 and notes["distinct_ops"] == 2


def test_gauge_scales_to_reference_speed():
    gauge = run.hostspeed.Gauge()
    gauge.tick()
    gauge.tick()                        # within EVERY of the first: no sample
    assert len(gauge.samples) == run.hostspeed.PER_TICK
    gauge.samples = [0.002, 0.006, 0.004]
    assert gauge.factor() == pytest.approx(run.hostspeed.REFERENCE_S / 0.004)
