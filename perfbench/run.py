"""Benchmark of the laplace-ode command line, run in-process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload eval-scatter --seed 1 --seconds 30 --trace 0

One client in one process drives a closed loop: each operation is one
``laplace_ode.cli.main(argv)`` call, started when the previous one returns,
with stdout and stderr captured in memory.  The seed fixes a list of
distinct operations; the run cycles through it until every operation has
run once and ``--seconds`` have passed.  ``attempted`` and ``failed`` count
distinct operations, so they follow from the seed alone.  An operation's
time is the median of its runs, in CPU seconds of this process (all its
threads), scaled to the host's reference speed (see hostspeed.py): the
speed of the same code on the shared host drifts by up to 2x between runs.
Unscaled CPU and wall-clock figures are printed on the ``# notes`` line.
Outputs are checked after the timer stops.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs every operation twice, untraced and traced, and prints the per-layer
metrics with the tracing overhead.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
record the environment, every metric with its unit, and every failed
operation.  ``correct`` is false only when an output the program did not
flag as failed is wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10        # op_tail_ms: highest percentile with this many ops beyond


def import_program():
    """Import laplace_ode from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import laplace_ode
    import laplace_ode.cli

    if SRC.resolve() not in Path(laplace_ode.__file__).resolve().parents:
        raise ImportError("laplace_ode imported from %s, not from %s"
                          % (laplace_ode.__file__, SRC))
    return laplace_ode


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "clients": 1,
            "threads": "the program's own (indicator pool of 4)"}


# ----------------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------------

def measure_setup(specs, workdir: Path) -> list:
    """CPU seconds to import laplace_ode and build every spec's Problem, at
    reference speed, each sample in a fresh interpreter."""
    listing = workdir / "setup_specs.json"
    listing.write_text(json.dumps([s.path for s in specs]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(listing)],
            capture_output=True, text=True, timeout=120, check=True)
        cpu, ref = map(float, proc.stdout.split()[-2:])
        samples.append(cpu * hostspeed.REFERENCE_S / ref)
    return samples


# ----------------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------------

@dataclass
class Record:
    op: object
    seconds: float          # wall time
    cpu: float              # CPU time of the process, all its threads
    rc: object
    out: str
    err: str
    error: str = None


def run_op(cli, op, texts: dict) -> Record:
    """One op; identical outputs are kept once in ``texts``, so memory does
    not grow with the number of times an op repeats."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:           # argparse rejected the argv
        rc = exc.code
    except Exception:                   # a raising op fails; the loop goes on
        rc = None
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - t0
    cpu = time.process_time() - c0
    text = out.getvalue()
    return Record(op, seconds, cpu, rc, texts.setdefault(text, text),
                  err.getvalue(), error)


def cycle(ops, seconds: float):
    """Yield the workload's ops in order, again and again, until every op
    has run once and ``seconds`` have passed since the first."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        yield ops[i % len(ops)]
        i += 1


def run_loop(cli, ops, seconds: float, gauge):
    """Closed loop over ``cycle(ops, seconds)``: each op starts when the one
    before it returns (or the gauge's reference sample, when one is due);
    the op in flight at the deadline completes."""
    texts, records = {}, []
    for op in cycle(ops, seconds):
        gauge.tick()
        records.append(run_op(cli, op, texts))
    return records


# ----------------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------------

def check_record(rec: Record, cache: dict):
    """(reasons, silent): why the op failed, and whether the program claimed
    success (exit 0, no flag, no unreliable mark) for a wrong output."""
    if rec.error is not None:
        return ["raised: " + rec.error.strip().splitlines()[-1]], False
    if rec.rc != 0:
        return ["exit %r: %s" % (rec.rc, rec.err.strip()[:200])], False
    key = (rec.op.kind, rec.op.spec.path, repr(sorted(rec.op.params.items())),
           rec.out)
    if key in cache:
        return cache[key]
    op = rec.op
    try:
        doc = json.loads(rec.out)
        if op.kind == "eval":
            reasons = checks.check_eval(doc, op.spec, op.params["nu"],
                                        op.params["z"], op.spec.name == "airy")
            silent = bool(reasons) and not any(r["flags"] for r in doc["results"])
        elif op.kind == "zeros":
            reasons = checks.check_zeros(doc, op.params["sector"], op.params["nu"],
                                         op.spec.name == "airy")
            silent = bool(reasons) and all(r["reliable"] for r in doc["results"])
        elif op.kind == "indicator":
            reasons, silent = checks.check_indicator(doc), False
        else:
            reasons = checks.check_residues(doc, op.spec.a, op.spec.b)
            silent = bool(reasons)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reasons, silent = ["output check raised %r" % exc], True
    cache[key] = (reasons, silent)
    return reasons, silent


def checked(records):
    """({op: (reasons, times)}, silent): every distinct op that failed on
    any of its runs, and whether any failure was silent."""
    cache = {}
    failed = {}
    silent_any = False
    for rec in records:
        reasons, silent = check_record(rec, cache)
        if reasons:
            entry = failed.setdefault(id(rec.op), [rec.op, reasons, 0])
            entry[2] += 1
            silent_any = silent_any or silent
    return failed, silent_any


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------

def tail(latencies):
    """(value, rank): the latency at the highest nearest-rank percentile
    with TAIL_BEYOND ops beyond it, but never below the median: with fewer
    than 2 * TAIL_BEYOND + 2 ops that percentile would sit at or under the
    median and slide with the op count, so the upper median stands in."""
    xs = sorted(latencies)
    rank = max(len(xs) - TAIL_BEYOND, len(xs) // 2 + 1)
    return xs[rank - 1], rank


def op_times(records, field="cpu"):
    """Seconds of each distinct op: the median over its runs."""
    runs = {}
    for rec in records:
        runs.setdefault(id(rec.op), []).append(getattr(rec, field))
    return [statistics.median(xs) for xs in runs.values()]


def end_to_end(records, failed, setup, factor):
    """Timings are per distinct op (the median of its runs), in CPU time of
    the process scaled by the gauge's ``factor`` to reference speed:
    ``ops_per_s`` is the op count over the summed op times."""
    cpu = op_times(records)
    per_op = [factor * t for t in cpu]
    n_ops = len(per_op)
    lat_ms = [1e3 * t for t in per_op]
    tail_ms, rank = tail(lat_ms)
    metrics = {
        "ops_per_s": (n_ops / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ok_share": (1.0 - len(failed) / n_ops, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    wall = op_times(records, "seconds")
    notes = {"op_tail_percentile": 100.0 * rank / n_ops,
             "distinct_ops": n_ops, "ops_beyond_tail": n_ops - rank,
             "runs": len(records), "setup_samples_s": setup,
             "host_factor": factor,
             "cpu_ops_per_s": n_ops / sum(cpu),
             "cpu_op_p50_ms": 1e3 * statistics.median(cpu),
             "wall_ops_per_s": n_ops / sum(wall),
             "wall_op_p50_ms": 1e3 * statistics.median(wall)}
    return metrics, notes


def per_layer(cli, pkg, ops, seconds):
    """Every op runs twice back to back, untraced and traced (alternating
    which goes first), so the tracing overhead is measured on the same ops
    at the same moment and machine drift cancels."""
    tracer = spans.Tracer()
    plain, traced, texts = [], [], {}
    for op in cycle(ops, seconds):
        turns = (True, False) if len(traced) % 2 else (False, True)
        for with_trace in turns:
            if not with_trace:
                plain.append(run_op(cli, op, texts))
                continue
            tracer.op = len(traced)
            uninstall = spans.install(tracer, pkg)
            try:
                traced.append(run_op(cli, op, texts))
            finally:
                uninstall()
    n = len(traced)
    metrics = spans.layer_metrics(tracer.spans, n)
    roots = {}
    for sp in tracer.spans:
        if sp.name == "cli.main" and sp.parent is None:
            roots[sp.op] = roots.get(sp.op, 0.0) + sp.duration
    uncovered = sum(r.seconds - roots.get(i, 0.0) for i, r in enumerate(traced))
    plain_rate = n / sum(r.seconds for r in plain)
    traced_rate = n / sum(r.seconds for r in traced)
    metrics["trace.uncovered_ms"] = (1e3 * uncovered / n, "ms")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "1/s")
    metrics["trace.ops"] = (n, "count")
    return metrics, plain + traced, {"op_pairs": n}


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["eval-scatter", "analysis-sweep", "residue-structure"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    try:
        pkg = import_program()
    except ImportError as exc:
        print("cannot import laplace_ode from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2

    load_before = loadavg()
    workdir = HERE / "_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        setup = measure_setup(wl.specs, workdir)
        if args.trace:
            metrics, records, notes = per_layer(pkg.cli, pkg, wl.ops, args.seconds)
            failed, silent = checked(records)
        else:
            gauge = hostspeed.Gauge()
            records = run_loop(pkg.cli, wl.ops, args.seconds, gauge)
            failed, silent = checked(records)
            metrics, notes = end_to_end(records, failed, setup, gauge.factor())
            notes["reference_samples"] = len(gauge.samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):      # left while another run uses it
            workdir.parent.rmdir()

    env = environment()
    env.update(loadavg_before=load_before, loadavg_after=loadavg())
    print("# workload %s, seed %d, %g s, trace %d: %s"
          % (wl.name, args.seed, args.seconds, args.trace, wl.why))
    print("# env " + json.dumps(env, sort_keys=True))
    print("# notes " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("# %-46s %14.6g %s" % (name, value, unit))
    n_ops = len(wl.ops)
    print("# %-46s %14.6g ratio (%d of %d distinct ops failed; silent "
          "failures: %s)" % ("fail_share", len(failed) / n_ops, len(failed),
                             n_ops, "yes" if silent else "none"))
    for op, reasons, times in failed.values():
        print("# failed-op " + json.dumps({"workload": wl.name,
                                           "op": op.describe(), "times": times,
                                           "reasons": reasons}))
    print(json.dumps({
        "correct": not silent,
        "attempted": n_ops,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
