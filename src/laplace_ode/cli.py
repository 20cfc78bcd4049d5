"""Command-line front end.

Commands: eval, verify, report, indicator, zeros, residues, symmetry.
``main`` checks the flags, loads the spec and calls ``cmd_<name>(args,
problem)`` for (exit code, payload, CSV rows, CSV header); it writes the rows
under ``--format csv``, else the payload as JSON in the envelope every JSON
output shares: ``command``, ``version`` and the ``spec`` echo.
Exit codes: 0 ok, 1 verification failure, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from .analysis import (check_sector, indicator_empirical, indicator_grid,
                       nevanlinna_estimates, nevanlinna_predicted,
                       zero_count_sector)
from .contour import TOL_MAX, TOL_MIN
from .errors import NumericError, ResidueError, SpecError
from .problem import Problem, sample_points
from .scalars import GaussRational
from .solutions import branch_note, check_solution, symmetry_check


def _fmt(x) -> str:
    return "%.17g" % x


def _cnum(text: str) -> complex:
    s = text.strip()
    if "," in s:
        re, im = s.split(",")
        z = complex(float(re), float(im))
    else:
        # the imaginary unit may be written i, but "inf" keeps its own i
        for form in (s, s.replace("i", "j")):
            try:
                z = complex(form)
                break
            except ValueError:
                pass
        else:
            raise SpecError("cannot parse complex number %r" % text)
    if not cmath.isfinite(z):
        raise SpecError("complex number %r is not finite" % text)
    return z


def _reals(text: str):
    """The comma-separated numbers in ``text``, each of them finite."""
    out = [float(s) for s in text.split(",")]
    if not all(math.isfinite(x) for x in out):
        raise SpecError("%r holds a number that is not finite" % text)
    return out


def _json_float(x) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_JSON_ATOMS = {str: _json_str, float: _json_float, np.float64: _json_float,
               int: int.__repr__, bool: {True: "true", False: "false"}.get,
               type(None): lambda _x: "null",
               Fraction: lambda x: _json_str(str(x))}


def _to_json(x, pad="\n") -> str:
    """``x`` as json.dumps(x, indent=2, sort_keys=True) writes it, nested at
    the indentation ``pad`` ends with; json would run its pure-Python
    encoder.  Complex numbers, GaussRationals, Fractions and arrays take
    the forms README's CLI section gives; any other value, or a key that
    is not a str, raises TypeError."""
    kind = type(x)
    atom = _JSON_ATOMS.get(kind)
    if atom is not None:
        return atom(x)
    inner = pad + "  "
    if kind is complex or kind is np.complex128:
        return '{%s"im": %s,%s"re": %s%s}' % (
            inner, _json_float(x.imag), inner, _json_float(x.real), pad)
    if kind is GaussRational:
        return _to_json({"re": str(x.re), "im": str(x.im)} if x.im
                        else str(x.re), pad)
    if kind is np.ndarray:
        return _to_json(x.tolist(), pad)
    if kind is dict:
        if any(type(key) is not str for key in x):
            raise TypeError("JSON object keys must be str")
        items = [_json_str(key) + ": " + _to_json(x[key], inner)
                 for key in sorted(x)]
        ends = "{}"
    elif kind is list or kind is tuple:
        items = [_to_json(v, inner) for v in x]
        ends = "[]"
    else:
        raise TypeError("%s is not JSON serializable" % kind.__name__)
    return (ends[0] + inner + ("," + inner).join(items) + pad + ends[1]
            if items else ends)


def _csv_text(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_problem(args) -> Problem:
    return Problem.from_file(args.spec)


def _zlist(args, default=None):
    if args.z:
        return [_cnum(s) for s in args.z]
    return default


def _spec_echo(problem: Problem):
    spec = problem.raw_spec
    return {
        "n": spec.n,
        "a": [complex(c) for c in spec.a],
        "b": [complex(c) for c in spec.b],
        "normalization_scale": complex(problem.scale),
        "q": problem.indices.q,
        "p": problem.indices.p,
        "rho_max": str(problem.indices.rho_max),
    }


def _pole_entry(p):
    return {"location": complex(p.location), "multiplicity": p.multiplicity,
            "lambda": complex(p.lam), "lambda_integer": p.lam_integer,
            "essential": p.is_essential}


def _residue_entry(rs):
    entry = {"pole": complex(rs.pole), "form": rs.form,
             "growth_order": str(rs.growth_order)}
    if rs.poly is not None and not rs.poly.is_zero:
        entry["poly"] = list(rs.poly.coeffs)
    return entry


def _indicator_entry(prof):
    return {"rho": prof.rho, "case": prof.case,
            "thetas": list(prof.thetas), "radii": prof.radii,
            "h_emp": prof.h_emp, "h_pred": prof.h_pred,
            "deviation_per_radius": prof.deviations}


# ----------------------------------------------------------------------------
# commands: each returns (exit code, payload, CSV rows, CSV header), the rows
# None for a command that writes JSON only
# ----------------------------------------------------------------------------

def cmd_eval(args, problem):
    zs = _zlist(args)
    if not zs:
        raise SpecError("eval requires at least one --z value")
    js = [int(j) for j in (args.j or ["0"])]
    if min(js) < 0:
        raise SpecError("--j must be a derivative order >= 0")
    lam = problem.lam(args.nu)
    rows = []
    entries = []
    for z in zs:
        results = lam.eval_multi(z, js, args.tol)
        for j, qr in zip(js, results):
            val = qr.value
            rows.append([z.real, z.imag, j, qr.mantissa.real, qr.mantissa.imag,
                         qr.log_scale, qr.est_error, val.real, val.imag])
            entries.append({"z": z, "j": j,
                            "mantissa": qr.mantissa,
                            "log_scale": qr.log_scale,
                            "est_error": qr.est_error,
                            "value": val,
                            "nodes": qr.nodes_used,
                            "flags": list(qr.flags)})
    return (0, {"tol": args.tol, "results": entries}, rows,
            ["z_re", "z_im", "j", "mantissa_re", "mantissa_im", "log_scale",
             "est_error", "value_re", "value_im"])


def cmd_verify(args, problem):
    if not 0 < args.residual_tol < math.inf:
        raise SpecError("--residual-tol must be positive and finite")
    pts = _zlist(args, sample_points(20, 3.0))
    lam = problem.lam(args.nu)
    report = check_solution(problem.spec, lam, pts, args.tol)
    rows = [[z.real, z.imag, r] for z, r in zip(report["points"],
                                                report["residuals"])]
    payload = {"tol": args.tol, "residual_tol": args.residual_tol,
               "max_residual": report["max_residual"],
               "points": report["points"],
               "residuals": report["residuals"]}
    return (0 if report["max_residual"] <= args.residual_tol else 1,
            payload, rows, ["z_re", "z_im", "rel_residual"])


def cmd_residues(args, problem):
    kd = problem.kernel
    poles = [dict(_pole_entry(p), singular=p.is_singular,
                  exponent=complex(p.exponent)) for p in kd.poles]
    sols = [dict(_residue_entry(rs), order_of_q0q1=rs.order)
            for rs in problem.residues()]
    payload = {"branch_note": branch_note(kd),
               "residue_sum": complex(kd.residue_sum_complex),
               "residue_sum_integer": kd.residue_sum_integer,
               "single_valued_outside": kd.single_valued_outside,
               "singular_radius": kd.singular_radius,
               "poles": poles, "residue_solutions": sols}
    return 0, payload, None, None


def cmd_symmetry(args, problem):
    ss = problem.symmetry()
    pts = _zlist(args, sample_points(5, 2.0))
    deviation = symmetry_check(problem.kernel, pts, args.tol)
    payload = {"classification": ss.classification,
               "circle_radius": ss.radius,
               "check_points": pts,
               "max_relative_deviation": deviation}
    return 0, payload, None, None


def cmd_indicator(args, problem):
    thetas = _theta_grid(args)
    radii = _reals(args.radii or "10,20,40")
    lam = problem.lam(args.nu)
    prof = indicator_empirical(lam, problem.rho_max, thetas, radii,
                               tol=args.tol, case=problem.indicator_case)
    rows = []
    for i, th in enumerate(prof.thetas):
        for k, r in enumerate(prof.radii):
            rows.append([th, r, prof.h_emp[i, k], prof.h_pred[i],
                         abs(prof.h_emp[i, k] - prof.h_pred[i])])
    payload = {**_indicator_entry(prof),
               "nevanlinna": nevanlinna_estimates(prof)}
    return 0, payload, rows, ["theta", "r", "h_emp", "h_pred", "deviation"]


def cmd_zeros(args, problem):
    if not args.sector:
        raise SpecError("zeros requires --sector theta1,theta2,r")
    lam = problem.lam(args.nu)
    sectors = [check_sector(_reals(sec)) for sec in args.sector]
    results = []
    rows = []
    for th1, th2, r in sectors:
        zc = zero_count_sector(lam, (th1, th2, r), args.tol)
        results.append({"sector": [th1, th2, r], "count": zc.count,
                        "raw": zc.raw, "confidence": zc.confidence,
                        "reliable": zc.reliable, "samples": zc.samples})
        rows.append([th1, th2, r, zc.count, zc.confidence])
    return (0, {"results": results}, rows,
            ["theta1", "theta2", "r", "count", "confidence"])


def cmd_report(args, problem):
    if not args.no_zeros and not 0 < args.zero_radius < math.inf:
        raise SpecError("--zero-radius must be positive and finite")
    thetas = _theta_grid(args)
    radii = _reals(args.radii or "10,20")
    indicator_grid(thetas, radii)
    kd = problem.kernel
    payload = {"tol": args.tol, "branch_note": branch_note(kd)}
    payload["order_catalog"] = [
        {"order": str(o), "status": st, "condition": cond}
        for o, st, cond in problem.catalog.entries]
    payload["poles"] = [_pole_entry(p) for p in kd.poles]
    payload["residue_sum"] = complex(kd.residue_sum_complex)
    payload["residue_sum_integer"] = kd.residue_sum_integer
    payload["residue_solutions"] = [_residue_entry(rs)
                                    for rs in problem.residues()]
    failures = {}
    try:
        ss = problem.symmetry()
        pts = sample_points(5, 2.0)
        payload["symmetry"] = {
            "classification": ss.classification,
            "max_relative_deviation": symmetry_check(kd, pts, args.tol)}
    except NumericError as exc:
        failures["symmetry"] = exc
    try:
        prof = indicator_empirical(problem.lam(0), problem.rho_max, thetas,
                                   radii, tol=args.tol,
                                   case=problem.indicator_case)
        payload["indicator"] = _indicator_entry(prof)
        payload["nevanlinna"] = {
            "grid": nevanlinna_estimates(prof),
            "predicted_exact": nevanlinna_predicted(problem.rho_max,
                                                    problem.indicator_case)}
    except NumericError as exc:
        failures["indicator"] = exc
    if not args.no_zeros:
        try:
            zc = zero_count_sector(problem.lam(0),
                                   (-math.pi, math.pi, args.zero_radius),
                                   args.tol)
            payload["zero_count_disk"] = {
                "radius": args.zero_radius, "count": zc.count,
                "raw": zc.raw, "confidence": zc.confidence,
                "reliable": zc.reliable}
        except NumericError as exc:
            failures["zeros"] = exc
    payload["partial_failures"] = {k: str(v) for k, v in failures.items()}
    # a ResidueError means "not applicable" (non-integer residue sum)
    return (3 if any(not isinstance(exc, ResidueError)
                     for exc in failures.values()) else 0), payload, None, None


def _theta_grid(args):
    spec = args.theta_grid or "25"
    *ends, n = spec.split(":")
    try:
        lo, hi = _reals(",".join(ends)) if ends else (-0.9 * math.pi,
                                                      0.9 * math.pi)
        if int(n) >= 1:
            return np.linspace(lo, hi, int(n))
    except (SpecError, ValueError):
        pass
    raise SpecError("--theta-grid must be N or lo:hi:N, with lo and hi "
                    "finite and N a whole number >= 1, not %r" % spec)


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later call in the process; it holds no input, and each ``parse_args``
    returns a fresh namespace.  A command takes --spec, --out and the flags
    it reads, each by its full name only (report's --zero-radius does not
    answer to --z); any other flag is an unrecognized argument."""
    flags = {
        "tol": dict(type=float, default=1e-10),
        "z": dict(action="append",
                  help="complex point, e.g. 1.5, 2j, 1+2i, or re,im"),
        "theta-grid": dict(help="N or lo:hi:N angle grid"),
        "radii": dict(help="comma-separated radii"),
        "format": dict(choices=("csv", "json"), default="json"),
        "nu": dict(type=int, default=0,
                   help="index of the distinguished solution"),
        "j": dict(action="append", help="derivative order(s)"),
        "sector": dict(action="append", help="theta1,theta2,r sector"),
        "residual-tol": dict(type=float, default=1e-8),
        "no-zeros": dict(action="store_true"),
        "zero-radius": dict(type=float, default=4.0),
    }
    commands = {
        "eval": (cmd_eval, "tol z j nu format"),
        "verify": (cmd_verify, "tol z nu residual-tol format"),
        "report": (cmd_report, "tol theta-grid radii no-zeros zero-radius"),
        "indicator": (cmd_indicator, "tol theta-grid radii nu format"),
        "zeros": (cmd_zeros, "tol sector nu format"),
        "residues": (cmd_residues, ""),
        "symmetry": (cmd_symmetry, "tol z"),
    }
    ap = argparse.ArgumentParser(
        prog="laplace-ode",
        description="Contour-integral solutions of linear ODEs with "
                    "degree-one polynomial coefficients")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, reads) in commands.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--spec", required=True, help="path to the ODE spec JSON")
        p.add_argument("--out", help="output path (default stdout)")
        for flag in reads.split():
            p.add_argument("--" + flag, **flags[flag])
    return ap


# a value such as -1i or -1,1,3, which argparse would take for an option
_DASH_VALUE = re.compile(r"-[\d.]")


def _attach_dash_values(argv):
    """``argv`` with every value that starts with a minus sign and a digit
    joined to the option before it, "--z -1i" becoming "--z=-1i"."""
    out = []
    for tok in argv:
        if out and _DASH_VALUE.match(tok) and out[-1].startswith("--") \
                and "=" not in out[-1]:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_attach_dash_values(
            sys.argv[1:] if argv is None else argv))
        if "tol" in args and not TOL_MIN <= args.tol <= TOL_MAX:
            raise SpecError("tol must lie in [%g, %g]" % (TOL_MIN, TOL_MAX))
        out = args.out and os.path.abspath(args.out)
        if out and (os.path.isdir(out) or
                    not os.access(os.path.dirname(out), os.W_OK)):
            raise SpecError("cannot write --out %s" % args.out)
        problem = _load_problem(args)
        code, payload, rows, header = args.fn(args, problem)
        _emit(args, _csv_text(rows, header)
              if rows is not None and args.format == "csv" else
              _to_json({"command": args.command, "version": __version__,
                        "spec": _spec_echo(problem), **payload}) + "\n")
        return code
    except (SpecError, OSError, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (NumericError, OverflowError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
