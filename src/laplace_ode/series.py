"""Truncated power-series arithmetic used for residue extraction.

Series are plain lists of coefficients (ascending, fixed truncation order);
they stay exact when fed GaussRational coefficients and degrade to complex
otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussRational, field_int


def series_trim(a, order):
    a = list(a[: order + 1])
    return a + [field_int(0, a)] * (order + 1 - len(a))


def series_mul(a, b, order):
    out = [field_int(0, [*a, *b])] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j in range(0, order + 1 - i):
            if j < len(b) and b[j]:
                out[i + j] = out[i + j] + ai * b[j]
    return out


def series_exp(a, order):
    """exp of a series with zero constant term (required for exactness)."""
    if len(a) > 0 and a[0]:
        raise ValueError("series_exp requires zero constant term")
    a = series_trim(a, order)
    zero = field_int(0, a)
    e = [zero] * (order + 1)
    e[0] = field_int(1, a)
    # e' = a' e  =>  j e_j = sum_{k=1..j} k a_k e_{j-k}
    for j in range(1, order + 1):
        s = zero
        for k in range(1, j + 1):
            if a[k]:
                s = s + (k * a[k]) * e[j - k]
        e[j] = s / j
    return e


def series_inv(a, order):
    """Reciprocal of a series with nonzero constant term."""
    a = series_trim(a, order)
    if not a[0]:
        raise ZeroDivisionError("series has zero constant term")
    zero = field_int(0, a)
    inv0 = field_int(1, a) / a[0]
    out = [zero] * (order + 1)
    out[0] = inv0
    for j in range(1, order + 1):
        s = zero
        for k in range(1, j + 1):
            if a[k]:
                s = s + a[k] * out[j - k]
        out[j] = -inv0 * s
    return out


def series_div(a, b, order):
    return series_mul(series_trim(a, order), series_inv(b, order), order)


def binomial_coeffs(e, x, order):
    """C(e, k) x^k for k = 0..order, the coefficients of (1 + x u)^e in u,
    with no series product; exact for exact ``e`` and ``x``."""
    one = field_int(1, [e, x])
    out = [one]
    ck = xk = one
    for k in range(1, order + 1):
        ck = ck * (e - (k - 1)) / k
        xk = xk * x
        out.append(ck * xk)
    return out


def poly_series(p, center, order):
    """Taylor coefficients c_0..c_order of a Poly about ``center``.

    Repeated synthetic division by (t - center) in place: pass i fixes c[i],
    the i-th Taylor coefficient, so the recurrence stops after order + 1
    passes.
    """
    c = list(p.coeffs)
    for i in range(min(order + 1, len(c) - 1)):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] = c[k + 1] * center + c[k]
    if len(c) > 1:
        # + 0 turns float parts of -0.0 into 0.0, so the result is the
        # Horner composition with (t + center) to the last bit
        c = [x + 0 if isinstance(x, (float, complex)) else x
             for x in c[: order + 1]]
    return series_trim(c, order)


def integer_value(x, tol=1e-8):
    """Return the integer x rounds to, or None.

    Exact scalars are decided exactly; floats use ``tol``.
    """
    if isinstance(x, GaussRational):
        return x.as_int() if x.is_integer else None
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else None
    z = complex(x)
    n = round(z.real)
    if abs(z - n) < tol:
        return int(n)
    return None
