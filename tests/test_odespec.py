import math
import re
from fractions import Fraction

import pytest

from laplace_ode import (GaussRational, Poly, SpecError, build_q, fixture_path,
                         is_normalized, load_spec, normalize,
                         parse_closed_form, parse_ode, struct_indices)
from laplace_ode.cli import main


def rebuild_coefficients(q0: Poly, q1: Poly):
    """Invert build_q: recover (n, a, b) from the two polynomials."""
    n = q0.degree
    a = [c for c in q0.compose_neg().coeffs[:n]]
    a += [GaussRational(0)] * (n - len(a))
    b = list(q1.compose_neg().coeffs)
    b += [GaussRational(0)] * (n - len(b))
    return n, a, b


def test_parse_airy():
    spec = parse_ode('{"n":2,"a":[0,0],"b":[[-1,0],0]}')
    assert spec.n == 2
    assert spec.b[0] == GaussRational(-1)
    assert spec.is_exact


def test_parse_rejects_all_b_zero():
    with pytest.raises(SpecError, match="b_j"):
        parse_ode('{"n":2,"a":[0,0],"b":[0,0]}')


def test_parse_rejects_a0_b0_zero():
    with pytest.raises(SpecError, match="a_0"):
        parse_ode('{"n":2,"a":[0,1],"b":[0,1]}')


def test_parse_rejects_small_n():
    with pytest.raises(SpecError, match="n must"):
        parse_ode('{"n":1,"a":[1],"b":[1]}')


@pytest.mark.parametrize("text, where", [
    ('{"n":2,"a":[true,0],"b":[1,0]}', "a[0]"),
    ('{"n":2,"a":[0,0],"b":[1,false]}', "b[1]"),
    ('{"n":2,"a":[[1,true],0],"b":[1,0]}', "a[0]"),
    ('{"n":2,"a":[0,0],"b":[[false,0],1]}', "b[0]"),
])
def test_parse_rejects_json_booleans(text, where):
    # bool is an int in Python, but true and false are not coefficients
    with pytest.raises(SpecError, match=re.escape(where)):
        parse_ode(text)


def test_closed_form_rejects_json_booleans():
    with pytest.raises(SpecError, match=re.escape("poly[1]")):
        parse_closed_form({"poly": [1, True]})
    with pytest.raises(SpecError, match="exp_factor"):
        parse_closed_form({"poly": [1], "exp_factor": [0, False]})


def test_cli_exits_2_on_a_boolean_coefficient(tmp_path, capsys):
    spec = tmp_path / "bool.json"
    spec.write_text('{"n": 2, "a": [true, 0], "b": [1, 0]}')
    assert main(["residues", "--spec", str(spec)]) == 2
    assert "a[0]" in capsys.readouterr().err


def test_parse_syntax_error_has_position():
    with pytest.raises(SpecError, match="line 1 column"):
        parse_ode('{"n":2,,}')


def test_parse_length_mismatch():
    with pytest.raises(SpecError, match="exactly n"):
        parse_ode('{"n":3,"a":[0,0],"b":[1,0,0]}')


def test_parse_sixth_order_example():
    spec = parse_ode(
        '{"n":6,"a":[[1,0],0,0,0,0,0],"b":[0,0,[-1,0],0,[-1,0],0]}')
    idx = struct_indices(spec)
    assert (idx.q, idx.p) == (4, 2)
    assert idx.rho_max == Fraction(3, 2)


def test_struct_indices_examples(problems):
    for name, q, p in (("airy", 0, 0), ("ex7_2", 4, 2), ("ex7_1", 3, 1)):
        idx = struct_indices(problems(name).spec)
        assert (idx.q, idx.p) == (q, p)
        assert idx.rho_max == Fraction(3, 2)


def test_build_q_examples(problems):
    q0, q1 = build_q(problems("airy").spec)
    assert q0 == Poly.exact([0, 0, 1])          # t^2
    assert q1 == Poly.exact([-1])               # -1

    q0, q1 = build_q(problems("ex7_2").spec)
    assert q0 == Poly.exact([1, 0, 0, 0, 0, 0, 1])       # t^6 + 1
    assert q1 == Poly.exact([0, 0, -1, 0, -1])           # -t^4 - t^2

    q0, q1 = build_q(problems("ex7_1").spec)
    assert q0 == Poly.exact([-2, 0, 7, 0, 0, -1])        # -t^5 + 7 t^2 - 2
    assert q1 == Poly.exact([0, -1, 0, 1])               # t^3 - t


def test_build_q_structure_matches_indices(problems):
    for name in ("airy", "ex7_1", "ex7_2", "ex7_3", "ex7_5", "ex7_6"):
        spec = problems(name).spec
        idx = struct_indices(spec)
        q0, q1 = build_q(spec)
        assert q0.degree == spec.n
        assert q1.degree == idx.q
        low = next(k for k, c in enumerate(q1.coeffs) if c)
        assert low == idx.p


def test_round_trip_identity(problems):
    for name in ("airy", "ex7_1", "ex7_2", "ex7_5"):
        spec = problems(name).spec
        q0, q1 = build_q(spec)
        n, a, b = rebuild_coefficients(q0, q1)
        assert n == spec.n
        assert all(x == y for x, y in zip(a, spec.a))
        assert all(x == y for x, y in zip(b, spec.b))


def test_fixtures_already_normalized():
    for name in ("airy", "ex7_1", "ex7_2", "ex7_3", "ex7_5", "ex7_6",
                  "cubic_airy", "ex7_4"):
        spec = load_spec(fixture_path(name))
        spec2, scale = normalize(spec)
        assert scale == GaussRational(1)
        assert spec2 is spec


def test_normalize_nontrivial_scale():
    # w'' - w' + z w = 0: b_0 = 1, target -1; scale^3 = -1, smallest |arg|
    # root is exp(i pi / 3)
    spec = parse_ode('{"n":2,"a":[0,-1],"b":[1,0]}')
    spec2, scale = normalize(spec)
    assert abs(complex(scale) - complex(math.cos(math.pi / 3),
                                        math.sin(math.pi / 3))) < 1e-14
    assert is_normalized(spec2)
    # the substitution rule a'_j = a_j s^(n-j), b'_j = b_j s^(n-j+1)
    s = complex(scale)
    assert abs(complex(spec2.a[1]) - (-1) * s) < 1e-14
    assert abs(complex(spec2.b[0]) - s ** 3) < 1e-14


def test_normalize_idempotent():
    spec = parse_ode('{"n":2,"a":[0,-1],"b":[1,0]}')
    spec2, _ = normalize(spec)
    spec3, scale2 = normalize(spec2)
    assert scale2 == GaussRational(1)
    assert spec3 is spec2


def test_normalize_exact_real_scale():
    # b_0 = -8, n=2, q=0: scale^3 = -1/-8 = 1/8 -> exact rational scale 1/2
    spec = parse_ode('{"n":2,"a":[0,0],"b":[-8,0]}')
    spec2, scale = normalize(spec)
    assert scale == GaussRational(Fraction(1, 2))
    assert spec2.b[0] == GaussRational(-1)
    assert spec2.is_exact
