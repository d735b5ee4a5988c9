"""CLI behavior: JSON schemas, exit codes, qmode flags, and the corpus
runner."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ratexact import RatFunc, canonical_str, parse_ratfunc, plain
from ratexact.cli import main, run_corpus_line
from ratexact.qmodes import x, y


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_decide_not_exact_json(capsys):
    code, out, _ = run_json(capsys, "decide", "--pair", "dx-dy",
                            "--expr", "1/(x+y)", "--json")
    assert code == 0
    assert out["exact"] is False
    assert out["witness"]["kind"] == "mixed_denominator"
    assert "timing_ms" not in out


def test_decide_exact_json(capsys):
    code, out, _ = run_json(capsys, "decide", "--pair", "dqx-sy",
                            "--q-symbolic", "--expr", "1/(x*y)", "--json")
    assert code == 0
    assert out["exact"] is True
    assert set(out) == {"exact", "pair", "qmode", "g", "h"}


def test_decide_timing_flag(capsys):
    code, out, _ = run_json(capsys, "decide", "--pair", "dx-dy",
                            "--expr", "1/(x+y)", "--json", "--timing")
    assert code == 0
    assert isinstance(out["timing_ms"], int)


def test_decide_text_output(capsys):
    code, out, _ = run(capsys, "decide", "--pair", "dx-dy",
                       "--expr", "1/(x*(x+1)*y)")
    assert code == 0
    assert out.splitlines()[0] == "exact"
    assert out.splitlines()[1].startswith("g = ")


def test_decide_rational_q(capsys):
    code, out, _ = run_json(capsys, "decide", "--pair", "dqx-sy",
                            "--q", "2/3", "--expr", "1/(x*y)", "--json")
    assert code == 0
    assert out["exact"] is True


def test_decide_root_of_unity(capsys):
    code, out, _ = run_json(capsys, "decide", "--pair", "dqx-dy",
                            "--root-of-unity", "2", "--expr", "x/y",
                            "--json")
    assert code == 0
    assert out["exact"] is True


@pytest.mark.parametrize("m", [5, 8])
@pytest.mark.parametrize("token", ["dqx-dy", "dqx-sy"])
def test_decide_root_of_unity_degree_four_fields(capsys, m, token):
    # Q(zeta_5) and Q(zeta_8) have degree 4; exact answers re-verify from
    # the printed certificate, with q read back as zeta_m
    from ratexact import parse_ratfunc, root_of_unity
    from ratexact.deciders import operator_pair, verify_certificate
    mode = root_of_unity(m)
    for expr, exact in (("x/y", True), ("1/(x+y)", False),
                        ("(q*x+y)/(q*x+y+1)-(x+y)/(x+y+1)", True)):
        code, out, _ = run_json(capsys, "decide", "--pair", token,
                                "--root-of-unity", str(m), "--expr", expr,
                                "--json")
        assert code == 0
        assert out["exact"] is exact
        if exact:
            f, g, h = (parse_ratfunc(s, mode)
                       for s in (expr, out["g"], out["h"]))
            assert verify_certificate(f, g, h, operator_pair(token, mode))


@pytest.mark.parametrize("a, k", [(1, 40), (7, 40), (1, 56)])
def test_decide_q_orbit_distance_certificate_reverifies(capsys, a, k):
    # a q-orbit of length k with a scalar factor a: the printed
    # certificate, read back, re-verifies (no time bound here; the size of
    # a once changed the cost of a decision threefold)
    from ratexact import parse_ratfunc, rational
    from ratexact.deciders import operator_pair, verify_certificate
    mode = rational(2)
    expr = "%d/((x-1)*y) - %d/((q^%d*x-1)*y)" % (a, a, k)
    code, out, _ = run_json(capsys, "decide", "--pair", "dqx-dy", "--q", "2",
                            "--expr", expr, "--json")
    assert code == 0
    assert out["exact"] is True
    f, g, h = (parse_ratfunc(s, mode) for s in (expr, out["g"], out["h"]))
    assert verify_certificate(f, g, h, operator_pair("dqx-dy", mode))


def test_syntax_error_exit_2(capsys):
    code, _, err = run(capsys, "decide", "--pair", "dx-dy",
                       "--expr", "1/(x+")
    assert code == 2
    assert "error" in err


def test_zero_denominator_exit_2(capsys):
    code, _, err = run(capsys, "decide", "--pair", "dx-dy", "--expr", "1/0")
    assert code == 2


def test_q_flag_without_q_pair_still_parses(capsys):
    # plain mode rejects q in the expression
    code, _, err = run(capsys, "decide", "--pair", "dx-dy",
                       "--expr", "q/x")
    assert code == 2


def test_reduce_hermite_json(capsys):
    code, out, _ = run_json(capsys, "reduce", "--flavor", "hermite",
                            "--expr", "1/(x*y^2)", "--json")
    assert code == 0
    assert out["flavor"] == "hermite"
    assert out["terms"] == []
    assert out["h"] == "(-1)/(y*x)"


def test_reduce_abramov_json(capsys):
    code, out, _ = run_json(capsys, "reduce", "--flavor", "abramov",
                            "--expr", "1/(y*(y+1))", "--json")
    assert code == 0
    assert out["terms"] == []


def test_reduce_tau_rou_json(capsys):
    code, out, _ = run_json(capsys, "reduce", "--flavor", "tau-rou",
                            "--root-of-unity", "2", "--expr", "x/y",
                            "--json")
    assert code == 0
    assert out["trace_part"] == "0"


def test_residue_json(capsys):
    code, out, _ = run_json(capsys, "residue", "--kind", "dy", "--at", "y",
                            "--expr", "1/(y^2*(y+1))", "--json")
    assert code == 0
    assert out["residue"] == "-1"


def test_residue_sigma(capsys):
    code, out, _ = run(capsys, "residue", "--kind", "sy", "--at", "y",
                       "--mult", "1", "--expr", "1/y + 1/(y+1)")
    assert code == 0
    assert out.strip() == "2"


def test_factor_json(capsys):
    code, out, _ = run_json(capsys, "factor",
                            "--expr", "x^2*y + x*y^2", "--json")
    assert code == 0
    bases = sorted(b for b, _ in out["factors"])
    assert bases == ["x", "y", "y + x"]


def test_factor_rejects_fraction(capsys):
    code, _, err = run(capsys, "factor", "--expr", "1/x")
    assert code == 2


# (QMode constructor and argument, CLI flags, a polynomial whose value
# has a constant denominator)
_FRACTIONAL_POLYS = [
    ("plain", None, [], "6*x/5"),
    ("transcendental", None, ["--q-symbolic"], "x/q"),
    ("rational", "3/2", ["--q", "3/2"], "(q*x*y - 1)*(x + q*y)*(q^2*x - 1)"),
    ("rational", "-5/7", ["--q=-5/7"], "q*x^2/3 - y/q"),
    ("root_of_unity", 3, ["--root-of-unity", "3"], "(q*x + y)*(x - 1)/2"),
]


@pytest.mark.parametrize("name, arg, flags, text", _FRACTIONAL_POLYS)
def test_factor_recomposes_to_its_input(capsys, name, arg, flags, text):
    # the factorization of the polynomial's value, its constant
    # denominator included, multiplies back to it, in the library and in
    # the printed unit and factors of the CLI
    import ratexact
    from ratexact import BiPoly
    from ratexact.factorization import factor
    mode = getattr(ratexact, name)(*([] if arg is None else [arg]))
    f = parse_ratfunc(text, mode)
    p = BiPoly.from_ring(f.numer, f.denom, mode)
    assert factor(p).recompose(mode) == p == BiPoly(f.as_expr(), mode)
    code, out, _ = run_json(capsys, "factor", *flags, "--expr", text,
                            "--json")
    assert code == 0
    product = parse_ratfunc(out["unit"], mode)
    for base, e in out["factors"]:
        product = product * parse_ratfunc(base, mode) ** e
    assert product == f


def test_factor_unit_keeps_the_constant_denominator(capsys):
    for flags, text, unit in (([], "6*x/5", "(6)/(5)"),
                              (["--q-symbolic"], "x/q", "(1)/(q)")):
        code, out, _ = run_json(capsys, "factor", *flags, "--expr", text,
                                "--json")
        assert code == 0 and out["unit"] == unit


@pytest.mark.parametrize("kind", ["dy", "sy"])
def test_residue_at_a_polynomial_with_a_denominator(capsys, kind):
    # 1/y = (1/2)/(y/2): the residue at y/2 is 1/2, as the library gives
    # it for the BiPoly of y/2
    from ratexact import BiPoly
    from ratexact.residues import residue_dy, residue_sigma
    mode = plain()
    f = parse_ratfunc("1/y", mode)
    d = BiPoly(y / 2, mode)
    want = residue_dy(f, d) if kind == "dy" else residue_sigma(f, d, 1)
    assert want == RatFunc.from_pair(1, 2, mode)
    code, out, _ = run(capsys, "residue", "--kind", kind, "--at", "y/2",
                       "--expr", "1/y")
    assert code == 0 and out.strip() == canonical_str(want) == "(1)/(2)"


def test_usage_error_exit_2(capsys):
    assert main(["decide", "--pair", "nope", "--expr", "x"]) == 2
    # the trace reduction needs q a root of unity: a q-mode mismatch
    # outside that q-mode, not a traceback
    from ratexact import QModeMismatch, parse_ratfunc, plain
    from ratexact.reductions import tau_reduced_root_of_unity
    for qflags in ([], ["--q", "2"]):
        code, _, err = run(capsys, "reduce", "--flavor", "tau-rou", *qflags,
                           "--expr", "1/(x*y)")
        assert code == 2
        assert "error: trace requires q a root of unity" in err
    with pytest.raises(QModeMismatch):
        tau_reduced_root_of_unity(parse_ratfunc("1/(x*y)", plain()))


def test_corpus_file(tmp_path, capsys):
    p = tmp_path / "cases.txt"
    p.write_text(
        "# comment and blank lines are skipped\n"
        "\n"
        "dx-dy | none | 1/(x+y) | not-exact | mixed_denominator\n"
        "dqx-sy | symbolic | 1/(x*y) | exact\n"
        "dx-dy | none | 1/(x+ | error\n")
    code, out, _ = run(capsys, "corpus", str(p))
    assert code == 0
    assert "3/3 passed" in out


def test_corpus_failure_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("dx-dy | none | 1/(x+y) | exact\n")
    code, out, _ = run(capsys, "corpus", str(p))
    assert code == 1
    assert "0/1 passed" in out


def test_corpus_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "corpus", "/nonexistent/path.txt")
    assert code == 2


def test_run_corpus_line_verifies_once(monkeypatch):
    # decide_exact verifies its certificate and raises RatexactError when
    # the check fails; the corpus runner does not repeat the check
    import ratexact.cli
    import ratexact.deciders
    real = ratexact.deciders.verify_certificate
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ratexact.deciders, "verify_certificate", counting)
    monkeypatch.setattr(ratexact.cli, "verify_certificate", counting,
                        raising=False)
    lines = [line for line in (CORPUS / "cases.txt").read_text().splitlines()
             if line.strip() and not line.startswith("#")
             and line.split("|")[3].strip() == "exact"]
    assert lines
    for line in lines:
        calls.clear()
        ok, detail = run_corpus_line(line)
        assert ok and detail["outcome"] == "exact"
        assert len(calls) == 1, line


def test_decide_symbolic_q_repeated_y_factors(capsys):
    # y-factors of multiplicity 2 and 3 over Q(q)(x), one of them
    # nonlinear in y: partial fractions must not blow up in coefficient size
    code, out, _ = run_json(
        capsys, "decide", "--q-symbolic", "--pair", "dqx-dy", "--expr",
        "(x+2*y+q)/((x+y)*(y+1)*(q*x+y)*(x+y+1)^2*(x+y^2+1)^3)", "--json")
    assert code == 0
    assert out["exact"] is False
    assert out["witness"] == {"den": "y + x", "kind": "mixed_denominator"}


def test_run_corpus_line_witness_mismatch():
    ok, _ = run_corpus_line(
        "dx-dy | none | 1/(x+y) | not-exact | non_summable_residue")
    assert not ok


def test_bundled_corpus_deterministic(capsys):
    cases = str(CORPUS / "cases.txt")
    code1, out1, _ = run(capsys, "corpus", cases, "--json")
    code2, out2, _ = run(capsys, "corpus", cases, "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_bundled_corpus_matches_golden(capsys):
    # the committed output of the bundled corpus: decisions, certificates
    # and witnesses must stay byte for byte the same
    code, out, _ = run(capsys, "corpus", str(CORPUS / "cases.txt"), "--json")
    assert code == 0
    assert out.encode() == (CORPUS / "expected.json").read_bytes()


def test_integers_of_any_length(capsys):
    # printing and parsing convert decimal digits in chunks below Python's
    # 4300-digit limit on int <-> str
    big = "1" + "0" * 5000
    code, out, err = run(capsys, "decide", "--pair", "dx-dy", "--expr",
                         "10^5000/(x*(x+1)*y)")
    assert code == 0, err
    assert out.splitlines() == ["exact", "g = (-%s)/(y*x)" % big, "h = 0"]
    g = parse_ratfunc("(-%s)/(y*x)" % big, plain())
    assert canonical_str(parse_ratfunc(canonical_str(g), plain())) == \
        canonical_str(g)
    assert g * RatFunc.from_pair(1, 10 ** 5000, plain()) == \
        RatFunc.from_pair(-1, x * y, plain())
    ok, detail = run_corpus_line("dx-dy | none | 10^5000/(x*(x+1)) | exact")
    assert ok and detail["outcome"] == "exact"
    assert detail["h"] == "(%s*y)/(x^2 + x)" % big
    # a 5000-digit literal and a 5000-digit rational coefficient
    digits = "7" * 4999 + "3"
    f = parse_ratfunc("%s*x/%s" % (digits, big), plain())
    text = canonical_str(f)
    assert text == "(%s*x)/(%s)" % (digits, big)
    assert parse_ratfunc(text, plain()) == f


def test_internal_error_exit_code(capsys, monkeypatch):
    import ratexact.cli

    def broken(*args):
        raise ValueError("unexpected\nstate")
    monkeypatch.setattr(ratexact.cli, "decide_exact", broken)
    code, out, err = run(capsys, "decide", "--pair", "dx-dy",
                         "--expr", "1/y")
    assert code == 3
    assert out == ""
    assert err == "internal error: ValueError: unexpected state\n"


def test_internal_error_in_corpus_is_per_line(capsys, monkeypatch, tmp_path):
    # the corpus twin: the faulty line is reported, never passes, the run
    # goes on, and the exit code is 3
    import ratexact.cli
    decide = ratexact.cli.decide_exact

    def broken(f, pair):
        if f.free_of(x):
            raise ValueError("unexpected\nstate")
        return decide(f, pair)
    monkeypatch.setattr(ratexact.cli, "decide_exact", broken)
    cases = tmp_path / "cases.txt"
    cases.write_text("dx-dy | none | 1/y | internal-error\n"
                     "dx-dy | none | 1/(x*(x+1)) | exact\n")
    code, out, err = run_json(capsys, "corpus", str(cases), "--json")
    assert code == 3 and err == ""
    assert out[0]["ok"] is False and out[0]["outcome"] == "internal-error"
    assert out[0]["message"] == "ValueError: unexpected state"
    assert out[1]["ok"] is True and out[1]["outcome"] == "exact"
    code, out, _ = run(capsys, "corpus", str(cases))
    assert code == 3 and "1/2 passed" in out


def test_orbit_distance_ceiling_is_exit_2(capsys):
    from ratexact.reductions import MAX_ORBIT_DISTANCE
    k = MAX_ORBIT_DISTANCE
    for pair, q, far in (("dx-dy", None, "x+%d" % (k + 1)),
                         ("dqx-dy", "2", "2^%d*x-1" % (k + 1)),
                         ("dqx-dy", "2", "2^1100*x-1")):
        argv = ["decide", "--pair", pair, "--expr",
                "1/((x-1)*y) - 1/((%s)*y)" % far]
        code, out, err = run(capsys, *argv + (["--q", q] if q else []))
        assert code == 2 and out == "", far
        assert err.startswith("error: orbit distance"), err
    code, out, _ = run_json(capsys, "decide", "--pair", "dx-dy", "--expr",
                            "1/((x-1)*y) - 1/((x+%d)*y)" % (k - 1), "--json")
    assert code == 0 and out["exact"] is True


def test_degree_ceiling_is_exit_2(capsys):
    # x^10000/y would take minutes to decide; it ends at the parser
    import time
    t = time.perf_counter()
    code, out, err = run(capsys, "decide", "--pair", "dx-dy", "--expr",
                         "x^10000/y")
    assert time.perf_counter() - t < 1
    assert code == 2 and out == ""
    assert err.startswith("error: total degree 10000 exceeds the ceiling"), err


@pytest.mark.parametrize("text, top", [("(x+y+1)^10000", 10000),
                                       ("(x+1)^1600/(x+1)^1599", 1600)])
def test_power_of_a_sum_is_refused_before_expansion(capsys, text, top):
    # (x+y+1)^10000 would expand about 50 million terms before the
    # ceiling on the reduced result could refuse it
    import time
    t = time.perf_counter()
    code, out, err = run(capsys, "decide", "--pair", "dx-dy", "--expr", text)
    assert time.perf_counter() - t < 1
    assert code == 2 and out == ""
    assert err == ("error: total degree %d exceeds the ceiling 1500\n"
                   % top), err


def test_bad_input_is_exit_2(capsys, tmp_path):
    # bad input is a RatexactError or an OSError, never an internal error
    for q in ("abc", "1/0", "7" * 5000):
        code, _, err = run(capsys, "decide", "--pair", "dqx-dy", "--q", q,
                           "--expr", "1/(x*y)")
        assert code == 2 and err.startswith("error: q must be"), q
    code, _, err = run(capsys, "decide", "--pair", "dx-dy", "--expr", "\u00b2")
    assert code == 2 and "unexpected character" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("dqx-dy | zeta:abc | 1/(x*y) | exact\n")
    code, _, err = run(capsys, "corpus", str(bad))
    assert code == 2 and err.startswith("error: root-of-unity order"), err
    code, _, _ = run(capsys, "corpus", str(CORPUS / "nonexistent.txt"))
    assert code == 2


def test_decision_path_avoids_y_ring(capsys, monkeypatch):
    # one ring per q-mode: k(x)[y] and Q(q)[y, x] are off the decision
    # path, and so is every sympy Expr (factor order and printing read
    # ring data), so the bundled corpus decides to the golden bytes, and a
    # factorization over Q(q) runs, with QMode.y_ring, QMode.poly_ring,
    # sympy's default_sort_key and PolyElement.as_expr unusable
    import sympy
    from sympy.polys.rings import PolyElement
    from ratexact.qmodes import QMode

    def unusable(self):
        raise AssertionError("a second ring built on the decision path")
    monkeypatch.setattr(QMode, "y_ring", unusable)
    monkeypatch.setattr(QMode, "poly_ring", unusable)

    def no_expr(*args, **kwargs):
        raise AssertionError("a sympy Expr built on the decision path")
    monkeypatch.setattr(sympy, "default_sort_key", no_expr)
    monkeypatch.setattr(PolyElement, "as_expr", no_expr)
    code, out, _ = run(capsys, "corpus", str(CORPUS / "cases.txt"), "--json")
    assert code == 0
    assert out.encode() == (CORPUS / "expected.json").read_bytes()
    code, out, _ = run_json(capsys, "factor", "--q-symbolic", "--expr",
                            "(q*x*y - 1)*(x + q*y)*(q^2*x - 1)", "--json")
    assert code == 0
    assert out["factors"] == [["(x*q^2 - 1)/(q^2)", 1], ["(y*q + x)/(q)", 1],
                              ["(y*x*q - 1)/(q)", 1]]
    assert out["unit"] == "q^4"


def test_q_shift_without_a_q_says_a_q_is_required(capsys):
    # plain mode has no q, which is not the same fault as q a root of unity
    from ratexact import QModeMismatch, q_summable_x
    code, out, err = run(capsys, "reduce", "--flavor", "tau-sy", "--expr",
                         "1/(x+y)")
    assert code == 2 and out == ""
    assert err == "error: q-shift reduced form requires a q\n"
    with pytest.raises(QModeMismatch, match="^q-summability requires a q$"):
        q_summable_x(parse_ratfunc("1/(x-1)", plain()))
    code, _, err = run(capsys, "reduce", "--flavor", "tau-sy",
                       "--root-of-unity", "3", "--expr", "1/(x+y)")
    assert code == 2
    assert err == ("error: q-shift reduced form requires q not a root of "
                   "unity\n")


@pytest.mark.parametrize("kind", ["dy", "sy"])
@pytest.mark.parametrize("mult", ["0", "-1"])
def test_residue_multiplicity_below_one_is_exit_2(capsys, kind, mult):
    code, out, err = run(capsys, "residue", "--kind", kind, "--at", "y",
                         "--mult", mult, "--expr", "1/y")
    assert code == 2 and out == ""
    assert err == "error: --mult must be at least 1\n"


@pytest.mark.parametrize("mult", ["2", "3"])
def test_residue_multiplicity_applies_to_sy_only(capsys, mult):
    # the residue in d/dy has no multiplicity: 1/y^2 at y with --mult 2
    # would print the numerator over y, 0, as if k were ignored
    code, out, err = run(capsys, "residue", "--kind", "dy", "--at", "y",
                         "--mult", mult, "--expr", "1/y^2")
    assert code == 2 and out == ""
    assert err == "error: --mult applies to --kind sy\n"
    code, out, _ = run(capsys, "residue", "--kind", "dy", "--at", "y",
                       "--mult", "1", "--expr", "1/y^2")
    assert code == 0 and out == "0\n"


@pytest.mark.parametrize("kind", ["dy", "sy"])
@pytest.mark.parametrize("at", ["0", "2", "x+1"])
def test_residue_at_a_y_free_polynomial_is_exit_2(capsys, kind, at):
    # a polynomial free of y has no root in y, so no residue there
    code, out, err = run(capsys, "residue", "--kind", kind, "--at", at,
                         "--expr", "1/y")
    assert code == 2 and out == ""
    assert err == "error: --at must have positive degree in y\n"


@pytest.mark.parametrize("kind", ["dy", "sy"])
@pytest.mark.parametrize("at", ["y^2", "y*(y+1)"])
def test_residue_at_a_reducible_polynomial_is_exit_2(capsys, kind, at):
    # a residue is taken at one irreducible factor in k(x)[y]
    code, out, err = run(capsys, "residue", "--kind", kind, "--at", at,
                         "--expr", "1/(y^2*(y+1)) + 1/(x*y)")
    assert code == 2 and out == ""
    assert err == ("error: a residue needs a polynomial irreducible in "
                   "k(x)[y], of positive degree in y\n")


@pytest.mark.parametrize("kind", ["dy", "sy"])
def test_residue_drops_the_factor_free_of_y(capsys, kind):
    # x*y is y times a unit of k(x): the residue at it is the one at y
    expr = "1/(y^2*(y+1)) + 1/(x*y)"
    got = {}
    for at in ("x*y", "y"):
        code, out, _ = run(capsys, "residue", "--kind", kind, "--at", at,
                           "--expr", expr)
        assert code == 0
        got[at] = out
    assert got["x*y"] == got["y"] == \
        {"dy": "(-x + 1)/(x)\n", "sy": "(1)/(x)\n"}[kind]


# -- no internal errors -----------------------------------------------

def _shaped(depth):
    """Expression text in the CLI grammar: leaves in x, y, q and small
    integers; sums, differences, products, quotients and powers -2 to 3,
    nested `depth` deep: numerators and denominators of total degree at
    most 9."""
    leaf = st.sampled_from(["x", "y", "q", "0", "1", "2", "-3"])
    if not depth:
        return leaf
    sub = _shaped(depth - 1)
    return st.one_of(
        leaf,
        st.builds("({} {} {})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({})^{}".format, sub, st.integers(-2, 3)))


# past the degree ceiling, zero once q is 1, or junk
_HOSTILE = st.sampled_from(["x^99999/y", "(y^40)^40 + x", "1/((q - 1)*y)",
                            "y/(x - x)", "q^-99999*x", "zeta", ""])

# grammar-shaped text is drawn twice as often as each other kind
_TEXT = st.one_of(_shaped(2), _shaped(2), _HOSTILE,
                  st.text("xyq0123+-*/^() .", max_size=10),
                  st.text(max_size=6))

_AT = st.sampled_from(["y", "y + 1", "x + y", "q*x*y - 1", "y^2 + x"])

_QFLAGS = st.one_of(
    st.just([]), st.just(["--q-symbolic"]),
    st.sampled_from(["0", "1", "-1", "2", "3/2", "-2/3"]).map(
        lambda v: ["--q", v]),
    st.integers(1, 12).map(lambda m: ["--root-of-unity", str(m)]))


@st.composite
def _commands(draw):
    cmd = draw(st.sampled_from(["decide", "reduce", "residue", "factor"]))
    if cmd == "decide":
        args = ["--pair", draw(st.sampled_from(["dx-dy", "dqx-dy",
                                                "dqx-sy"]))]
    elif cmd == "reduce":
        args = ["--flavor", draw(st.sampled_from(
            ["hermite", "abramov", "phi-dy", "tau-sy", "tau-rou"]))]
    elif cmd == "residue":
        args = ["--kind", draw(st.sampled_from(["dy", "sy"])),
                "--at=" + draw(st.one_of(_AT, _TEXT)),
                "--mult", draw(st.sampled_from(["1", "1", "2", "0"]))]
    else:
        args = []
    return [cmd, *args, "--expr=" + draw(_TEXT), *draw(_QFLAGS),
            *draw(st.sampled_from([[], ["--json"]]))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_commands())
def test_no_input_is_an_internal_error(argv):
    # bad input exits 2, never 3 with a traceback's worth of fault
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
