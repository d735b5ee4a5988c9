"""Expression grammar: round trips, precedence, and error positions."""

from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import ratexact.core
from ratexact import (BiPoly, QModeMismatch, RatFunc, parse_ratfunc,
                      canonical_str, plain, transcendental, rational,
                      root_of_unity)
from ratexact.cli import main
from ratexact.errors import ExprSyntaxError, RatexactError, ZeroDenominator
from ratexact.parsing import MAX_DEGREE, MAX_EXPONENT
from ratexact.qmodes import q, x, y

P = plain()
T = transcendental()


def test_basic_atoms():
    assert parse_ratfunc("x", P) == RatFunc(x, P)
    assert parse_ratfunc("42", P) == RatFunc(42, P)
    assert parse_ratfunc("-y", P) == RatFunc(-y, P)


def test_precedence_and_power():
    assert parse_ratfunc("1 + 2*x^2", P) == RatFunc(1 + 2 * x ** 2, P)
    # power binds tighter than unary minus; exponents are integer
    # literals, so chained ^ is a syntax error
    assert parse_ratfunc("-x^2", P) == RatFunc(-x ** 2, P)
    assert parse_ratfunc("x^-2", P) == RatFunc.from_pair(1, x ** 2, P)
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("2^3^2", P)


def test_division_left_associative():
    assert parse_ratfunc("x/y/2", P) == RatFunc.from_pair(x, 2 * y, P)


def test_parens():
    f = parse_ratfunc("(x + y)^2 / (x*y - 1)", P)
    assert f == RatFunc.from_pair((x + y) ** 2, x * y - 1, P)


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("2x", P)
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("x y", P)


def test_error_positions():
    with pytest.raises(ExprSyntaxError) as ei:
        parse_ratfunc("1/(x+", P)
    assert ei.value.line == 1 and ei.value.col == 6
    with pytest.raises(ExprSyntaxError) as ei:
        parse_ratfunc("x +\n* y", P)
    assert ei.value.line == 2 and ei.value.col == 1


def test_q_requires_q_mode():
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("q*x", P)
    assert parse_ratfunc("q*x", T) == RatFunc(q * x, T)


def test_q_elaborates_to_mode_value():
    M = rational(sp.Rational(2, 3))
    assert parse_ratfunc("q", M) == RatFunc(sp.Rational(2, 3), M)
    M2 = root_of_unity(2)
    assert parse_ratfunc("q + 1", M2) == RatFunc(0, M2)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        parse_ratfunc("1/0", P)
    with pytest.raises(ZeroDenominator):
        parse_ratfunc("x/(y - y)", P)


@pytest.mark.parametrize("text, flag", [
    ("x/(y-y)", None), ("(x-x)^-1", None), ("0^-2", None),
    ("1/(1/x - 1/x)", None), ("1/(q+1)", "2"), ("x/(q^2 + q + 1)", "3"),
    ("(q^2 + 1)^-2", "4"), ("(1/0)^0", None)])
def test_zero_divisor_of_unreduced_pair(text, flag, capsys):
    # the divisor's pair is never reduced before the test for zero
    mode = root_of_unity(flag) if flag else P
    with pytest.raises(ZeroDenominator):
        parse_ratfunc(text, mode)
    argv = ["decide", "--pair", "dx-dy", "--expr", text]
    if flag:
        argv = ["decide", "--pair", "dqx-dy", "--root-of-unity", flag,
                "--expr", text]
    assert main(argv) == 2
    assert "division by zero" in capsys.readouterr().err


def test_zero_to_the_zero_is_one():
    assert parse_ratfunc("0^0", P) == RatFunc(1, P)
    assert parse_ratfunc("(x - x)^-0 + y", P) == RatFunc(1 + y, P)


def test_exponent_ceiling():
    # the largest exponent literal is accepted (on a constant: x^10000 is
    # over the degree ceiling, test_degree_ceiling)
    f = parse_ratfunc("2^%d" % MAX_EXPONENT, P)
    assert f == RatFunc(2 ** MAX_EXPONENT, P)
    for text, col in (("x^%d" % (MAX_EXPONENT + 1), 3),
                      ("1 +\n 2^-0%d" % (MAX_EXPONENT + 1), 5),
                      ("2^999999999", 3), ("x^" + "9" * 5000, 3)):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_ratfunc(text, P)
        assert "exponent exceeds" in str(ei.value)
        assert (ei.value.line, ei.value.col) == (text.count("\n") + 1, col)


def test_degree_ceiling():
    # the total degree in x and y of the reduced numerator and denominator
    # is at most MAX_DEGREE; q and constants do not count
    k = MAX_DEGREE
    for text, mode in (("x^%d/y" % (k - 1), P), ("x^%d/(y*q^2)" % (k - 1), T),
                       ("(x*y)^%d/(x + 1)" % (k // 2), P),
                       ("x^%d*y/(x^%d + x^%d)" % (k, k + 5, k), P),
                       ("2^%d*x" % MAX_EXPONENT, P)):
        assert parse_ratfunc(text, mode).denom
    for text, top in (("x^%d/y" % (k + 1), k + 1), ("1/(x*y^%d)" % k, k + 1),
                      ("y^%d*(x + 1)" % k, k + 1),
                      ("x^%d" % MAX_EXPONENT, MAX_EXPONENT)):
        with pytest.raises(RatexactError) as ei:
            parse_ratfunc(text, T)
        assert str(ei.value) == ("total degree %d exceeds the ceiling %d"
                                 % (top, k))


def test_parse_reduces_once(monkeypatch):
    # the parser evaluates pairs and reduces only the result
    num = " + ".join("%d*x^%d*y^%d" % (i + 1, i % 7, i // 7)
                     for i in range(20))
    den = " - ".join("(%d*y^%d*x)" % (2 * i + 1, i) for i in range(10))
    real = ratexact.core._reduce
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ratexact.core, "_reduce", counting)
    f = parse_ratfunc("(%s)/(%s)" % (num, den), P)
    assert len(calls) == 1
    assert len(f.numer.terms()) == 20 and len(f.denom.terms()) == 10


def test_print_parse_round_trip():
    cases = [
        ("1/(x*y)", P), ("(x^2 + 2*x*y)/(x + y)", P), ("0", P),
        ("-3*x + y^2", P), ("q/(x*y - q)", T),
        ("(q^2 + 1)/(q*x + y)", T),
    ]
    for text, mode in cases:
        f = parse_ratfunc(text, mode)
        s = canonical_str(f)
        assert parse_ratfunc(s, mode) == f


def test_round_trip_fuzz():
    import random
    rng = random.Random(77)
    for i in range(200):
        mode = T if i % 3 == 0 else P
        gens = [x, y] + ([q] if mode.has_q else [])
        def poly():
            t = sum(rng.randint(-9, 9) * rng.choice(gens) ** rng.randint(0, 3)
                    for _ in range(rng.randint(1, 4)))
            return t if t != 0 else sp.Integer(1)
        f = RatFunc.from_pair(poly(), poly(), mode)
        assert parse_ratfunc(canonical_str(f), mode) == f


def test_round_trip_corpus_expressions():
    from ratexact.cli import _parse_qmode_token
    cases = Path(__file__).resolve().parent.parent / "corpus" / "cases.txt"
    with open(cases) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if parts[3] == "error":
                continue
            mode = _parse_qmode_token(parts[1])
            f = parse_ratfunc(parts[2], mode)
            assert parse_ratfunc(canonical_str(f), mode) == f


def test_round_trip_root_of_unity():
    M = root_of_unity(4)
    f = parse_ratfunc("q*x/(y + q)", M)
    s = canonical_str(f)
    assert parse_ratfunc(s, M) == f


# -- differential: the parser against the public Expr constructor ------

_DIFF_MODES = {"none": P, "2/3": rational(sp.Rational(2, 3)),
               "symbolic": T, "zeta:3": root_of_unity(3),
               "zeta:4": root_of_unity(4)}


def _trees(letters, depth=3):
    """Expression trees: integer and letter leaves; nodes (op, a, b) for
    op in + - * /, ("neg", a) and ("^", a, n)."""
    leaf = st.sampled_from([*letters, *letters, 0, 1, 2, 7])
    if not depth:
        return leaf
    sub = _trees(letters, depth - 1)
    return st.one_of(st.tuples(st.sampled_from("+-*/"), sub, sub),
                     st.tuples(st.just("^"), sub, st.integers(-3, 3)),
                     st.tuples(st.just("neg"), sub), leaf)


def _text(tree):
    if not isinstance(tree, tuple):
        return str(tree)
    a = _text(tree[1])
    if isinstance(tree[1], tuple):
        a = "(%s)" % a
    if tree[0] == "neg":
        return "-" + a
    if tree[0] == "^":
        return "%s^%d" % (a, tree[2])
    return "(%s %s %s)" % (_text(tree[1]), tree[0], _text(tree[2]))


def _expr(tree, mode, qv):
    """The sympy expression of tree, with q read as qv; ZeroDenominator
    where a divisor is zero in mode."""
    def nonzero(e):
        if RatFunc(e, mode).is_zero:
            raise ZeroDenominator("division by zero")
        return e

    if isinstance(tree, int):
        return sp.Integer(tree)
    if isinstance(tree, str):
        return {"x": x, "y": y, "q": qv}[tree]
    op, a = tree[0], _expr(tree[1], mode, qv)
    if op == "neg":
        return -a
    if op == "^":
        return (1 / nonzero(a)) ** -tree[2] if tree[2] < 0 else a ** tree[2]
    b = _expr(tree[2], mode, qv)
    if op == "/":
        return a / nonzero(b)
    return a + b if op == "+" else a - b if op == "-" else a * b


@pytest.mark.parametrize("token", sorted(_DIFF_MODES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_parser_matches_expr_constructor(token, data):
    mode = _DIFF_MODES[token]
    tree = data.draw(_trees("xyq" if mode.has_q else "xy"))
    if mode.kind == "transcendental":
        qv = q
    elif mode.has_q:
        qv = mode.coeff_domain().to_sympy(mode.q_element())
    else:
        qv = None
    text = _text(tree)
    try:
        expected = RatFunc(_expr(tree, mode, qv), mode)
    except ZeroDenominator:
        with pytest.raises(ZeroDenominator):
            parse_ratfunc(text, mode)
        return
    f = parse_ratfunc(text, mode)
    assert f == expected, text
    assert canonical_str(f) == canonical_str(expected), text


_Q_MODES = {"none": P, "3/2": rational("3/2"), "symbolic": T,
            "zeta:2": root_of_unity(2), "zeta:3": root_of_unity(3)}


@pytest.mark.parametrize("token", sorted(_Q_MODES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_expr_constructors_read_q_as_the_parser(token, data):
    # RatFunc(expr) and BiPoly(expr) read the symbol q as the q-mode's q,
    # as the parser reads the letter q; without a q, both refuse it
    mode = _Q_MODES[token]
    tree = data.draw(_trees("xyq" if mode.has_q else "xy"))
    text = _text(tree)
    try:
        e = _expr(tree, mode, q)
    except ZeroDenominator:
        with pytest.raises(ZeroDenominator):
            parse_ratfunc(text, mode)
        return
    f = parse_ratfunc(text, mode)
    assert RatFunc(e, mode) == f, text
    if f.is_polynomial():
        assert BiPoly(e, mode) == f, text
    if not mode.has_q:
        for cls in (RatFunc, BiPoly):
            with pytest.raises(QModeMismatch):
                cls(e + q * y, mode)
        with pytest.raises(ExprSyntaxError):
            parse_ratfunc("(%s) + q*y" % text, mode)
