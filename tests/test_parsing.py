"""Expression grammar: round trips, precedence, and error positions."""

import re
from math import gcd
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
    # a tab is one column; "\r\n" ends a line as "\n" does
    for text, line, col in (
            ("1/(x+", 1, 6), ("x +\n* y", 2, 1),
            ("x +\t)", 1, 5), ("\t\t2*x + $", 1, 9),
            ("x\r\n+ y +\r\n * 2", 3, 2), ("x +\r\n\r\n", 3, 1),
            ("x +\ny *\n2 + $", 3, 5), ("x +\n\ty\r\n+ 3 ?", 3, 5)):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_ratfunc(text, P)
        assert (ei.value.line, ei.value.col) == (line, col), text


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
    # the parser reduces only the result
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


@pytest.mark.parametrize("token", ["none", "symbolic", "3/2", "zeta:4"])
def test_sums_of_monomials_take_no_ring_products(token, monkeypatch):
    # a sum of monomials is read by exponent arithmetic into one ring
    # element: no pair-ring product or power runs before the reduction
    from sympy.polys.rings import PolyElement
    mode = {"none": P, "symbolic": T, "3/2": rational("3/2"),
            "zeta:4": root_of_unity(4)}[token]
    text = ("(-4*x*y^2*q + 4*x*y^2 - 3*x*y*q^3 + 3*x*y - 3*x*q/2 + 3*x)"
            "/(x^2*y^2*q - 5*x*y - x*y*q^-1 + 1)")
    if not mode.has_q:
        text = text.replace("q", "7")
    f = parse_ratfunc(text, mode)
    calls, seen = [], []
    for name in ("__mul__", "__rmul__", "__pow__"):
        def counting(*args, real=getattr(PolyElement, name)):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(PolyElement, name, counting)
    real = ratexact.core._reduce

    def reduce(*args):
        seen.append(len(calls))
        return real(*args)

    monkeypatch.setattr(ratexact.core, "_reduce", reduce)
    assert parse_ratfunc(text, mode) == f
    assert seen == [0]


def test_degree_ceiling_refuses_products_of_sums(monkeypatch):
    # a product or power of sums over the ceiling is refused before it
    # is expanded, in a sum's common denominator too: degrees records
    # each product and power of sums the parser expands
    from sympy.polys.rings import PolyElement
    degrees = []

    def degree(p):
        return max((m[0] + m[1] for m in p.itermonoms()), default=0)

    real_mul, real_pow = PolyElement.__mul__, PolyElement.__pow__

    def mul(a, b):
        if len(a) > 1 and len(b) > 1:
            degrees.append(degree(a) + degree(b))
        return real_mul(a, b)

    def power(a, n):
        if len(a) > 1:
            degrees.append(degree(a) * n)
        return real_pow(a, n)

    monkeypatch.setattr(PolyElement, "__mul__", mul)
    monkeypatch.setattr(PolyElement, "__pow__", power)
    for text, top in (("(x^800 + 1)*(x^800 + 2)", 1600),
                      ("1/(x^800 + 1) + 1/(y^800 + 2)", 1600),
                      ("((x + y)^2)^751", 1502), ("(x/(y + 1))^1501", 1501)):
        with pytest.raises(RatexactError) as ei:
            parse_ratfunc(text, P)
        assert str(ei.value) == ("total degree %d exceeds the ceiling %d"
                                 % (top, MAX_DEGREE))
    assert degrees and max(degrees) <= MAX_DEGREE


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


def _printed_coeffs(text):
    """The coefficient of each printed term of text, as written (1 when
    the term starts with a letter), the denominator 1 included when it
    is not printed."""
    parts = text[1:-1].split(")/(") if text.startswith("(") else [text, "1"]
    return [t.split("*")[0] if t[0].isdigit() else "1"
            for part in parts for t in re.split(" [+-] ", part.lstrip("-"))]


def test_round_trip_fuzz():
    # over Q(zeta_m) too, where the printer lifts the pair to Z[y, x, q]:
    # in every mode the printed coefficients are integers with gcd 1
    import random
    rng = random.Random(77)
    modes = [T if i % 3 == 0 else P for i in range(200)]
    for m in (3, 4, 5, 8):
        modes += [root_of_unity(m)] * 25
    for mode in modes:
        gens = [x, y] + ([q] if mode.has_q else [])
        def poly():
            t = sum(rng.randint(-9, 9) * rng.choice(gens) ** rng.randint(0, 3)
                    for _ in range(rng.randint(1, 4)))
            return t if t != 0 else sp.Integer(1)
        try:
            f = RatFunc.from_pair(poly(), poly(), mode)
        except ZeroDenominator:  # a polynomial in q that vanishes at zeta_m
            continue
        text = canonical_str(f)
        assert parse_ratfunc(text, mode) == f
        if not f.is_zero:
            coeffs = _printed_coeffs(text)
            assert all(c.isdigit() for c in coeffs), text
            assert gcd(*map(int, coeffs)) == 1, text


@pytest.mark.parametrize("m", [None, 2, 3, 4, 6])
def test_printed_bytes_do_not_depend_on_the_field(m):
    # integer coefficients over every field: no 1/(y + 1/2) over Q(zeta_m)
    mode = P if m is None else root_of_unity(m)
    assert canonical_str(parse_ratfunc("2/(2*y+1)", mode)) == "(2)/(2*y + 1)"


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
               "2^64": rational(2 ** 64), "symbolic": T,
               **{"zeta:%d" % m: root_of_unity(m)
                  for m in (1, 2, 3, 4, 5, 12)}}


def _trees(letters, depth=3, kmax=0):
    """Expression trees: integer and letter leaves, and q^k leaves
    ("^", "q", k) for |k| <= kmax; nodes (op, a, b) for op in + - * /,
    ("neg", a) and ("^", a, n)."""
    leaf = st.sampled_from([*letters, *letters, 0, 1, 2, 7])
    if kmax:
        leaf = st.one_of(leaf, st.tuples(st.just("^"), st.just("q"),
                                         st.integers(-kmax, kmax)))
    if not depth:
        return leaf
    sub = _trees(letters, depth - 1, kmax)
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
        if tree[2] >= 0:
            return a ** tree[2]
        # q is nonzero in every q-mode
        return (1 / (a if tree[1] == "q" else nonzero(a))) ** -tree[2]
    b = _expr(tree[2], mode, qv)
    if op == "/":
        return a / nonzero(b)
    return a + b if op == "+" else a - b if op == "-" else a * b


@pytest.mark.parametrize("token", sorted(_DIFF_MODES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_parser_matches_expr_constructor(token, data):
    # q^k leaves with |k| up to 2m + 1 over Q(zeta_m): exponents of zeta
    # that wrap around m and go negative
    mode = _DIFF_MODES[token]
    kmax = 2 * mode.order + 1 if mode.order else 3
    tree = data.draw(_trees("xyq", kmax=kmax) if mode.has_q
                     else _trees("xy"))
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
