"""Expression grammar: round trips, precedence, and error positions."""

from pathlib import Path

import pytest
import sympy as sp

from ratexact import (RatFunc, parse_ratfunc, canonical_str,
                      plain, transcendental, rational, root_of_unity)
from ratexact.errors import ExprSyntaxError
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
    from ratexact.errors import ZeroDenominator
    with pytest.raises(ZeroDenominator):
        parse_ratfunc("1/0", P)
    with pytest.raises(ZeroDenominator):
        parse_ratfunc("x/(y - y)", P)


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
