"""Univariate (q-)summability of the x-dependent residue coefficients."""

import random

import pytest
import sympy as sp

from ratexact import (BiPoly, PfdTerm, QModeMismatch, RatFunc, QSHIFT_X,
                      SHIFT_X, SHIFT_Y, abramov_summable_x, q_summable_x,
                      plain, transcendental, rational, root_of_unity)
from ratexact.qmodes import q, x, y
from ratexact.reductions import _absorb_summable, abramov_reduce

P = plain()
T = transcendental()


def _check_shift(f, mode):
    res = abramov_summable_x(f)
    if res.summable:
        g = res.certificate
        assert g.shift_x(1) - g == f
    return res.summable, res.certificate


def test_shift_summable_telescope():
    f = RatFunc.from_pair(1, x * (x + 1), P)
    ok, g = _check_shift(f, P)
    assert ok
    assert g == RatFunc.from_pair(-1, x, P)


def test_shift_not_summable_single_pole():
    res = abramov_summable_x(RatFunc.from_pair(1, x, P))
    assert not res.summable
    assert res.obstruction


def test_shift_polynomial_part():
    ok, g = _check_shift(RatFunc(x, P), P)
    assert ok


def test_shift_summable_constructed():
    g = RatFunc.from_pair(x + 3, x ** 2 * (x + 2), P)
    f = g.shift_x(1) - g
    ok, _ = _check_shift(f, P)
    assert ok


def test_shift_nonsummable_mixed():
    f = RatFunc.from_pair(1, x, P) + RatFunc.from_pair(1, x ** 2, P)
    assert not abramov_summable_x(f).summable


def _check_q(f, mode):
    res = q_summable_x(f)
    if res.summable:
        g = res.certificate
        assert g.qshift_x(1) - g == f
    return res.summable, res.certificate


def test_q_summable_power():
    # q-shift of x is qx: 1/x maps to 1/(qx), difference is summable
    g = RatFunc.from_pair(1, x, T)
    f = g.qshift_x() - g
    ok, _ = _check_q(f, T)
    assert ok


def test_q_constant_not_summable():
    assert not q_summable_x(RatFunc(1, T)).summable


def test_q_monomials_summable():
    # x^n is q-summable for n != 0 since q^n - 1 is invertible
    for n in (-2, -1, 1, 2, 3):
        ok, g = _check_q(RatFunc(x ** n, T), T)
        assert ok


def test_q_summable_pole_orbit():
    g = RatFunc.from_pair(1, (x - 1) * (q * x - 1), T)
    f = g.qshift_x() - g
    ok, _ = _check_q(f, T)
    assert ok


def test_q_not_summable_single_pole():
    assert not q_summable_x(RatFunc.from_pair(1, x - 1, T)).summable


def test_q_rational_value_mode():
    M = rational(sp.Rational(2, 3))
    g = RatFunc.from_pair(1, x - 1, M)
    f = g.qshift_x() - g
    res = q_summable_x(f)
    assert res.summable
    h = res.certificate
    assert h.qshift_x(1) - h == f


# -- the one Abramov reduction for sigma_y, sigma_x and tau_x ---------

R23 = rational(sp.Rational(2, 3))

# op, mode, denominator pool of g, non-summable w (each alone)
_REDUCE_CASES = [
    (SHIFT_Y, P, [y, y + 2, x * y - 1, y ** 2 + x],
     [1 / y, x / (y ** 2 + x), 1 / (y * (y + 1) * (x + y))]),
    (SHIFT_X, P, [x, x + 3, x ** 2 + y, x * y + 1],
     [1 / x, y / (x ** 2 + 1), 1 / ((x + y) ** 2)]),
    (QSHIFT_X, R23, [x, x - 1, 3 * x - 2, x ** 2 + y, x + y],
     [sp.Integer(1), y / (y + 1), 1 / (x - 1), x / (x ** 2 + y)]),
    (QSHIFT_X, T, [x, x - 1, q * x - 1, x ** 2 + y],
     [sp.Integer(1), 1 / (x - q), y / ((x + y) * (x - 1))]),
]


def _random_g(rng, pool, mode):
    """A sum of c*x^i*y^k/den^e over the pool, with x^i for i in -2..3."""
    e = sum(rng.randint(-5, 5) * x ** rng.randint(-2, 3)
            * y ** rng.randint(0, 1) / rng.choice(pool) ** rng.randint(1, 2)
            for _ in range(3))
    return RatFunc(e + rng.randint(1, 5) * x ** rng.randint(-2, 3), mode)


def test_abramov_reduce_recomposes_and_detects_summability():
    rng = random.Random(14)
    for op, mode, pool, ws in _REDUCE_CASES:
        for k in range(8):
            g = _random_g(rng, pool, mode)
            w = ws[k % len(ws)] * rng.randint(1, 3) if k % 3 else 0
            f = op.delta(g) + RatFunc(w, mode)
            g2, terms = abramov_reduce(f, op)
            assert f == op.delta(g2) + sum((t.value() for t in terms),
                                           RatFunc(0, mode))
            assert bool(terms) == (w != 0), (op, mode, w)


def test_abramov_reduce_q_laurent_part():
    # x^j for j != 0 is tau-summable; x^0 is the one term left, over 1
    for mode in (R23, T):
        g, terms = abramov_reduce(
            RatFunc(sum(x ** j for j in range(-2, 4)), mode), QSHIFT_X)
        assert [(t.den, t.j) for t in terms] == [(BiPoly.ground(1, mode), 0)]
        assert terms[0].num == RatFunc(1, mode)
        assert QSHIFT_X.delta(g) == RatFunc(
            sum(x ** j for j in range(-2, 4) if j), mode)


def test_residual_absorbed_iff_every_y_coefficient_is_summable():
    # a = sum c_j(x)*y^j over a y-free denominator, as the residual terms
    # of a reduced form are: one test over k(y) against one per c_j
    rng = random.Random(15)
    cases = [(SHIFT_X, P, [x, x + 2, x ** 2 + 1], 1 / (x + 1)),
             (QSHIFT_X, R23, [x, x - 1, x ** 2 + 1], 1 / (x - 3)),
             (QSHIFT_X, T, [x, x - 1, q * x + 1], sp.Integer(1))]
    for op, mode, pool, w in cases:
        univariate = abramov_summable_x if op == SHIFT_X else q_summable_x
        for k in range(6):
            coeffs = []
            for j in range(3):
                g = RatFunc(rng.randint(1, 4) / rng.choice(pool)
                            + rng.randint(-3, 3) * x ** rng.randint(-1, 2),
                            mode)
                c = op.delta(g)
                if k % 2 and j == k % 3:
                    c = c + RatFunc(w, mode)
                coeffs.append(c)
            a = sum((c * RatFunc(y ** j, mode) for j, c in enumerate(coeffs)),
                    RatFunc(0, mode))
            assert a.is_polynomial(y)
            d = BiPoly(y + 1, mode)
            extra, rest = _absorb_summable((PfdTerm(a, d, 2),), op)
            res = [univariate(c) for c in coeffs]
            assert (not rest) == all(r.summable for r in res)
            if not rest:
                b = sum((r.certificate * RatFunc(y ** j, mode)
                         for j, r in enumerate(res)), RatFunc(0, mode))
                assert extra == [b / RatFunc((y + 1) ** 2, mode)]


def test_summability_rejects_y_and_root_of_unity():
    Z3 = root_of_unity(3)
    with pytest.raises(QModeMismatch):
        q_summable_x(RatFunc.from_pair(1, x - 1, Z3))
    with pytest.raises(QModeMismatch):
        abramov_reduce(RatFunc.from_pair(1, x - 1, Z3), QSHIFT_X)
    with pytest.raises(ValueError):
        abramov_summable_x(RatFunc.from_pair(1, x + y, P))
    with pytest.raises(ValueError):
        q_summable_x(RatFunc.from_pair(1, x * y - 1, T))
