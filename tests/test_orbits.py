"""Shift-, q-shift-, and joint-orbit equivalence."""

import sympy as sp

from ratexact import (BiPoly, RatFunc, plain, rational, root_of_unity,
                      transcendental, shift_equivalent, sigma_equivalent,
                      q_equivalent, joint_equivalent, decide_exact,
                      verify_certificate)
from ratexact.deciders import QSHIFT_X_DERIV_Y
from ratexact.qmodes import q, x, y

P = plain()
T = transcendental()


def test_sigma_equivalent_basic():
    a = BiPoly(x * y - 1, P)
    b = BiPoly(x * (y + 3) - 1, P)
    n, scale = sigma_equivalent(a, b)
    assert n == 3 and scale == 1
    assert BiPoly(a.expr.subs(y, y + n), P) == BiPoly(scale * b.expr, P)


def test_sigma_equivalent_negative_and_scaled():
    a = BiPoly(2 * y + 2 * x, P)
    b = BiPoly(y + x - 5, P)
    n, scale = sigma_equivalent(a, b)
    assert n == -5 and scale == 2


def test_sigma_inequivalent():
    assert sigma_equivalent(BiPoly(x * y - 1, P), BiPoly(x * y + x, P)) \
        is None
    assert sigma_equivalent(BiPoly(y, P), BiPoly(y ** 2, P)) is None


def test_shift_equivalent_in_x():
    a = BiPoly(x + y ** 2, P)
    b = BiPoly(x + y ** 2 + 4, P)
    n, scale = shift_equivalent(a, b, x)
    assert n == 4 and scale == 1


def test_q_equivalent_symbolic():
    a = BiPoly(x * y - 1, T)
    b = BiPoly(q ** 2 * x * y - 1, T)
    res = q_equivalent(a, b)
    assert res is not None
    m, scale = res
    assert m == 2
    assert BiPoly(a.expr.subs(x, q ** m * x) - scale * b.expr, T).is_zero


def test_q_inequivalent_symbolic():
    assert q_equivalent(BiPoly(x * y - 1, T), BiPoly(x * y + 1, T)) is None
    assert q_equivalent(BiPoly(x + y, T), BiPoly(x + 2 * y, T)) is None


def test_q_equivalent_monomial_degenerate():
    # single-support polynomials are associates at any q-power
    res = q_equivalent(BiPoly(x * y, T), BiPoly(3 * x * y, T))
    assert res is not None


def test_q_equivalent_rational_value():
    M = rational(2)
    a = BiPoly(x + y, M)
    b = BiPoly(8 * x + y, M)
    res = q_equivalent(a, b)
    assert res is not None and res[0] == 3
    # q^k is solved exactly for a huge q, for |q| < 1, for q < 0 and for
    # k < 0, and 1/((x-1)y) - 1/((q^k x-1)y) then telescopes
    R = sp.Rational
    for v, c, k in ((2 ** 512, 2 ** 1024, 2), (R(3, 2), R(8, 27), -3),
                    (R(1, 2), 16, -4), (R(2, 3), R(32, 243), 5),
                    (-2, -8, 3)):
        M = rational(v)
        assert q_equivalent(BiPoly(x - 1, M), BiPoly(c * x - 1, M))[0] == k
        f = RatFunc(1 / ((x - 1) * y) - 1 / ((c * x - 1) * y), M)
        d = decide_exact(f, QSHIFT_X_DERIV_Y)
        assert d.exact
        assert verify_certificate(f, *d.certificate, QSHIFT_X_DERIV_Y)


def test_q_equivalent_root_of_unity_is_cyclic():
    M = root_of_unity(4)
    a = BiPoly(x + y, M)
    b = a.qshift_x(3)
    res = q_equivalent(a, b)
    assert res is not None
    assert res[0] % 4 == 3 % 4


def test_joint_equivalent():
    a = BiPoly(x * y - 1, T)
    b = BiPoly(q ** 3 * x * (y - 2) - 1, T)
    res = joint_equivalent(a, b)
    assert res is not None
    assert (res.m, res.n) == (3, -2)


def test_joint_inequivalent():
    assert joint_equivalent(BiPoly(x * y - 1, T),
                            BiPoly(x * y ** 2 - 1, T)) is None


def test_shift_equivalence_axioms():
    base = BiPoly(x * y - 1, P)
    a = base
    b = base.shift(x, 3)
    c = base.shift(x, 5)
    # reflexive with zero offset
    assert shift_equivalent(a, a, x)[0] == 0
    # symmetric with negated witness
    assert shift_equivalent(a, b, x)[0] == -shift_equivalent(b, a, x)[0]
    # transitive with added witnesses
    assert shift_equivalent(a, c, x)[0] == \
        shift_equivalent(a, b, x)[0] + shift_equivalent(b, c, x)[0]


def test_self_equivalence_forces_x_free():
    # a nonzero shift-self-equivalence can only happen for x-free polys
    from ratexact.orbits import is_free_of_x
    p = BiPoly(y ** 2 + 1, P)
    assert is_free_of_x(p)
    mixed = BiPoly(x * y - 1, T)
    w = joint_equivalent(mixed, mixed)
    assert w is None or (w.m, w.n) == (0, 0)
