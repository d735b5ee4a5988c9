"""Partial-fraction and orbit decompositions, residues, and the
commutation identities they rely on."""

import random

import sympy as sp

from ratexact import (BiPoly, RatFunc, parse_ratfunc, partial_fractions,
                      sigma_decomposition, residue_dy, residue_sigma,
                      plain, rational, root_of_unity, transcendental)
from ratexact.qmodes import q, x, y

P = plain()
T = transcendental()


def test_partial_fractions_classic():
    f = RatFunc.from_pair(1, y ** 2 * (y + 1), P)
    dec = partial_fractions(f)
    assert dec.recompose() == f
    got = {(sp.sstr(t.den.as_expr()), t.j): t.num.as_expr() for t in dec.terms}
    assert got == {("y", 1): -1, ("y", 2): 1, ("y + 1", 1): 1}


def test_partial_fractions_rational_x_numerators():
    f = RatFunc.from_pair(1, x * y, P)
    dec = partial_fractions(f)
    assert dec.recompose() == f
    assert len(dec.terms) == 1
    t = dec.terms[0]
    assert t.den.as_expr() == y and t.j == 1
    assert t.num == RatFunc.from_pair(1, x, P)


def test_partial_fractions_poly_part():
    f = RatFunc((y ** 3 + 1) / y, P)
    dec = partial_fractions(f)
    assert dec.poly_part.as_expr() == y ** 2
    assert dec.recompose() == f


def test_partial_fractions_random_recompose():
    # besides recomposing to f, the decomposition meets the conditions
    # that make it unique: each numerator has y-free denominator and
    # y-degree below its d's, and each (d, j) appears once
    for mode in (P, rational(sp.Rational(3, 2)), T, root_of_unity(3)):
        rng = random.Random(5)
        qv = "q" if mode.has_q else "2"
        pool = ["y", "y+1", "x*y-1", "y+x", "y^2+x+1", qv + "*x+y"]
        for _ in range(12):
            den = "*".join("(%s)^%d" % (d, rng.randint(1, 3))
                           for d in rng.sample(pool, rng.randint(1, 3)))
            num = "+".join("%d*x^%d*y^%d" % (rng.randint(-5, 5), i, j)
                           for i in range(2) for j in range(4))
            f = parse_ratfunc("(%s+1+%s*y)/(%s)" % (num, qv, den), mode)
            dec = partial_fractions(f)
            assert dec.recompose() == f
            assert dec.poly_part.den.free_of(y)
            for t in dec.terms:
                assert t.num.den.free_of(y)
                assert t.num.num.degree(y) < t.den.degree(y)
            assert len({(t.den, t.j) for t in dec.terms}) == len(dec.terms)


def test_sigma_decomposition_merges_orbits():
    # y and y+3 share a sigma_y-orbit: one representative denominator
    f = RatFunc.from_pair(1, y, P) + RatFunc.from_pair(1, y + 3, P)
    dec = sigma_decomposition(f)
    assert dec.recompose() == f
    reps = {sp.sstr(t.den.as_expr()) for t in dec.terms}
    assert reps == {"y"}


def test_sigma_decomposition_random_recompose():
    rng = random.Random(9)
    pool = [y, y + 1, y + 2, x * y - 1, x * y + x - 1, y + x]
    for _ in range(25):
        den = sp.prod([rng.choice(pool)
                       for _ in range(rng.randint(1, 3))])
        num = 1 + sum(rng.randint(-5, 5) * x ** i * y ** j
                      for i in range(2) for j in range(2))
        f = RatFunc.from_pair(num, den, P)
        assert sigma_decomposition(f).recompose() == f


def test_residue_dy_values():
    f = RatFunc.from_pair(1, y ** 2 * (y + 1), P)
    assert residue_dy(f, BiPoly(y, P)) == RatFunc(-1, P)
    assert residue_dy(f, BiPoly(y + 1, P)) == RatFunc(1, P)
    assert residue_dy(RatFunc(y ** 3, P), BiPoly(y, P)).is_zero


def test_residue_sigma_collects_orbit():
    # 1/y + 1/(y+1) has sigma-residue 2 at y (both orbit members count)
    f = RatFunc.from_pair(1, y, P) + RatFunc.from_pair(1, y + 1, P)
    assert residue_sigma(f, BiPoly(y, P), 1) == RatFunc(2, P)
    assert residue_sigma(f, BiPoly(y + 5, P), 1) == RatFunc(2, P)
    assert residue_sigma(f, BiPoly(y, P), 2).is_zero


def test_residue_sigma_detects_summable():
    g = RatFunc.from_pair(1, y * (x * y + 1), P)
    f = g.shift_y(1) - g
    assert residue_sigma(f, BiPoly(y, P), 1).is_zero
    assert residue_sigma(f, BiPoly(x * y + 1, P), 1).is_zero


# -- commutation identities used by the reduction step ----------------

def _rand_instances(rng, n):
    pool = [y, y + 1, y ** 2 + 1, y ** 2 + y + 1, 2 * y + 1, y ** 3 + y + 1]
    for _ in range(n):
        d = rng.choice(pool)
        num = sum(rng.randint(-9, 9) * x ** i * y ** j
                  for i in range(2) for j in range(3)) + 1
        den = sp.prod([rng.choice(pool + [x + y, x * y - 1])
                       for _ in range(rng.randint(1, 2))])
        yield RatFunc.from_pair(num, den, P), BiPoly(d, P)


def test_residue_dy_commutes_with_shift_x():
    rng = random.Random(101)
    for f, d in _rand_instances(rng, 25):
        lhs = residue_dy(f.shift_x(1), d)
        rhs = residue_dy(f, d).shift_x(1)
        assert lhs == rhs


def test_residue_sigma_commutes_with_shift_x():
    rng = random.Random(102)
    for f, d in _rand_instances(rng, 25):
        for j in (1, 2):
            lhs = residue_sigma(f.shift_x(1), d, j)
            rhs = residue_sigma(f, d, j).shift_x(1)
            assert lhs == rhs


def test_residue_sigma_kills_y_differences():
    rng = random.Random(103)
    for g, d in _rand_instances(rng, 25):
        f = g.shift_y(1) - g
        for j in (1, 2):
            assert residue_sigma(f, d, j).is_zero
