"""Irreducible factorization."""

import random

import sympy as sp
import pytest

from ratexact import (BiPoly, Factorization, factor, plain, rational,
                      root_of_unity, transcendental)
from ratexact.qmodes import q, x, y

P = plain()
T = transcendental()


def test_degree_one_is_irreducible():
    fac = factor(BiPoly(x + y, P))
    assert fac.unit == 1
    assert len(fac.factors) == 1
    assert fac.factors[0][0].expr == x + y
    assert fac.factors[0][1] == 1


def test_factor_product_with_multiplicity():
    p = BiPoly(sp.expand(6 * x * (x + y) ** 2 * (x * y - 1)), P)
    fac = factor(p)
    assert fac.recompose(P) == p
    bases = sorted(sp.sstr(b.expr) for b, _ in fac.factors)
    assert bases == ["x", "x + y", "x*y - 1"]
    mults = {sp.sstr(b.expr): e for b, e in fac.factors}
    assert mults["x + y"] == 2


def test_factor_unit_carries_scalar():
    fac = factor(BiPoly(sp.Integer(-10), P))
    assert fac.unit == -10
    assert fac.factors == ()


def test_factor_over_q_treats_q_factors_as_units():
    p = BiPoly(sp.expand(q * (q - 1) * x * y), T)
    fac = factor(p)
    bases = sorted(sp.sstr(b.expr) for b, _ in fac.factors)
    assert bases == ["x", "y"]
    assert fac.recompose(T) == p


def test_factor_over_cyclotomic_field_splits():
    M = root_of_unity(4)
    p = BiPoly(x ** 2 + y ** 2, M)
    fac = factor(p)
    assert len(fac.factors) == 2
    assert fac.recompose(M) == p


def test_factor_deterministic_order():
    p = BiPoly(sp.expand((x + y) * (x * y - 1) * (y + 1)), P)
    a = factor(p)
    b = factor(p)
    assert [(sp.sstr(f.expr), e) for f, e in a.factors] \
        == [(sp.sstr(f.expr), e) for f, e in b.factors]


def test_recomposition_of_random_products():
    rng = random.Random(20240817)
    pool = [x, y, x + 1, y + 2, x + y, x - y + 1, x * y - 1, x * y + 2,
            x ** 2 + y, x + y ** 2 + 1, x ** 2 + y ** 2 + 1]
    for _ in range(100):
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        c = rng.choice([1, 2, -3, 5])
        p = BiPoly(sp.expand(c * sp.prod(parts)), P)
        fac = factor(p)
        assert fac.recompose(P) == p
        # multiset of irreducibles matches the construction
        built = {}
        for b in parts:
            _, prim = BiPoly(b, P).canonical()
            key = sp.sstr(prim.expr)
            built[key] = built.get(key, 0) + 1
        got = {sp.sstr(b.expr): e for b, e in fac.factors}
        assert got == built
