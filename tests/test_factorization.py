"""Irreducible factorization."""

import random

import sympy as sp
import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.rings import PolyElement

from ratexact import (BiPoly, Factorization, factor, plain, rational,
                      root_of_unity, transcendental)
from ratexact.core import from_scalar, qshift_gen, shift_gen, to_scalar
from ratexact.factorization import _sort_factors, _sqrt
from ratexact.qmodes import ROOT_OF_UNITY, TRANSCENDENTAL, q, x, y

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


# -- the split before the factorizer ------------------------------------

_MODES = {"none": P, "2": rational(2), "3/2": rational("3/2"),
          "symbolic": T, "zeta:3": root_of_unity(3),
          "zeta:4": root_of_unity(4)}


def _reference_factor(p):
    """The whole-polynomial factorization: sympy's factor_list of p's
    pair-ring element, then the canonical form of each factor."""
    mode, P = p.mode, p.numer
    const, raw = P.factor_list()
    unit = to_scalar(P.ring.ground_new(const), p.denom, mode)
    factors = []
    for f, mult in raw:
        u, prim = BiPoly.from_ring(f, f.ring.one, mode).canonical()
        unit *= u ** mult
        if not prim.numer.is_ground:
            factors.append((prim, int(mult)))
    return Factorization(unit, _sort_factors(factors))


def _gens(mode):
    """(Y, X, Q, D) in mode's pair ring with Q/D the value of q, and Q =
    2, D = 1 without q."""
    ring = mode.pair_ring()
    Y, X = ring.gens[:2]
    if mode.kind == TRANSCENDENTAL:
        return Y, X, ring.gens[2], ring.one
    if mode.has_q:
        return (Y, X) + from_scalar(mode.q_element(), mode)
    return Y, X, ring(2), ring.one


def _fuzz_pool(mode):
    """The fuzz workload's denominators and their images under x -> x + 1,
    x -> q*x (cleared of q's denominator) and y -> y + 1."""
    Y, X, _, _ = _gens(mode)
    pool = [X, Y, X + 1, Y + 1, X + Y, X * Y - 1, X + Y + 1, X * Y + 1,
            X ** 2 + Y]
    images = [shift_gen(d, 1, 1) for d in pool]
    images += [shift_gen(d, 0, 1) for d in pool]
    if mode.has_q:
        images += [qshift_gen(1, mode, d)[0] for d in pool]
    return pool + images


def _extras(mode):
    """Factors free of y, free of x, or of q alone, and q-shifted mixed
    ones."""
    Y, X, Q, D = _gens(mode)
    return [X ** 2 + 3, D * X - Q, Y ** 2 - 2, Y ** 3 + Y + 1, Q + D, Q,
            Q * X + D * Y, D * X + Q * Y, X ** 2 * Y + Q * X + D]


@pytest.mark.parametrize("token", sorted(_MODES))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_split_matches_whole_factorization(token, data):
    mode = _MODES[token]
    choices = _fuzz_pool(mode) + _extras(mode)
    parts = data.draw(st.lists(st.tuples(st.sampled_from(choices),
                                         st.integers(1, 2),
                                         st.sampled_from([1, -1])),
                               min_size=1, max_size=3))
    F = mode.pair_ring()(data.draw(st.sampled_from([1, 2, -3, 6])))
    for d, e, sign in parts:
        F *= (sign * d) ** e
    p = BiPoly.from_ring(F, F.ring.one, mode)
    assert factor(p) == _reference_factor(p)


def _explicit_cases(mode):
    Y, X, Q, D = _gens(mode)
    return {"y^2*(y+2)": Y ** 2 * (Y + 2),
            "((y-1)*(q*y-1))^4": ((Y - 1) * (Q * Y - D)) ** 4,
            "(x+y)*(x-y)": (X + Y) * (X - Y),
            "y^2+x+1": Y ** 2 + X + 1,
            "(x+y)^2": (X + Y) ** 2,
            "6*q*(q-1)*x*y": 6 * Q * (Q - D) * X * Y,
            "x^2+y^2": X ** 2 + Y ** 2,
            "degree-3 leaf": (X + Y) * (X * Y - 1) * (X * Y + Y - 1)}


@pytest.mark.parametrize("token", sorted(_MODES))
def test_split_matches_whole_factorization_on_explicit_cases(token):
    mode = _MODES[token]
    for name, F in _explicit_cases(mode).items():
        p = BiPoly.from_ring(F, F.ring.one, mode)
        assert factor(p) == _reference_factor(p), name
    if mode.kind == ROOT_OF_UNITY and mode.order == 4:
        F = _explicit_cases(mode)["x^2+y^2"]
        p = BiPoly.from_ring(F, F.ring.one, mode)
        assert len(factor(p).factors) == 2


def test_integer_square_root():
    ring = T.pair_ring()
    Y, X, Q = ring.gens
    for s in (X, 3 * X * Y - 2, X ** 2 + 2 * Q * X * Y - 5 * Y + 7):
        assert _sqrt(s ** 2) in (s, -s)
    for D in (X ** 2 + X, 2 * X ** 2, -X ** 2, X ** 3, X ** 2 * Y + 1,
              4 * X ** 2 + 2 * X + 1, (X + Q) ** 2 + 1, X ** 2 * Q):
        assert _sqrt(D) is None
    assert _sqrt(ring.zero) == 0


def _count_leaves(monkeypatch):
    calls = []
    whole = PolyElement.factor_list

    def counted(self):
        calls.append(self)
        return whole(self)
    monkeypatch.setattr(PolyElement, "factor_list", counted)
    return calls


@pytest.mark.parametrize("token", ["none", "2", "symbolic"])
def test_fuzz_denominators_never_reach_the_factorizer(token, monkeypatch):
    # products of at most two fuzz denominators or their images, each
    # to the first or second power, times factors free of y or of x
    mode = _MODES[token]
    pool = _fuzz_pool(mode)
    mixed = [d for d in pool if d.degree(0) and d.degree(1)]
    single = [d for d in pool if not (d.degree(0) and d.degree(1))]
    rng = random.Random("fuzz-products:" + token)
    products = [d ** e for d in pool for e in (1, 2)]
    for _ in range(60):
        F = rng.choice(mixed) ** rng.randint(1, 2) \
            * rng.choice(mixed) ** rng.randint(1, 2)
        for d in rng.sample(single, rng.randint(0, 2)):
            F *= d ** rng.randint(1, 2)
        products.append(F)
    calls = _count_leaves(monkeypatch)
    for F in products:
        p = BiPoly.from_ring(F, F.ring.one, mode)
        assert factor(p).recompose(mode) == p
    assert calls == []


@pytest.mark.parametrize("token", ["none", "symbolic"])
def test_squarefree_degree_three_piece_reaches_the_factorizer_once(
        token, monkeypatch):
    # the factorizer sees the squarefree piece S alone, not the factors
    # free of y or of x around it
    mode = _MODES[token]
    S = (x + y) * (x * y - 1) * (x * y + y - 1)
    ring = mode.pair_ring()
    calls = _count_leaves(monkeypatch)
    for c in (1, (x + 1) ** 2 * y ** 3):
        calls.clear()
        fac = factor(BiPoly(sp.expand(c * S), mode))
        assert calls in ([ring.from_expr(sp.expand(S))],
                         [-ring.from_expr(sp.expand(S))])
        assert sorted(sp.sstr(f.expr) for f, _ in fac.factors
                      if f.degree(x) and f.degree(y)) \
            == ["x + y", "x*y + y - 1", "x*y - 1"]
