"""Shift-, q-shift-, and joint-orbit equivalence; Operator powers and
orbit grouping."""

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ratexact import (BiPoly, RatFunc, plain, rational, root_of_unity,
                      transcendental, shift_equivalent, sigma_equivalent,
                      q_equivalent, joint_equivalent, decide_exact,
                      verify_certificate, group_orbits, QSHIFT_X, SHIFT_X,
                      SHIFT_Y)
from ratexact.deciders import QSHIFT_X_DERIV_Y
from ratexact.qmodes import q, x, y

P = plain()
T = transcendental()
R23 = rational(sp.Rational(2, 3))


def test_sigma_equivalent_basic():
    a = BiPoly(x * y - 1, P)
    b = BiPoly(x * (y + 3) - 1, P)
    n, scale = sigma_equivalent(a, b)
    assert n == 3 and scale == 1
    Y = a.numer.ring.gens[0]
    assert a.numer.compose(Y, Y + n) == b.numer.mul_ground(scale)


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
    s = T.coeff_domain().to_sympy(scale)
    assert sp.cancel(a.as_expr().subs(x, q ** m * x) - s * b.as_expr()) == 0


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
    (m, n), scale = res
    assert (m, n) == (3, -2)
    s = T.coeff_domain().to_sympy(scale)
    assert sp.cancel(a.as_expr().subs(x, q ** m * x).subs(y, y + n)
                     - s * b.as_expr()) == 0


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
    p = BiPoly(y ** 2 + 1, P)
    assert p.free_of(x)
    mixed = BiPoly(x * y - 1, T)
    w = joint_equivalent(mixed, mixed)
    assert w is None or w[0] == (0, 0)


# -- Operator powers and group_orbits ---------------------------------

JOINT = (QSHIFT_X, SHIFT_Y)
# the operators of each grouping, one or the joint (tau_{x,q}, sigma_y)
_OPERATORS = {"shift_x": ((SHIFT_X,), P), "qshift_x@2/3": ((QSHIFT_X,), R23),
              "qshift_x@-2": ((QSHIFT_X,), rational(-2)),
              "qshift_x@zeta3": ((QSHIFT_X,), root_of_unity(3)),
              "qshift_x@q": ((QSHIFT_X,), T), "shift_y": ((SHIFT_Y,), P),
              "joint@2/3": (JOINT, R23), "joint@q": (JOINT, T)}

# coefficients of x^i y^j, i, j <= 2, of a random source polynomial
_coeffs = st.lists(st.integers(-4, 4), min_size=9, max_size=9)
# (source index, powers of the operators, scale numerator) of one
# translate; a single operator takes the first power
_translate = st.tuples(st.integers(0, 2),
                       st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       st.sampled_from((1, -1, 2, -3)))


def _source(coeffs, k, op):
    """A polynomial of degree k + 1 in op's variable: sources of distinct
    degrees lie in distinct orbits, since the operators keep degrees."""
    other = y if op.var == x else x
    body = sum(c * op.var ** (i % 3) * other ** (i // 3)
               for i, c in enumerate(coeffs) if i % 3 <= k)
    return op.var ** (k + 1) * (other + 1) + body


def _substituted(p, ops, powers, mode):
    """p with each of ops raised to its power in powers applied, by
    substitution in p's expression: x -> q^m*x, x -> x + m, y -> y + n."""
    qv = mode.has_q and mode.coeff_domain().to_sympy(mode.q_element())
    e = p.as_expr()
    for op, n in zip(ops, powers):
        e = e.subs(op.var, qv ** n * x if op == QSHIFT_X else op.var + n)
    return BiPoly(sp.expand(e), mode)


@pytest.mark.parametrize("name", sorted(_OPERATORS))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(_coeffs, min_size=3, max_size=3),
       st.lists(_translate, min_size=1, max_size=6))
def test_group_orbits_of_random_translates(name, coeffs, translates):
    ops, mode = _OPERATORS[name]
    op = ops[0]
    sources = [BiPoly(_source(c, k, op), mode)
               for k, c in enumerate(coeffs)]
    dens = []
    for i, powers, c in translates:
        d = sources[i]
        for o, n in zip(ops, powers):
            d = o.pow(d, n)
        dens.append(d * c)
    groups = group_orbits(dens, *ops)
    assert len(groups) == len({i for i, _, _ in translates})
    assert {d for _, members in groups for d in members} == set(dens)
    for rep, members in groups:
        assert len({d.degree(op.var) for d in members}) == 1
        for d, (off, scale) in members.items():
            offs = off if len(ops) > 1 else (off,)
            assert min(offs) >= 0
            assert mode.coeff_domain().of_type(scale)
            assert _substituted(rep, ops, offs, mode) == d * scale
    f = RatFunc.from_pair(sources[0].as_expr(), sources[1].as_expr(), mode)
    for a, b in ((1, 2), (-2, 3), (3, -3)):
        assert op.pow(op.pow(f, a), b) == op.pow(f, a + b)
        assert op.pow(op.pow(sources[2], a), b) == op.pow(sources[2], a + b)


def test_group_orbits_joint_offsets():
    # the joint (tau, sigma_y) grouping: offsets (m, n) from the translate
    # by the smallest m and n
    base = BiPoly(x * y - 1, T)
    dens = [base.qshift_x(2).shift(y, -1), base, base.shift(y, 3) * 2,
            BiPoly(x + y, T)]
    groups = group_orbits(dens, QSHIFT_X, SHIFT_Y)
    assert len(groups) == 2
    rep, members = groups[0]
    assert rep == base.shift(y, -1)
    assert members[dens[0]][0] == (2, 0)
    assert members[base][0] == (0, 1)
    assert members[dens[2]][0] == (0, 4)


@pytest.mark.parametrize("ops, mode, name", [
    ((SHIFT_Y,), P, "shift_equivalent"), ((SHIFT_X,), P, "shift_equivalent"),
    ((QSHIFT_X,), R23, "q_equivalent"), (JOINT, T, "joint_equivalent")],
    ids=["shift_y", "shift_x", "qshift_x@2/3", "joint@q"])
def test_group_orbits_tests_each_member_once(monkeypatch, ops, mode, name):
    # each polynomial is tested against the first member of each orbit
    # found so far, until one matches, and never again: not against
    # itself, and not against the re-based representative
    import ratexact.orbits as orbits
    calls = []
    real = getattr(orbits, name)

    def counted(p, p2, *rest):
        calls.append((p, p2))
        return real(p, p2, *rest)
    monkeypatch.setattr(orbits, name, counted)
    a = BiPoly(_source([1, -2, 0, 3, 1, 0, 0, 2, 1], 1, ops[0]), mode)
    b = BiPoly(_source([2, 0, 1, 1, 0, 0, 3, 0, 0], 1, ops[0]) + 1, mode)
    translates = [a]
    for n in (2, -1, 3):
        t = a
        for o in ops:
            t = o.pow(t, n)
        translates.append(t * 3)
    dens = translates[:2] + [b] + translates[2:] + [b, a]
    groups = group_orbits(dens, *ops)
    assert [len(members) for _, members in groups] == [4, 1]
    # the translates test against a, b against a, and the two translates
    # after b against a only
    assert calls == [(a, translates[1]), (a, b), (a, translates[2]),
                     (a, translates[3])]
