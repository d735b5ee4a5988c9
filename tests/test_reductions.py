"""Reduction steps: multiplicity lowering for d/dy, orbit collapse for
shifts in y, and the finite-order twist average."""

import random

import sympy as sp
from hypothesis import given, settings, strategies as st

from ratexact import (RatFunc, hermite_reduce_y, abramov_reduce_y,
                      parse_ratfunc, tau_reduced_root_of_unity, plain,
                      rational, transcendental, root_of_unity)
from ratexact.qmodes import q, x, y
from ratexact.reductions import discrete_antiderivative, pull_back

P = plain()
T = transcendental()


def _residual(terms, mode):
    acc = RatFunc(0, mode)
    for t in terms:
        acc = acc + t.value()
    return acc


def _check_hermite(f):
    g, terms = hermite_reduce_y(f)
    # f == Dy(g) + the terms, cross-multiplied on unreduced pairs: a sum
    # that cancels would cost a subresultant gcd over Q(zeta_m)
    gn, gd = g.numer, g.denom
    Y = gn.ring.gens[0]
    n, d = gn.diff(Y) * gd - gn * gd.diff(Y), gd ** 2
    for t in terms:
        v = t.value()
        n, d = n * v.denom + v.numer * d, d * v.denom
    assert n * f.denom == f.numer * d
    # remaining terms are simple poles: multiplicity one each
    assert all(t.j == 1 for t in terms)
    return g, terms


def test_hermite_classic():
    f = RatFunc.from_pair(1, y ** 2, P)
    g, terms = _check_hermite(f)
    assert g == RatFunc.from_pair(-1, y, P)
    assert not terms


def test_hermite_leaves_simple_poles():
    f = RatFunc.from_pair(1, y ** 2 * (y + 1), P)
    g, terms = _check_hermite(f)
    assert terms


# every q-mode kind; q*y + x has a q-dependent leading coefficient in y,
# so over Q(q) its primitive pair-ring form is q times the monic factor
HERMITE_MODES = [plain(), rational("3/2"), transcendental(),
                 root_of_unity(3), root_of_unity(4)]
HERMITE_POOL = ["y", "y + 1", "x*y - 1", "y^2 + x + 1", "y + x"]
HERMITE_POOL_Q = ["q*x + y", "q*y + x"]


def test_hermite_random_recompose():
    rng = random.Random(11)
    for mode in HERMITE_MODES:
        pool = HERMITE_POOL + (HERMITE_POOL_Q if mode.has_q else [])
        q_term = " + q*y" if mode.has_q else ""
        dens = ["(q*y + x)^3*(y + 1)^2"] if mode.has_q else []
        for _ in range(6 if mode.has_q else 30):
            dens.append("*".join("(%s)^%d" % (rng.choice(pool),
                                              rng.randint(1, m))
                                 for m in (4, 2)[:rng.randint(1, 2)]))
        for den in dens:
            num = " + ".join("%d*x^%d*y^%d" % (rng.randint(-9, 9), i, j)
                             for i in range(2) for j in range(3))
            _check_hermite(parse_ratfunc("(1 + %s%s)/(%s*(x + 2))"
                                         % (num, q_term, den), mode))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mode=st.sampled_from(HERMITE_MODES),
       coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=12),
       shift=st.integers(1, 5))
def test_discrete_antiderivative_property(mode, coeffs, shift):
    # P(y+1) - P(y) == p and P(0) == 0 for p polynomial in y over k(x)
    q_term = "q*" if mode.has_q else ""
    terms = " + ".join("%d*%sx^%d*y^%d" % (c, q_term if k % 3 == 1 else "",
                                           k % 2, k)
                       for k, c in enumerate(coeffs))
    p = parse_ratfunc("(%s)/(x + %d)" % (terms, shift), mode)
    big = discrete_antiderivative(p)
    assert big.shift_y(1) - big == p
    assert not big.numer.coeff_wrt(0, 0)
    assert big.is_polynomial(y)


def _check_abramov(f, mode):
    g, terms = abramov_reduce_y(f)
    r = _residual(terms, mode)
    assert g.shift_y(1) - g + r == f
    return g, r


def test_abramov_telescopes_orbit():
    f = RatFunc.from_pair(1, y * (y + 1), P)
    g, r = _check_abramov(f, P)
    assert r.is_zero
    assert g == RatFunc.from_pair(-1, y, P)


def test_abramov_remainder_at_representative():
    f = RatFunc.from_pair(1, y, P) + RatFunc.from_pair(2, y + 3, P)
    g, r = _check_abramov(f, P)
    assert r == RatFunc.from_pair(3, y, P)


def test_abramov_random_recompose():
    rng = random.Random(12)
    pool = [y, y + 1, y + 2, x * y - 1, x * y + x - 1, y + x]
    for _ in range(30):
        den = sp.prod([rng.choice(pool) ** rng.randint(1, 2)
                       for _ in range(rng.randint(1, 2))])
        num = 1 + sum(rng.randint(-9, 9) * x ** i * y ** j
                      for i in range(2) for j in range(2))
        _check_abramov(RatFunc.from_pair(num, den, P), P)


def test_abramov_with_q_coefficients():
    f = RatFunc.from_pair(q, y * (y + 1), T)
    g, r = _check_abramov(f, T)
    assert r.is_zero


def test_tau_reduced_root_of_unity_recompose():
    rng = random.Random(13)
    for m, n_cases in ((2, 15), (3, 4), (4, 4)):
        M = root_of_unity(m)
        pool = [x * y, x + y, x ** 2 * y + 1, y + 1, x * y ** 2 - 1]
        for k in range(n_cases):
            nfac = 2 if (m == 2 and k % 2) else 1
            den = sp.prod([rng.choice(pool) for _ in range(nfac)])
            num = 1 + sum(rng.randint(-9, 9) * x ** i * y ** j
                          for i in range(2) for j in range(2))
            f = RatFunc.from_pair(num, den, M)
            g0, c = tau_reduced_root_of_unity(f)
            c = pull_back(c, m)
            assert g0.qshift_x(1) - g0 + c == f
            # the averaged part is invariant under the twist
            assert c.qshift_x(1) == c
    # over Q (m = 2) a canonical denominator need not be monic
    f = RatFunc.from_pair(1, (2 * x + 1) * (3 * y + x), root_of_unity(2))
    g0, c = tau_reduced_root_of_unity(f)
    assert g0.qshift_x(1) - g0 + pull_back(c, 2) == f


def test_tau_reduced_invariant_input_passes_through():
    M = root_of_unity(2)
    f = RatFunc.from_pair(1, x ** 2 * y, M)
    g0, c = tau_reduced_root_of_unity(f)
    assert g0.is_zero
    # c is returned in w = x^2
    assert c == RatFunc.from_pair(1, x * y, M) and pull_back(c, 2) == f


def test_tau_reduced_antisymmetric_input_collapses():
    # tau negates x/y at m=2, so the average vanishes
    M = root_of_unity(2)
    f = RatFunc.from_pair(x, y, M)
    g0, c = tau_reduced_root_of_unity(f)
    assert c.is_zero
    assert g0.qshift_x(1) - g0 == f


def test_pure_differences_have_zero_residual():
    from ratexact import phi_dy_reduced_form, tau_sigma_reduced_form
    from ratexact import SHIFT_X
    rng = random.Random(71)
    pool = [x, y, x + 1, y + 1, x * y - 1]
    def rand(mode):
        den = sp.prod([rng.choice(pool)
                       for _ in range(rng.randint(1, 2))])
        return RatFunc.from_pair(rng.randint(-9, 9) or 1, den, mode)
    for _ in range(10):
        g, h = rand(P), rand(P)
        f = (g.shift_x(1) - g) + h.deriv_y()
        rf = phi_dy_reduced_form(f, SHIFT_X)
        assert rf.residual().is_zero
    for _ in range(10):
        g, h = rand(T), rand(T)
        f = (g.qshift_x(1) - g) + (h.shift_y(1) - h)
        rf = tau_sigma_reduced_form(f)
        assert rf.residual().is_zero


def test_summability_matches_vanishing_residues():
    # summable in x iff every sigma_x-residue of the decomposition is 0
    from ratexact import abramov_summable_x
    from ratexact.residues import residue_sigma
    rng = random.Random(72)
    pool = [x, x + 1, x + 2, 2 * x + 1, x ** 2 + 1]
    for _ in range(50):
        den = sp.prod([rng.choice(pool) ** rng.randint(1, 2)
                       for _ in range(rng.randint(1, 2))])
        num = 1 + rng.randint(-9, 9) * x
        f = RatFunc.from_pair(num, den, P)
        res = abramov_summable_x(f)
        # compare against residues computed on the swapped function
        swapped = RatFunc(f.as_expr().subs({x: y, y: x},
                                           simultaneous=True), P)
        from ratexact.residues import sigma_decomposition
        dec = sigma_decomposition(swapped)
        all_zero = all(
            residue_sigma(swapped, t.den, t.j).is_zero for t in dec.terms)
        assert res.summable == all_zero


def test_trace_and_average_match_their_definition():
    # the gcd-free trace and averaging certificate against plain sums of
    # conjugates: trace = sum_i tau^i(f), c = trace/m and
    # g = (1/m) sum_{i=1}^{m-1} i * tau^i(f - c)
    from ratexact.reductions import trace_xm
    for m in (1, 2, 3, 4, 6):
        M = root_of_unity(m)
        shapes = [(x, y),                                  # x | D below
                  (1, x * (x + 1)),                        # x | D
                  (x + y ** 2, (x * y - 1) ** 2),          # repeated factor
                  (x ** m, y * (x ** m - 1)),              # tau-invariant
                  (3, 1)]                                  # constant
        for num, den in shapes:
            f = RatFunc.from_pair(num, den, M)
            trace = RatFunc(0, M)
            weighted = RatFunc(0, M)
            for i in range(m):
                trace = trace + f.qshift_x(i)
                weighted = weighted + f.qshift_x(i) * i
            assert trace_xm(f) == trace
            g, c = tau_reduced_root_of_unity(f)
            c = pull_back(c, m)
            assert c == trace / m
            # tau fixes c, so m*g = weighted - m(m-1)/2 * c; compared
            # cross-multiplied, because the difference cancels a gcd of
            # degree 2m that takes minutes over Q(zeta_6)
            assert ((g.numer * c.denom * (2 * m)
                     + c.numer * g.denom * (m * (m - 1))) * weighted.denom
                    == weighted.numer * g.denom * c.denom * 2)
