"""Exactness decisions, witness shapes, certificate verification, and
agreement with the linear-algebra search oracle."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ratexact import (BiPoly, RatFunc, RatexactError, canonical_str,
                      decide_exact, verify_certificate, brute_force_exact,
                      operator_pair, plain, transcendental, root_of_unity,
                      rational, QSHIFT_X, SHIFT_X)
from ratexact.deciders import (SHIFT_X_DERIV_Y, QSHIFT_X_DERIV_Y,
                               QSHIFT_X_SHIFT_Y, ROU_DERIV_Y, ROU_SHIFT_Y,
                               MixedDenominator, NonSummableResidue,
                               _hull_candidates)
from ratexact.qmodes import q, x, y
from ratexact.reductions import abramov_reduce

P = plain()
T = transcendental()


def _apply(pair, g, h):
    if pair == SHIFT_X_DERIV_Y:
        return (g.shift_x(1) - g) + h.deriv_y()
    if pair == QSHIFT_X_DERIV_Y or pair == ROU_DERIV_Y:
        return (g.qshift_x(1) - g) + h.deriv_y()
    return (g.qshift_x(1) - g) + (h.shift_y(1) - h)


# -- the four decisions with explicit witnesses -----------------------

def test_mixed_pole_blocks_shift_deriv():
    d = decide_exact(RatFunc.from_pair(1, x + y, P), SHIFT_X_DERIV_Y)
    assert not d.exact
    assert isinstance(d.witness, MixedDenominator)


def test_split_pole_blocks_on_residue():
    d = decide_exact(RatFunc.from_pair(1, x * y, P), SHIFT_X_DERIV_Y)
    assert not d.exact
    assert isinstance(d.witness, NonSummableResidue)
    assert d.witness.residue == RatFunc.from_pair(1, x, P)


def test_mixed_pole_blocks_qshift_shift():
    d = decide_exact(RatFunc.from_pair(1, x + y, T), QSHIFT_X_SHIFT_Y)
    assert not d.exact


def test_split_pole_exact_in_q_world():
    f = RatFunc.from_pair(1, x * y, T)
    d = decide_exact(f, QSHIFT_X_SHIFT_Y)
    assert d.exact
    g, h = d.certificate
    assert verify_certificate(f, g, h, QSHIFT_X_SHIFT_Y)
    # the closed-form certificate with h = 0 also verifies
    g0 = RatFunc(q / ((1 - q) * x * y), T)
    assert verify_certificate(f, g0, RatFunc(0, T), QSHIFT_X_SHIFT_Y)


def test_shift_deriv_exact_example():
    f = RatFunc.from_pair(1, x * (x + 1) * y, P)
    d = decide_exact(f, SHIFT_X_DERIV_Y)
    assert d.exact
    assert verify_certificate(f, *d.certificate, SHIFT_X_DERIV_Y)


def test_high_degree_polynomial_part_exact():
    # x^300/y = dx(g): the x-summability of x^300 takes the discrete
    # antiderivative of a polynomial of degree 300
    f = RatFunc.from_pair(x ** 300, y, P)
    d = decide_exact(f, SHIFT_X_DERIV_Y)
    assert d.exact
    assert verify_certificate(f, *d.certificate, SHIFT_X_DERIV_Y)


def _bumped(r, k):
    """r with the coefficient of its k-th numerator monomial raised by 1."""
    ring = r.numer.ring
    mon = sorted(r.numer.itermonoms())[k % len(r.numer)]
    return RatFunc.from_ring(r.numer + ring({mon: 1}), r.denom, r.mode)


def test_wrong_certificate_rejected():
    f = RatFunc.from_pair(1, x * (x + 1) * y, P)
    bad = RatFunc.from_pair(1, x, P)
    assert not verify_certificate(f, bad, RatFunc(0, P), SHIFT_X_DERIV_Y)
    # on every pair, a certificate with a nonzero h verifies; with one
    # coefficient changed in g or in h, it does not
    for pair, mode in ((SHIFT_X_DERIV_Y, P),
                       (QSHIFT_X_DERIV_Y, rational(2)), (QSHIFT_X_DERIV_Y, T),
                       (QSHIFT_X_SHIFT_Y, rational(2)), (QSHIFT_X_SHIFT_Y, T),
                       (ROU_DERIV_Y, root_of_unity(3)),
                       (ROU_SHIFT_Y, root_of_unity(3))):
        g = RatFunc.from_pair(3 * x + y - 2, x * y + 1, mode)
        h = RatFunc.from_pair(2 * x - 1, x + y + 1, mode)
        f = _apply(pair, g, h)
        assert verify_certificate(f, g, h, pair)
        for k in range(3):
            assert not verify_certificate(f, _bumped(g, k), h, pair)
            assert not verify_certificate(f, g, _bumped(h, k), pair)



# -- one identity check per exact answer -----------------------------

# (pair, mode, exact input): the input's one residual term, over y, has a
# numerator summable in x and is absorbed into g; 1/((x-1)*y) is not
# exact on any of the pairs
ABSORBED = (
    (SHIFT_X_DERIV_Y, P, 1 / ((x - 1) * y) - 1 / ((x + 3) * y)),
    (QSHIFT_X_DERIV_Y, rational(2), 1 / ((x - 1) * y) - 1 / ((8 * x - 1) * y)),
    (QSHIFT_X_SHIFT_Y, T, 1 / ((x - 1) * y) - 1 / ((q ** 3 * x - 1) * y)),
)


def test_one_identity_check_per_exact_answer(monkeypatch):
    # the absorbed term's certificate ends in g, which verify_certificate
    # checks once; no module checks the term on its own
    from ratexact import core, deciders, reductions, summation
    real, calls = core.is_difference, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for mod in (core, deciders, reductions, summation):
        monkeypatch.setattr(mod, "is_difference", counting)
    for pair, mode, exact in ABSORBED:
        calls.clear()
        d = decide_exact(RatFunc(exact, mode), pair)
        assert d.exact and not d.certificate[0].is_zero, pair.name
        assert len(calls) == 1, pair.name
        calls.clear()
        assert not decide_exact(RatFunc(1 / ((x - 1) * y), mode), pair).exact
        assert calls == [], pair.name


def test_wrong_summability_certificate_fails_the_final_check(monkeypatch):
    # 1/(x+y+7) is not fixed by the x-shift, so added to the absorbed
    # term's certificate it changes dx(g)
    from ratexact import reductions
    real = reductions.abramov_reduce

    def corrupted(f, op):
        g, terms = real(f, op)
        if op.var == x:
            g = g + RatFunc(1 / (x + y + 7), f.mode)
        return g, terms

    monkeypatch.setattr(reductions, "abramov_reduce", corrupted)
    for pair, mode, exact in ABSORBED:
        with pytest.raises(RatexactError, match="assembled certificate"):
            decide_exact(RatFunc(exact, mode), pair)


def test_wrong_trace_part_fails_the_trace_check(monkeypatch):
    # at q = zeta_m the trace check is the one check of c(x^m)
    from ratexact import reductions
    real = reductions._invariant

    def corrupted(P, L, m, mode):
        return real(P, L, m, mode) + RatFunc(1 / (y + 5), mode)

    monkeypatch.setattr(reductions, "_invariant", corrupted)
    f = RatFunc(x / y + 1 / (x * y ** 2), root_of_unity(3))
    with pytest.raises(RatexactError, match="root-of-unity reduction"):
        decide_exact(f, ROU_DERIV_Y)


def test_wrong_root_of_unity_h_fails_verification(monkeypatch):
    # at q = zeta_m, h is pulled back from the reduction in y of c(x^m);
    # a term added to it changes dy(h)
    from ratexact import deciders
    real = deciders.reduce_y

    def corrupted(c, dy):
        hw, terms = real(c, dy)
        return hw + RatFunc(1 / (y + 5), c.mode), terms

    f = RatFunc(1 / (x * y), root_of_unity(3))
    assert decide_exact(f, ROU_DERIV_Y).exact
    monkeypatch.setattr(deciders, "reduce_y", corrupted)
    with pytest.raises(RatexactError, match="root-of-unity certificate"):
        decide_exact(f, ROU_DERIV_Y)


# -- invariance properties -------------------------------------------

def _constructed(rng, mode, pair):
    pool = [x, y, x + 1, y + 1, x + y, x * y - 1, x * y + 1]
    def rand():
        den = sp.prod([rng.choice(pool) for _ in range(rng.randint(1, 2))])
        num = rng.randint(-9, 9) or 1
        return RatFunc.from_pair(num, den, mode)
    g, h = rand(), rand()
    return _apply(pair, g, h), g, h


def test_constructed_exact_decided_exact():
    rng = random.Random(21)
    for pair, mode in ((SHIFT_X_DERIV_Y, P), (QSHIFT_X_DERIV_Y, T),
                       (QSHIFT_X_SHIFT_Y, T)):
        for _ in range(5):
            f, _, _ = _constructed(rng, mode, pair)
            d = decide_exact(f, pair)
            assert d.exact
            assert verify_certificate(f, *d.certificate, pair)


def test_decision_invariant_under_x_translation():
    f = RatFunc.from_pair(1, x * y, P)
    for n in (1, -2, 5):
        shifted = f.shift_x(n)
        assert not decide_exact(shifted, SHIFT_X_DERIV_Y).exact


def test_exactness_linear():
    # exact + exact stays exact; exact + non-exact stays non-exact
    f1 = RatFunc.from_pair(1, x * (x + 1) * y, P)
    f2 = RatFunc.from_pair(1, x * y ** 2, P)
    bad = RatFunc.from_pair(1, x * y, P)
    assert decide_exact(f1 + f2, SHIFT_X_DERIV_Y).exact
    assert not decide_exact(f1 + bad, SHIFT_X_DERIV_Y).exact


def test_multiplicity_slices_independent():
    # a non-summable residue at multiplicity 2 blocks exactness even
    # when the multiplicity-1 slice is clean (1/(xy) is exact here)
    f = RatFunc.from_pair(1, y ** 2, T) \
        + RatFunc.from_pair(1, x * y, T)
    d = decide_exact(f, QSHIFT_X_SHIFT_Y)
    assert not d.exact
    assert isinstance(d.witness, NonSummableResidue)
    assert d.witness.j == 2


# -- root-of-unity decisions -----------------------------------------

def test_rou_monomial_exact():
    M = root_of_unity(2)
    f = RatFunc.from_pair(x, y, M)
    d = decide_exact(f, ROU_DERIV_Y)
    assert d.exact
    assert verify_certificate(f, *d.certificate, ROU_DERIV_Y)


def test_rou_invariant_not_exact():
    M = root_of_unity(2)
    assert not decide_exact(RatFunc.from_pair(1, y, M), ROU_DERIV_Y).exact


def test_rou_shift_y_exact():
    M = root_of_unity(2)
    f = RatFunc.from_pair(1, y * (y + 1), M)
    d = decide_exact(f, ROU_SHIFT_Y)
    assert d.exact
    assert verify_certificate(f, *d.certificate, ROU_SHIFT_Y)


def test_rou_m4_power_exact():
    M = root_of_unity(4)
    f = RatFunc.from_pair(x ** 2, y, M)
    d = decide_exact(f, ROU_DERIV_Y)
    assert d.exact
    assert verify_certificate(f, *d.certificate, ROU_DERIV_Y)
    assert not decide_exact(RatFunc.from_pair(x ** 4, y, M),
                            ROU_DERIV_Y).exact


# `ratexact decide --pair dqx-dy --root-of-unity 5 --expr
# "1/((x^2+y)*(x-1))" --json`, as the subresultant gcd over Q(zeta_5)
# printed it in about 10 s
ODD_ORDER_ZETA5 = (
    '{"exact": false, "pair": "rou:deriv_y", "qmode": "zeta:5", "witness": '
    '{"den": "x^10 + y^5", "j": 1, "kind": "non_summable_residue", '
    '"residue": "(-y*x^10 + x^10 - y^3*x^5 + y^2*x^5 + y^4)/(x^5 - 1)"}}\n')


def test_odd_order_root_of_unity_decides(capsys):
    # at odd m the trace reduction's gcds over Q(zeta_m) are modular; the
    # subresultant PRS gave no answer at m = 7 within a minute
    import json
    from ratexact.cli import main
    for m in (5, 7):
        assert main(["decide", "--pair", "dqx-dy", "--root-of-unity", str(m),
                     "--expr", "1/((x^2+y)*(x-1))", "--json"]) == 0
        out = capsys.readouterr().out
        d = json.loads(out)
        assert d["exact"] is False and d["qmode"] == "zeta:%d" % m
        assert d["witness"]["kind"] == "non_summable_residue"
        if m == 5:
            assert out == ODD_ORDER_ZETA5


def test_rational_q_mode():
    M = rational(sp.Rational(2, 3))
    f = RatFunc.from_pair(1, x * y, M)
    d = decide_exact(f, QSHIFT_X_SHIFT_Y)
    assert d.exact
    assert verify_certificate(f, *d.certificate, QSHIFT_X_SHIFT_Y)


# -- oracle agreement ------------------------------------------------

def test_brute_force_agrees_on_examples():
    # on every pair 1/(xy) is exact and 1/((x-1)y) is not, except that
    # 1/(xy) is not exact on dx-dy
    cases = [
        (RatFunc.from_pair(1, x + y, P), SHIFT_X_DERIV_Y, False),
        (RatFunc.from_pair(1, x * y, P), SHIFT_X_DERIV_Y, False),
        (RatFunc.from_pair(1, x * (x + 1) * y, P), SHIFT_X_DERIV_Y, True),
    ]
    q_pairs = (QSHIFT_X_DERIV_Y, QSHIFT_X_SHIFT_Y)
    for mode, pairs in ((root_of_unity(3), (ROU_DERIV_Y, ROU_SHIFT_Y)),
                        (root_of_unity(4), (ROU_DERIV_Y, ROU_SHIFT_Y)),
                        (rational(sp.Rational(3, 2)), (QSHIFT_X_DERIV_Y,)),
                        (rational(sp.Rational(2, 3)), q_pairs),
                        (T, q_pairs)):
        for pair in pairs:
            cases.append((RatFunc.from_pair(1, x * y, mode), pair, True))
            cases.append((RatFunc.from_pair(1, (x - 1) * y, mode), pair,
                          False))
    for f, pair, exact in cases:
        found = brute_force_exact(f, pair)
        decided = decide_exact(f, pair)
        assert decided.exact == exact, (f, pair.name)
        assert (found is not None) == exact, (f, pair.name)
        if found is not None:
            assert verify_certificate(f, *found, pair)


def test_brute_force_agrees_with_decider_on_all_pairs():
    # seeded exact inputs dx(g) + dy(h), g = a/((x + b)*y) and h = e/y, have
    # certificates inside the oracle's radius 1 and degree 0 bounds, and
    # adding the non-exact 1/((x - 1)*y) keeps them in; the oracle and the
    # decider agree both ways
    from ratexact import phi_dy_reduced_form, tau_sigma_reduced_form
    R23 = rational(sp.Rational(2, 3))
    rng = random.Random(12)
    combos = ((R23, SHIFT_X_DERIV_Y), (R23, QSHIFT_X_DERIV_Y),
              (R23, QSHIFT_X_SHIFT_Y), (T, QSHIFT_X_DERIV_Y),
              (T, QSHIFT_X_SHIFT_Y), (root_of_unity(3), ROU_DERIV_Y),
              (root_of_unity(4), ROU_SHIFT_Y))
    for mode, pair in combos:
        a, e = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2))
        # over Q(zeta_m) the orbit of x - 1 holds m factors: keep g's to x
        b = 0 if pair in (ROU_DERIV_Y, ROU_SHIFT_Y) else rng.choice((-1, 0))
        g = RatFunc(sp.Integer(a) / ((x + b) * y), mode)
        h = RatFunc(sp.Integer(e) / y, mode)
        exact = pair.dx.delta(g) + pair.dy.delta(h)
        for f in (exact, exact + RatFunc(1 / ((x - 1) * y), mode)):
            found = brute_force_exact(f, pair, R=1, D=0)
            decided = decide_exact(f, pair)
            assert (found is not None) == decided.exact == (f == exact), \
                (mode.describe(), pair.name)
            if found is not None:
                assert verify_certificate(f, *found, pair)
            if decided.exact or pair in (ROU_DERIV_Y, ROU_SHIFT_Y):
                continue
            rf = (tau_sigma_reduced_form(f) if pair == QSHIFT_X_SHIFT_Y
                  else phi_dy_reduced_form(f, pair.dx))
            assert rf.recompose() == f
            w = decided.witness
            assert isinstance(w, NonSummableResidue)
            assert abramov_reduce(w.residue, pair.dx)[1]


def test_brute_force_finds_certificate_where_q0_is_singular():
    # at q = 9/7 the factor (7q - 9)x + 1 of g's denominator becomes 1 and
    # the system drops rank: a solve at that q finds no certificate, the
    # solve over Q(q) does
    g = RatFunc(1 / (x * ((7 * q - 9) * x + 1)), T)
    f = QSHIFT_X_DERIV_Y.dx.delta(g)
    found = brute_force_exact(f, QSHIFT_X_DERIV_Y, R=2, D=2)
    assert found is not None
    assert verify_certificate(f, *found, QSHIFT_X_DERIV_Y)


# (pair, input, exact) over symbolic q: g's and h's denominators are
# x-monomials times x-free factors, so every column of the oracle's system
# is a polynomial in q times a rational vector
SPLIT = ((QSHIFT_X_DERIV_Y, 7 / (x * y), True),
         (QSHIFT_X_SHIFT_Y, 7 / (x * y), True),
         (QSHIFT_X_DERIV_Y, 1 / (x * y ** 2), True),
         (QSHIFT_X_DERIV_Y, x / (y * (y + 1)), True),
         (QSHIFT_X_DERIV_Y, 1 / y, False),
         (QSHIFT_X_SHIFT_Y, 1 / y, False))


def _recording_solves(monkeypatch):
    from ratexact import deciders
    real, domains = deciders._solve_linear, []

    def recording(columns, K):
        domains.append(K)
        return real(columns, K)

    monkeypatch.setattr(deciders, "_solve_linear", recording)
    return domains


def _printed(found):
    return None if found is None else tuple(map(canonical_str, found))


def test_split_systems_are_solved_over_q(monkeypatch):
    # each split system makes one solve over Q and none over Q(q), and
    # gives the certificate, or None, of the solve over Q(q)
    from ratexact import deciders
    # q*x is no rational multiple of q + 1, though the leading terms agree
    Y, X, Q = T.pair_ring().gens
    for P in ((Q + 1) * Y + Q * X, Q * Y + (Q + 1) * X,
              (Q + 1) * Y + (Q + 2) * X):
        assert deciders._q_times_rational(P) is None
    s, C = deciders._q_times_rational((2 * Q + 2) * Y - (3 * Q + 3) * X)
    assert s[1,] == s[0,] and C[0, 1] / C[1, 0] == sp.QQ(-3, 2)
    domains = _recording_solves(monkeypatch)
    QQ = sp.QQ
    got = []
    for pair, expr, exact in SPLIT:
        f = RatFunc(expr, T)
        domains.clear()
        found = brute_force_exact(f, pair)
        assert domains == [QQ], (pair.name, expr)
        assert (found is not None) == exact, (pair.name, expr)
        if found is not None:
            assert verify_certificate(f, *found, pair)
        got.append(_printed(found))
    monkeypatch.setattr(deciders, "_q_times_rational", lambda P: None)
    for (pair, expr, _), printed in zip(SPLIT, got):
        domains.clear()
        assert _printed(brute_force_exact(RatFunc(expr, T), pair)) == printed
        assert domains == [QQ.frac_field(q)], (pair.name, expr)
    # a denominator factor x - 1 or (7q - 9)x + 1 does not split
    monkeypatch.undo()
    domains = _recording_solves(monkeypatch)
    g = RatFunc(1 / (x * ((7 * q - 9) * x + 1)), T)
    for f, R, D in ((RatFunc(1 / ((x - 1) * y), T), 1, 0),
                    (QSHIFT_X_DERIV_Y.dx.delta(g), 2, 2)):
        domains.clear()
        brute_force_exact(f, QSHIFT_X_DERIV_Y, R=R, D=D)
        assert domains == [QQ.frac_field(q)]


def test_wrong_oracle_solution_fails_verification(monkeypatch):
    # one coefficient added to the split solution
    from ratexact import deciders
    real = deciders._solve_linear

    def corrupted(columns, K):
        sol = real(columns, K)
        sol[0] += K.one
        return sol

    monkeypatch.setattr(deciders, "_solve_linear", corrupted)
    with pytest.raises(RatexactError, match="oracle certificate"):
        brute_force_exact(RatFunc(7 / (x * y), T), QSHIFT_X_DERIV_Y)


def test_brute_force_takes_no_gcd_per_column(monkeypatch):
    # the basis is formed and cleared without reducing each element, so
    # the number of reductions does not grow with the numerator degree D
    from ratexact import core
    calls = []
    reduce = core._reduce

    def counting(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(core, "_reduce", counting)
    for mode, pair in ((P, SHIFT_X_DERIV_Y), (rational(2), QSHIFT_X_DERIV_Y),
                       (T, QSHIFT_X_DERIV_Y), (root_of_unity(3), ROU_SHIFT_Y)):
        g = RatFunc(sp.Integer(2) / ((x + 1) * y), mode)
        h = RatFunc(sp.Integer(3) / y, mode)
        f = pair.dx.delta(g) + pair.dy.delta(h)
        counts = []
        for D in (1, 4):
            calls.clear()
            assert brute_force_exact(f, pair, R=1, D=D) is not None
            counts.append(len(calls))
        assert counts[0] == counts[1], (mode.describe(), counts)


# -- properties of the decision ---------------------------------------

# non-exact summands w by pair (the corpus and the benchmark use them too)
_W = {SHIFT_X_DERIV_Y: (1 / (x + y), 1 / (x * y)),
      QSHIFT_X_DERIV_Y: (1 / ((x - 1) * y),),
      QSHIFT_X_SHIFT_Y: (1 / ((x + 1) * y), 1 / (x + y))}
_PROPERTY_CASES = ((P, SHIFT_X_DERIV_Y), (rational(2), QSHIFT_X_DERIV_Y),
                   (T, QSHIFT_X_DERIV_Y), (rational(sp.Rational(3, 2)),
                                           QSHIFT_X_SHIFT_Y),
                   (T, QSHIFT_X_SHIFT_Y))
_DENS = (x, y, x + 1, y + 1, x + y, x * y - 1, x * y + 1)
_small = st.integers(-3, 3)


def _draw_exact(data, mode, pair):
    """dx(g) + dy(h) for drawn g = (a + b*x + c*y)/den and h likewise."""
    def part():
        a, b, c = (data.draw(_small) for _ in range(3))
        den = data.draw(st.sampled_from(_DENS))
        return RatFunc((a + b * x + c * y) / den, mode)
    return pair.dx.delta(part()) + pair.dy.delta(part())


def _draw_input(data):
    """(mode, pair, f, exact): f exact, or exact plus a multiple of a w."""
    mode, pair = data.draw(st.sampled_from(_PROPERTY_CASES))
    f = _draw_exact(data, mode, pair)
    if not data.draw(st.booleans()):
        return mode, pair, f, True
    c = data.draw(st.sampled_from((-2, -1, 1, 3)))
    w = RatFunc(c * data.draw(st.sampled_from(_W[pair])), mode)
    return mode, pair, f + w, False


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_decision_invariant_under_shifts(data):
    # the operators commute with x -> x + n (or x -> q^n x on the q-pairs)
    # and with y -> y + n, which are invertible: the decision is the same
    mode, pair, f, exact = _draw_input(data)
    assert decide_exact(f, pair).exact == exact
    n = data.draw(st.sampled_from((-2, -1, 1, 3)))
    for image in (pair.dx.pow(f, n), f.shift_y(n)):
        d = decide_exact(image, pair)
        assert d.exact == exact, (mode.describe(), pair.name, f, n)
        if exact:
            assert verify_certificate(image, *d.certificate, pair)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_exactness_is_linear(data):
    # exact + exact is exact; exact + (exact or not) + c*w is not exact
    mode, pair, f, exact = _draw_input(data)
    total = f + _draw_exact(data, mode, pair)
    d = decide_exact(total, pair)
    assert d.exact == exact, (mode.describe(), pair.name, total)
    if exact:
        assert verify_certificate(total, *d.certificate, pair)


def test_pair_strings_rejected():
    f = RatFunc.from_pair(1, x * (x + 1) * y, P)
    zero = RatFunc(0, P)
    for name in ("shift_x:deriv_y", "dx-dy", None):
        with pytest.raises(ValueError):
            decide_exact(f, name)
        with pytest.raises(ValueError):
            verify_certificate(f, zero, zero, name)
        with pytest.raises(ValueError):
            brute_force_exact(f, name)
    for mode in (P, T, root_of_unity(3)):
        with pytest.raises(ValueError):
            operator_pair("bogus", mode)


def test_brute_force_certificate_verifies():
    f = RatFunc.from_pair(1, x * y ** 2, T)
    found = brute_force_exact(f, QSHIFT_X_DERIV_Y)
    assert found is not None
    assert verify_certificate(f, *found, QSHIFT_X_DERIV_Y)


def test_hull_candidates_clip_around_first_factor():
    # x + 2 and x - 9 lie 5 and -6 shifts from the first factor x - 3;
    # the hull is clipped to R = 4 around x - 3, at one above the orbit's
    # largest multiplicity
    factors = [(BiPoly(x - 3, P), 1), (BiPoly(x + 2, P), 2),
               (BiPoly(x - 9, P), 1), (BiPoly(y, P), 1)]
    assert _hull_candidates(factors, SHIFT_X, 4) == \
        [(BiPoly(x - 3 + t, P), 3) for t in range(-4, 5)] + [(BiPoly(y, P), 2)]
    # at q = 2, 8x - 1 and x - 4 lie 3 and -2 q-shifts from x - 1
    M = rational(2)
    factors = [(BiPoly(x - 1, M), 1), (BiPoly(8 * x - 1, M), 1),
               (BiPoly(x - 4, M), 1)]
    assert _hull_candidates(factors, QSHIFT_X, 2) == \
        [(BiPoly(p, M), 2) for p in (x - 4, x - 2, x - 1, 2 * x - 1,
                                     4 * x - 1)]
