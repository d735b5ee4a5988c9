"""Canonical forms, arithmetic, and operator actions."""

import math
import os
import random
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import sympy as sp
import pytest
from hypothesis import example, given, settings, strategies as st

from ratexact import (BiPoly, RatFunc, ZeroDenominator, QModeMismatch,
                      parse_ratfunc, plain, rational, root_of_unity,
                      transcendental, SHIFT_X, QSHIFT_X, DERIV_Y, SHIFT_Y)
from ratexact.core import free_of_gen, inverse_mod, lead_yx, tree_sum
from ratexact.qmodes import ROOT_OF_UNITY, TRANSCENDENTAL, q, x, y

P = plain()
T = transcendental()


def test_normalize_cancels_and_scales():
    f = RatFunc.from_pair(2 * y, 4 * x * y, P)
    assert f.num.as_expr() == 1
    assert f.den.as_expr() == 2 * x


def test_normalize_scale_invariance():
    a, b = x ** 2 - y, 3 * x + 1
    base = RatFunc.from_pair(a, b, P)
    for c in (sp.Integer(7), -sp.Rational(2, 5), x + y):
        g = RatFunc.from_pair(sp.expand(a * c), sp.expand(b * c), P)
        assert g == base
        assert g.num.as_expr() == base.num.as_expr() and g.den.as_expr() == base.den.as_expr()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RatFunc.from_pair(1, 0, P)
    with pytest.raises(ZeroDenominator):
        RatFunc.from_pair(x, x - x, P)


def test_denominator_sign_normalization():
    f = RatFunc.from_pair(y, -2 * x, P)
    assert f.den.as_expr() == 2 * x
    assert f.num.as_expr() == -y


def test_cleared_denominator_over_q_field():
    # internal form clears q-denominators: integer polynomial pair with
    # positive leading coefficient, scale factors absorbed consistently
    f = RatFunc.from_pair(1, (q - 1) * x, T)
    assert sp.expand(f.den.as_expr()) == q * x - x
    g = RatFunc.from_pair(q, (q ** 2 - q) * x, T)
    assert f == g
    # canonical() is the monic representative used for orbit comparisons
    _, prim = f.den.canonical()
    assert sp.Poly(prim.as_expr(), x, y,
                   domain=sp.QQ.frac_field(q)).LC() == 1


def test_field_arithmetic():
    f = RatFunc.from_pair(1, x, P)
    g = RatFunc.from_pair(1, y, P)
    assert (f + g) == RatFunc.from_pair(x + y, x * y, P)
    assert (f * g) == RatFunc.from_pair(1, x * y, P)
    assert (f - f).is_zero
    assert (f / g) == RatFunc.from_pair(y, x, P)
    with pytest.raises(ZeroDenominator):
        f / (g - g)


def test_shift_and_qshift():
    f = RatFunc.from_pair(1, x * y, P)
    assert f.shift_x(2) == RatFunc.from_pair(1, (x + 2) * y, P)
    assert f.shift_y(-1) == RatFunc.from_pair(1, x * (y - 1), P)
    ft = RatFunc.from_pair(1, x * y, T)
    assert ft.qshift_x(1) == RatFunc.from_pair(1, q * x * y, T)
    assert ft.qshift_x(1).qshift_x(-1) == ft


def test_qshift_specialized():
    M = rational(2)
    f = RatFunc.from_pair(1, x + 1, M)
    assert f.qshift_x(1) == RatFunc.from_pair(1, 2 * x + 1, M)


def test_qshift_requires_q():
    f = RatFunc.from_pair(1, x, P)
    with pytest.raises(QModeMismatch):
        f.qshift_x(1)


def test_root_of_unity_shift_has_finite_order():
    t = sp.Symbol("t")
    for m in range(1, 13):
        M = root_of_unity(m)
        # k = Q[t]/Phi_m with q = t (k = Q for m <= 2), and q is a
        # primitive m-th root of unity: q^m = 1, q^(m/p) != 1 for p | m
        dom, z = M.coeff_domain(), M.q_element()
        phi = [int(c) for c in sp.Poly(sp.cyclotomic_poly(m, t)).all_coeffs()]
        if m > 2:
            assert dom.mod.to_list() == phi
            assert z.to_list() == [1, 0]
        else:
            assert dom == sp.QQ and phi == [1, -z]
        assert z ** m == dom.one
        assert all(z ** (m // p) != dom.one for p in sp.primefactors(m))
        f = RatFunc.from_pair(1, x + y + 1, M)
        g = f
        for _ in range(m):
            g = g.qshift_x(1)
        assert g == f


def test_import_leaves_sympy_unpatched():
    # importing ratexact patches nothing in sympy, and no scalar of the
    # package goes through floating point, CRootOf or an Expr round trip
    code = ("from sympy.polys.domains.algebraicfield import AlgebraicField\n"
            "orig = AlgebraicField.from_sympy\n"
            "import ratexact\n"
            "assert AlgebraicField.from_sympy is orig\n"
            "assert orig.__module__ == AlgebraicField.__module__\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    banned = re.compile(r"complex\(|float|CRootOf|from_sympy|to_sympy"
                        r"|primitive_root|q_value")
    hits = [(path.name, n, line) for path in sorted((src / "ratexact")
                                                    .glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]
    assert hits == []


def test_operator_application():
    f = RatFunc.from_pair(1, x * y, P)
    assert SHIFT_X.delta(f) == f.shift_x(1) - f
    assert DERIV_Y.delta(f) == RatFunc.from_pair(-1, x * y ** 2, P)
    assert SHIFT_Y.delta(f) == f.shift_y(1) - f
    ft = RatFunc.from_pair(1, x * y, T)
    assert QSHIFT_X.delta(ft) == ft.qshift_x(1) - ft
    with pytest.raises(QModeMismatch):
        QSHIFT_X.delta(f)


def test_derivative_of_square():
    f = RatFunc.from_pair(1, y ** 2, P)
    assert f.deriv_y() == RatFunc.from_pair(-2, y ** 3, P)


def test_bipoly_canonical():
    p = BiPoly(-4 * x * y - 2 * x, P)
    u, prim = p.canonical()
    assert u == -2
    assert prim.as_expr() == sp.expand(2 * x * y + x)
    assert BiPoly(u, P) * prim == p


def test_bipoly_pair_is_normal_over_q_field():
    # over Q(q) a BiPoly is (numer, denom), a coprime pair in Z[y, x, q]
    # with denom free of y and x: equal values built in different ways
    # have equal pairs and hashes, and denom is the lcm in Z[q] of the
    # q-denominators of the coefficients, with positive leading
    # coefficient
    rng = random.Random(67)
    dens = (1, 2, q, q + 1, 3 * q ** 2 - 1, (q + 1) ** 2)
    for _ in range(20):
        e = sum(sp.Rational(rng.randint(-9, 9), rng.randint(1, 4))
                * q ** rng.randint(0, 2) / rng.choice(dens)
                * x ** rng.randint(0, 2) * y ** rng.randint(0, 2)
                for _ in range(rng.randint(1, 4)))
        p, r = BiPoly(e, T), BiPoly(x * y / (q + 1) + q, T)
        u, prim = p.canonical()
        for other in (BiPoly(sp.expand(e * (q ** 2 + 2)), T)
                      * (1 / (T.q_element() ** 2 + 2)),
                      (p + r) - r, prim * u, p.shift(x, 2).shift(x, -2),
                      p.qshift_x(3).qshift_x(-3)):
            assert (other.numer, other.denom) == (p.numer, p.denom)
            assert other == p and hash(other) == hash(p)
        if p.is_zero:
            continue
        coeffs = sp.Poly(sp.together(e), x, y).coeffs()
        lcm = reduce(sp.lcm, (sp.fraction(sp.cancel(c))[1] for c in coeffs))
        assert p.denom.LC > 0 and p.numer.gcd(p.denom) == 1
        assert sp.expand(p.denom.as_expr()) == sp.expand(
            lcm * sp.sign(sp.LC(lcm, q)))
        assert prim.denom == lead_yx(prim.numer) != 0


def test_equality_is_semantic():
    f = RatFunc((x ** 2 - y ** 2) / (x - y), P)
    assert f == RatFunc(x + y, P)
    assert f != RatFunc(x - y, P)


def _fuzz_rf(rng, mode, gens):
    def poly():
        t = sum(rng.randint(-9, 9) * rng.choice(gens) ** rng.randint(0, 2)
                * rng.choice(gens) ** rng.randint(0, 2)
                for _ in range(rng.randint(1, 3)))
        return t if t != 0 else sp.Integer(1)
    return RatFunc.from_pair(poly(), poly(), mode)


def test_shift_inverses_fuzz():
    import random
    rng = random.Random(61)
    for _ in range(60):
        f = _fuzz_rf(rng, P, [x, y])
        assert f.shift_x(1).shift_x(-1) == f
        assert f.shift_y(-2).shift_y(2) == f
    for _ in range(40):
        f = _fuzz_rf(rng, T, [x, y])
        assert f.qshift_x(1).qshift_x(-1) == f


def test_operator_commutation_fuzz():
    import random
    rng = random.Random(62)
    for _ in range(60):
        f = _fuzz_rf(rng, P, [x, y])
        assert f.shift_x(1).deriv_y() == f.deriv_y().shift_x(1)
        assert f.shift_x(1).shift_y(1) == f.shift_y(1).shift_x(1)
    for _ in range(40):
        f = _fuzz_rf(rng, T, [x, y])
        assert f.qshift_x(1).deriv_y() == f.deriv_y().qshift_x(1)
        assert f.qshift_x(1).shift_y(1) == f.shift_y(1).qshift_x(1)


def test_root_of_unity_qshift_has_finite_order_fuzz():
    import random
    from ratexact import root_of_unity
    rng = random.Random(63)
    for m in (2, 4):
        M = root_of_unity(m)
        for _ in range(5):
            f = _fuzz_rf(rng, M, [x, y])
            assert f.qshift_x(m) == f


def test_field_inverse_fuzz():
    import random
    rng = random.Random(64)
    for _ in range(30):
        f = _fuzz_rf(rng, P, [x, y])
        if not f.is_zero:
            assert f * (RatFunc(1, P) / f) == RatFunc(1, P)


def test_operator_results_are_canonical_fuzz():
    # shifts and q-shifts skip the gcd; their pairs must still be the
    # canonical pairs that full cancellation of the substituted
    # expression gives (equality compares the stored pairs)
    import random
    rng = random.Random(65)
    for mode in (P, T, rational(sp.Rational(-2, 3)), root_of_unity(3)):
        for _ in range(8):
            f = _fuzz_rf(rng, mode, [x, y])
            if mode == T:
                f = f * RatFunc.from_pair(q ** 2 + 1, q - 3, T)
            e = f.as_expr()
            assert f.shift_x(2) == RatFunc(e.subs(x, x + 2), mode)
            assert f.shift_y(-3) == RatFunc(e.subs(y, y - 3), mode)
            if mode.has_q:
                # x -> q^n x substituted in the expression, then fully
                # cancelled
                qv = mode.coeff_domain().to_sympy(mode.q_element())
                for n in (1, -2):
                    assert f.qshift_x(n) == RatFunc(e.subs(x, qv ** n * x),
                                                    mode)


def test_ground_denominator_matches_gcd_path():
    # a ground denominator skips the gcd; the pair must be the canonical
    # one that cancelling a non-ground common factor reaches.  A scalar c
    # enters the pair ring as its canonical pair (cn, cd), so n/c is
    # n*cd/cn over the ground cn
    from ratexact.core import from_scalar
    for mode in (P, T, rational("3/2"), root_of_unity(2), root_of_unity(3),
                 root_of_unity(4)):
        ring = mode.pair_ring()
        dom = mode.coeff_domain()
        Y, X = ring.gens[:2]
        grounds = [dom.convert(-4), dom.convert(sp.Rational(2, 3))]
        if mode.kind == ROOT_OF_UNITY:
            z = mode.q_element()
            grounds += [z, z + dom.convert(2)]
        n = 3 * X ** 2 * Y - 5 * X + 7
        if mode.kind == ROOT_OF_UNITY:
            n = n * from_scalar(mode.q_element(), mode)[0] + Y
        u = X + Y + 1
        for c in grounds:
            cn, cd = from_scalar(c, mode)
            assert cn.is_ground and cd.is_ground
            fast = RatFunc.from_ring(n * cd, cn, mode)
            slow = RatFunc.from_ring(n * cd * u, cn * u, mode)
            assert (fast.numer, fast.denom) == (slow.numer, slow.denom)
            assert fast == RatFunc.from_ring(n, ring.one, mode).mul_ground(
                dom.quo(dom.one, c))


def test_modular_coprimality_never_hides_a_common_factor():
    # over Z[y, x] and Z[y, x, q] a pair skips the gcd when its images mod
    # a prime are coprime; a planted factor must never pass the filter,
    # and a shared factor must still cancel, to the gcd's pair, over
    # every field
    from ratexact.core import _EVAL_POINT, _coprime
    rng = random.Random(23)
    for mode in (P, T, root_of_unity(3), root_of_unity(4), root_of_unity(5)):
        ring = mode.pair_ring()
        Y, X = ring.gens[:2]
        if mode.kind == ROOT_OF_UNITY:
            z = ring.ground_new(mode.q_element())
            units = [z ** k for k in range(mode.order)]
        else:
            units = [g ** k for g in ring.gens[2:] for k in range(3)]
            units = units or [ring.one]

        def rand():
            return sum((rng.randint(-3, 3) * rng.choice(units)
                        * X ** i * Y ** j
                        for i in range(2) for j in range(2)), ring.one)
        # a factor whose images at the evaluation point are constant
        v = _EVAL_POINT
        vanishing = (X - v) * (Y - v) + 1
        for k in range(7):
            a, b, c = rand(), rand(), rand() if k else vanishing
            if c.is_ground or b.is_ground:
                continue
            if not ring.domain.is_Field:
                assert not _coprime(a * c, b * c)
            f = RatFunc.from_ring(a * c, b * c, mode)
            assert f == RatFunc.from_ring(a, b, mode)
            assert f.numer.gcd(f.denom).is_ground


# -- the modular gcd over Q(zeta_m) -------------------------------------

def _zeta_ring(m):
    mode = root_of_unity(m)
    ring = mode.pair_ring()
    Y, X = ring.gens
    return mode, ring, Y, X, ring.ground_new(mode.q_element())


def test_modular_gcd_matches_the_prs():
    # planted common factors: monomials, x-only, y-only, mixed and with
    # zeta coefficients; the gcd is the PRS's monic one, and so are the
    # cofactors
    from ratexact.core import _zeta_gcd, cofactors, gcd_all
    rng = random.Random(41)
    for m in (3, 4, 5, 6, 7, 8, 9, 12):
        mode, ring, Y, X, z = _zeta_ring(m)

        def rand(dy, dx):
            return sum((rng.randint(-3, 3) * z ** rng.randint(0, m - 1)
                        * Y ** i * X ** j
                        for i in range(dy + 1) for j in range(dx + 1)),
                       ring.zero)
        planted = (Y, X, X ** 2 - 3 * X + 1, Y ** 2 + 2, X * Y - Y ** 2 - Y,
                   Y + z * X, z ** 2 * X * Y + z - 1, rand(1, 1))
        for c in planted:
            a = c * (rand(1, 1) or ring.one)
            b = c * (rand(1, 1) or ring.one)
            h, (ca, cb) = _zeta_gcd((a, b), mode)
            want, wa, wb = a.cofactors(b)
            assert h == want and h.LC == ring.domain.one, (m, c)
            assert (ca, cb) == (wa, wb) and ca * h == a and cb * h == b
            assert cofactors(a, b, mode) == (wa, wb)
        # several at once, as the content in y takes them
        ps = [rand(0, 2) * (X + z) for _ in range(3)]
        h = _zeta_gcd(ps, mode)[0]
        assert h == reduce(lambda g, p: g.gcd(p), ps)
        assert gcd_all([p * Y ** i for i, p in enumerate(ps)], mode) == h


def test_gcd_all_is_one_when_constant():
    # a shortest polynomial that is an integer not dividing the rest ends
    # the fold at once, and the gcd is the ring's one, not that integer:
    # inverse_mod divides by it
    from ratexact.core import gcd_all
    for mode in (P, T, root_of_unity(3)):
        ring = mode.pair_ring()
        Y, X = ring.gens[:2]
        for polys in ([2 * X * Y + 2, ring(3), 6 * Y - 3],
                      [X + 1, ring(2), X ** 2 - 1]):
            assert gcd_all(polys, mode) == ring.one
        assert gcd_all([2 * (X + 1), 4 * (X + 1) * Y], mode) == (
            X + 1 if mode.kind == ROOT_OF_UNITY else 2 * X + 2)


def test_modular_gcd_drops_an_unlucky_prime(monkeypatch):
    # x + 1 and x + 1 + p share a factor modulo the first prime p only:
    # its images have the higher leading monomial of (x + 1)*c, the
    # candidate from it fails trial division, and the second prime gives c
    import ratexact.core as core
    for m in (3, 5):
        mode, ring, Y, X, z = _zeta_ring(m)
        p, roots = mode.residue_map(0)
        c = Y * X + z
        a, b = (X + 1) * c, (X + 1 + p) * c
        V = core._zeta_matrices(p, roots)[0]
        lms = {max(g) for g in core._image_gcds((a, b), p, V)}
        assert lms == {((X + 1) * c).LM}
        assert core._zeta_gcd((a, b), mode) == (c, [X + 1, X + 1 + p])
        monkeypatch.setattr(core, "_GCD_PRIMES", 1)
        assert core._zeta_gcd((a, b), mode) is None
        monkeypatch.undo()


def test_modular_gcd_falls_back_to_the_prs():
    # a gcd with coefficients larger than the primes can reconstruct
    from ratexact.core import _GCD_PRIMES, _zeta_gcd, cofactors
    mode, ring, Y, X, z = _zeta_ring(5)
    c = Y + 3 ** (40 * _GCD_PRIMES) * z * X
    a, b = (X + 2) * c, (X * Y - 3) * c
    assert _zeta_gcd((a, b), mode) is None
    assert cofactors(a, b, mode) == (X + 2, X * Y - 3)
    f = RatFunc.from_ring(a, b, mode)
    assert (f.numer, f.denom) == (X + 2, X * Y - 3)


# -- the tree sum ------------------------------------------------------

_TREE_MODES = {"none": P, "3/2": rational("3/2"), "symbolic": T,
               "zeta3": root_of_unity(3)}


def _tree_factors(mode):
    """Denominator factors in mode's pair ring; a list of fractions
    drawn from them shares factors between denominators.  c = cn/cd is
    q (the generator over Q(q)), or 2 without q, and the factors
    c*x + y + 1 and x - c are held cleared of cd."""
    from ratexact.core import from_scalar
    ring = mode.pair_ring()
    Y, X = ring.gens[:2]
    if mode.kind == TRANSCENDENTAL:
        cn, cd = ring.gens[2], ring.one
    elif mode.has_q:
        cn, cd = from_scalar(mode.q_element(), mode)
    else:
        cn, cd = ring(2), ring.one
    return ring, [X, Y, X + 1, X * Y - 1, cn * X + cd * (Y + 1),
                  cd * X - cn]


_fraction = st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                      st.lists(st.integers(0, 5), min_size=1, max_size=2))


@pytest.mark.parametrize("token", sorted(_TREE_MODES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(fractions=st.lists(_fraction, max_size=4), cancel=st.booleans())
@example(fractions=[((1, 2, 0), [0, 1]), ((0, 1, 1), [1, 3]),
                    ((2, 0, -1), [0, 0]), ((-1, 1, 0), [3])], cancel=False)
def test_tree_sum_equals_left_to_right_sum(token, fractions, cancel):
    mode = _TREE_MODES[token]
    ring, factors = _tree_factors(mode)
    Y, X = ring.gens[:2]
    terms = []
    for (a, b, c), idx in fractions:
        num = ring(a) + ring(b) * X + ring(c) * X * Y
        den = ring.one
        for i in idx:
            den = den * factors[i]
        terms.append(RatFunc.from_ring(num, den, mode))
    if cancel:  # the same terms negated, in reverse order: the sum is 0
        terms += [-t for t in reversed(terms)]
    total = tree_sum(terms, mode)
    expected = reduce(lambda s, t: s + t, terms, RatFunc(0, mode))
    assert (total.numer, total.denom) == (expected.numer, expected.denom)
    if cancel:
        assert total.is_zero


# -- canonical scaling ---------------------------------------------------

def _content_ratio_normal(n, d):
    """The scaling by the ratio of the two QQ contents, as a reference,
    for n and d over QQ."""
    if not n:
        return n, d.ring.one
    dom = d.ring.domain
    cn, cd = n.content(), d.content()
    r = cn / cd
    sn, sd = dom(r.numerator) / cn, dom(r.denominator) / cd
    if d.LC < 0:
        sn, sd = -sn, -sd
    return n.mul_ground(sn), d.mul_ground(sd)


_coeff = st.fractions(min_value=-40, max_value=40, max_denominator=60)


@pytest.mark.parametrize("mode", [P, T], ids=["QQ[y,x]", "QQ[y,x,q]"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_normal_scaling_is_integer_primitive(mode, data):
    # a pair drawn over QQ[y, x] (or QQ[y, x, q]) is cleared to the
    # integer pair ring, and _normal scales it as the ratio of the QQ
    # contents does
    from ratexact.core import _normal
    ring = mode.pair_ring()
    qring = ring.clone(domain=sp.QQ)
    dom = qring.domain
    monomial = st.tuples(*[st.integers(0, 3)] * ring.ngens)

    def poly(min_size):
        terms = data.draw(st.dictionaries(monomial, _coeff,
                                          min_size=min_size, max_size=5))
        return qring.from_dict({m: dom(c.numerator, c.denominator)
                                for m, c in terms.items() if c})

    n, d = poly(0), poly(1)
    if not d:
        d = qring(data.draw(st.sampled_from([-3, 5])))
    L = math.lcm(*(c.denominator for p in (n, d) for c in p.itercoeffs()))
    got = _normal((n * L).set_ring(ring), (d * L).set_ring(ring))
    assert got == tuple(p.set_ring(ring) for p in _content_ratio_normal(n, d))
    gn, gd = got
    assert gn.ring == ring and ring.domain == sp.ZZ
    coeffs = [*gn.itercoeffs(), *gd.itercoeffs()]
    assert reduce(math.gcd, coeffs) == 1
    assert gd.LC > 0
    # the same rational function: gn/gd == n/d
    assert gn.set_ring(qring) * d == n * gd.set_ring(qring)


def test_inverse_mod_over_several_steps():
    # s*c == rho modulo P with rho nonzero and free of y; for P of y-degree
    # 3 and 4 the pseudo-remainder sequence takes more than one step
    rng = random.Random(17)
    for mode in (P, rational("3/2"), T, root_of_unity(3)):
        q_term = "q*" if mode.has_q else ""
        for text in ("(x + 1)*y^3 + %sx*y + 2" % q_term,
                     "(x - 2)*y^4 + (x^2 + 1)*y^2 - 3*y + x"):
            Pring = parse_ratfunc(text, mode).numer
            for _ in range(3):
                c = parse_ratfunc(" + ".join(
                    "%d*x^%d*y^%d" % (rng.randint(-5, 5) or 1, i, j)
                    for i in range(2) for j in range(rng.randint(1, 5))),
                    mode).numer
                s, rho = inverse_mod(c, Pring, mode)
                assert rho and free_of_gen(rho, 0)
                assert not (s * c - rho).prem(Pring)



def _pair(f):
    return f.numer, f.denom


def test_swap_and_qshift_keep_canonical_pairs_and_sum_identity():
    # swap_xy and qshift_x rescale without a gcd; each must give the pair
    # that cancellation from scratch gives.  is_difference takes its right
    # side as a sum; over Q(zeta_m) it checks modulo Phi_m.
    from ratexact.core import is_difference
    rng = random.Random(16)
    for mode in (P, rational(sp.Rational(2, 3)), T, root_of_unity(3),
                 root_of_unity(7)):
        phi = SHIFT_X if mode == P else QSHIFT_X
        for _ in range(6):
            def rand():
                num = sum(rng.randint(-4, 4) * x ** i * y ** j
                          for i in range(3) for j in range(2)) or 1
                den = ((rng.randint(1, 3) * x + rng.randint(-2, 2) * y
                        + rng.randint(1, 3)) * (y - rng.randint(0, 2) * x))
                return RatFunc.from_pair(num, den, mode)
            f, a = rand(), rand()
            for s in (f.swap_xy(), phi.pow(f, 1), phi.pow(f, -2)):
                # the canonical pair, as a reduction from scratch gives it
                assert _pair(s) == _pair(RatFunc.from_ring(
                    s.numer * 5, s.denom * 5, mode))
            assert f.swap_xy().swap_xy() == f
            r = phi.delta(f)
            assert is_difference(f, phi.pow(f, 1), r - a, a)
            assert not is_difference(f, phi.pow(f, 1), r, a)


# -- the integer canonical-pair contract ---------------------------------

_INT_MODES = {"none": P, "2": rational(2), "3/2": rational("3/2"),
              "-5/7": rational("-5/7"), "symbolic": T}


def _q_expr(mode):
    """q as a sympy Expr in mode: the symbol, or its rational value (1
    without q)."""
    if mode.kind == TRANSCENDENTAL:
        return q
    v = mode.value or 1
    return sp.Rational(v.numerator, v.denominator)


def _assert_integer_pair(f):
    """f's pair lies in the integer pair ring, coprime, with coprime
    contents and a positive leading denominator coefficient."""
    n, d = f.numer, f.denom
    assert n.ring == d.ring == f.mode.pair_ring()
    assert n.ring.domain == sp.ZZ
    assert d.LC > 0
    assert math.gcd(*n.itercoeffs(), *d.itercoeffs()) == 1
    assert (n.gcd(d) == 1) if n else d == 1


def _assert_bipoly_pair(p):
    """p's (numer, denom) is coprime in the integer pair ring, with denom
    free of y and x and a positive leading coefficient."""
    n, d = p.numer, p.denom
    assert n.ring == d.ring == p.mode.pair_ring()
    assert free_of_gen(d, 0) and free_of_gen(d, 1) and d.LC > 0
    assert (n.gcd(d) == 1) if n else d == 1


_term = st.tuples(st.integers(-4, 4), st.integers(1, 3), st.integers(0, 2),
                  st.integers(0, 2), st.integers(0, 1))


def _poly_expr(terms, qv):
    return sum((sp.Rational(a, b) * x ** i * y ** j * qv ** k
                for a, b, i, j, k in terms), sp.Integer(0))


@pytest.mark.parametrize("token", sorted(_INT_MODES))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_canonical_pairs(token, data):
    # every operation maps canonical integer pairs to canonical integer
    # pairs equal to sympy's cancel of the same Exprs
    mode = _INT_MODES[token]
    qv = _q_expr(mode)
    terms = st.lists(_term, min_size=1, max_size=4)

    def ratfunc():
        num = _poly_expr(data.draw(terms), qv)
        den = _poly_expr(data.draw(terms), qv)
        e = num / (den if den != 0 else sp.Integer(1))
        return RatFunc(e, mode), e

    (f, ef), (g, eg), (h, eh) = ratfunc(), ratfunc(), ratfunc()
    a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 5))
    if mode.kind == TRANSCENDENTAL:
        dom = mode.coeff_domain()
        c = (dom.convert(a) * mode.q_element() + 2) / (mode.q_element() + b)
        ec = (a * q + 2) / (q + b)
    else:
        c, ec = sp.QQ(a, b), sp.Rational(a, b)
    n = data.draw(st.integers(-2, 3))
    k = data.draw(st.sampled_from([-2, -1, 1, 2]))
    results = [(f + g, ef + eg), (f - g, ef - eg), (f * g, ef * eg),
               (f.shift_x(n), ef.subs(x, x + n)),
               (f.shift_y(n), ef.subs(y, y + n)),
               (f.deriv_y(), sp.diff(ef, y)),
               (f.swap_xy(), ef.subs({x: y, y: x}, simultaneous=True)),
               (f.mul_ground(c), ef * ec),
               (tree_sum([f, g, h, -g], mode), ef + eh)]
    if mode.has_q:
        results.append((f.qshift_x(k), ef.subs(x, qv ** k * x)))
    if not g.is_zero:
        results.append((f / g, ef / eg))
    if n >= 0 or not f.is_zero:
        results.append((f ** n, ef ** n))
    # 0^0 == 1, as the parser reads it
    results.append((RatFunc(0, mode) ** 0, sp.Integer(1)))
    for r, e in [(f, ef), (g, eg), (h, eh)]:  # the Expr reader
        assert sp.cancel(r.as_expr() - e) == 0
    for r, e in [(f, ef)] + results:
        _assert_integer_pair(r)
        want = RatFunc(sp.cancel(e), mode)
        assert (r.numer, r.denom) == (want.numer, want.denom)
        _assert_bipoly_pair(r.num)
        _assert_bipoly_pair(r.den)
    # BiPolys with constant denominators, and their operations
    p = BiPoly(_poly_expr(data.draw(terms), qv), mode)
    p2 = BiPoly(_poly_expr(data.draw(terms), qv), mode)
    u, prim = p.canonical()
    ps = [p, p2, prim, p + p2, p - p2, p * p2, p ** 2, p * c,
          p.shift(x, n), p.shift(y, n), p.swap_xy()]
    if mode.has_q:
        ps.append(p.qshift_x(k))
    for r in ps:
        _assert_bipoly_pair(r)
    assert BiPoly(0, mode) ** 0 == 1
    assert prim * u == p


@pytest.mark.parametrize("mode", [P, T], ids=["QQ", "QQ(q)"])
def test_hash_agrees_with_equality_on_built_quotients(mode):
    # sympy builds a quotient in place (div, exquo), so the hash it caches
    # for it is the hash of zero; equal values must still hash alike
    ring = mode.pair_ring()
    Y = ring.gens[0]
    quo = (2 * Y).exquo(ring(2))
    a, b = BiPoly.from_ring(quo, quo.ring.one, mode), BiPoly(y, mode)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    f, g = RatFunc.from_ring(quo, ring.one, mode), RatFunc(y, mode)
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1


# -- one value kernel: a BiPoly is a RatFunc ----------------------------

_KERNEL_MODES = {"none": P, "3/2": rational("3/2"), "symbolic": T,
                 "zeta:3": root_of_unity(3), "zeta:4": root_of_unity(4)}
# the fuzz workload's denominators
_FUZZ_POOL = [x, y, x + 1, y + 1, x + y, x * y - 1, x + y + 1, x * y + 1,
              x ** 2 + y]


def _pool_poly(data, mode):
    """c * (a product of pool members) + (a pool member or 0), c a
    rational number times a power of q (of 3 without q)."""
    qv = q if mode.has_q else 3
    parts = data.draw(st.lists(st.sampled_from(_FUZZ_POOL), max_size=3))
    a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3))
    c = sp.Rational(a, b) * qv ** data.draw(st.integers(-1, 1))
    return BiPoly(c * sp.prod(parts)
                  + data.draw(st.sampled_from(_FUZZ_POOL + [0])), mode)


@pytest.mark.parametrize("token", sorted(_KERNEL_MODES))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_bipoly_operations_are_the_ratfunc_operations(token, data):
    # the arithmetic, shifts, q-shift and swap of BiPolys give the pair
    # that the same operation gives on the equal RatFuncs, as a BiPoly;
    # division and negative powers give a RatFunc
    mode = _KERNEL_MODES[token]
    p, p2 = _pool_poly(data, mode), _pool_poly(data, mode)
    f, f2 = RatFunc(p, mode), RatFunc(p2, mode)
    assert type(f) is RatFunc and (f.numer, f.denom) == (p.numer, p.denom)
    n, k = data.draw(st.integers(0, 3)), data.draw(st.integers(-2, 2))
    same = [(p + p2, f + f2), (p - p2, f - f2), (p * p2, f * f2), (-p, -f),
            (p ** n, f ** n), (p + 2, f + 2), (3 - p, 3 - f),
            (p.shift(x, k), f.shift_x(k)), (p.shift(y, k), f.shift_y(k)),
            (p.swap_xy(), f.swap_xy())]
    if mode.has_q:
        same.append((p.qshift_x(k), f.qshift_x(k)))
    for a, b in same:
        assert type(a) is BiPoly and type(b) is RatFunc
        assert (a.numer, a.denom) == (b.numer, b.denom)
        assert a == b and hash(a) == hash(b)
    if not p2.is_zero:
        assert type(p / p2) is RatFunc and p / p2 == f / f2
    if not p.is_zero:
        assert type(p ** -2) is RatFunc and p ** -2 == f ** -2
    assert type(p * f2) is RatFunc and p * f2 == f * f2


def test_values_of_two_q_modes_do_not_mix():
    a, b = RatFunc(x, P), RatFunc(x, T)
    for op in (lambda: a + b, lambda: a * b, lambda: b / a,
               lambda: BiPoly(x, P) - BiPoly(x, T), lambda: RatFunc(a, T)):
        with pytest.raises(QModeMismatch):
            op()
    assert (RatFunc(1, P) == None) is False  # noqa: E711
    assert RatFunc(1, P) != None  # noqa: E711
    assert BiPoly(x, P) != RatFunc(1 / x, P)
