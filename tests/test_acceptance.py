"""Acceptance gate: one test per criterion, each printing a single
PASS line on success (failures raise with details).

Value provenance markers used below:
  [PAPER]   expected value quoted from the source material's examples
  [DERIVED] expected value computed by hand or by an independent method
  [TRIVIAL] expected value immediate from the definition
"""

import random
import subprocess
import sys
import time
from pathlib import Path

import sympy as sp

from ratexact import (RatFunc, BiPoly, decide_exact, verify_certificate,
                      brute_force_exact, abramov_summable_x,
                      hermite_reduce_y, abramov_reduce_y,
                      phi_dy_reduced_form, tau_sigma_reduced_form,
                      tau_reduced_root_of_unity, trace_xm,
                      residue_dy, residue_sigma,
                      plain, transcendental, root_of_unity)
from ratexact.deciders import (SHIFT_X_DERIV_Y, QSHIFT_X_DERIV_Y,
                               QSHIFT_X_SHIFT_Y, ROU_DERIV_Y)
from ratexact.orbits import (SHIFT_X, shift_equivalent, sigma_equivalent,
                             joint_equivalent)
from ratexact.qmodes import q, x, y
from ratexact.reductions import pull_back

P = plain()
T = transcendental()


def _ok(n, msg):
    print("criterion %d: PASS - %s" % (n, msg))


def _apply_pair(pair, g, h):
    if pair == SHIFT_X_DERIV_Y:
        return (g.shift_x(1) - g) + h.deriv_y()
    if pair in (QSHIFT_X_DERIV_Y, ROU_DERIV_Y):
        return (g.qshift_x(1) - g) + h.deriv_y()
    return (g.qshift_x(1) - g) + (h.shift_y(1) - h)


def test_criterion_1_worked_examples():
    budget = []
    cases = [
        # [PAPER] the four headline decisions
        (RatFunc.from_pair(1, x + y, P), SHIFT_X_DERIV_Y, False),
        (RatFunc.from_pair(1, x * y, P), SHIFT_X_DERIV_Y, False),
        (RatFunc.from_pair(1, x + y, T), QSHIFT_X_SHIFT_Y, False),
        (RatFunc.from_pair(1, x * y, T), QSHIFT_X_SHIFT_Y, True),
    ]
    for f, pair, want in cases:
        t0 = time.monotonic()
        d = decide_exact(f, pair)
        budget.append(time.monotonic() - t0)
        assert d.exact == want
        if want:
            assert verify_certificate(f, *d.certificate, pair)
    # [PAPER] the quoted closed-form certificate g = q/((1-q)xy), h = 0
    f = RatFunc.from_pair(1, x * y, T)
    g0 = RatFunc(q / ((1 - q) * x * y), T)
    assert verify_certificate(f, g0, RatFunc(0, T), QSHIFT_X_SHIFT_Y)
    assert max(budget) < 1.0, "slowest case %.2fs" % max(budget)
    _ok(1, "four decisions + quoted certificate, max %.2fs" % max(budget))


def test_criterion_2_univariate_examples():
    t0 = time.monotonic()
    # [DERIVED] telescoping sum of 1/(x(x+1)) is -1/x
    res = abramov_summable_x(RatFunc.from_pair(1, x * (x + 1), P))
    assert res.summable
    g = res.certificate
    assert g.shift_x(1) - g == RatFunc.from_pair(1, x * (x + 1), P)
    # [TRIVIAL] harmonic term 1/x is not summable; residue 1 at x
    res = abramov_summable_x(RatFunc.from_pair(1, x, P))
    assert not res.summable
    assert res.obstruction
    assert any(not num.is_zero for _, _, num in res.obstruction)
    elapsed = time.monotonic() - t0
    assert elapsed < 0.1, "%.3fs" % elapsed
    _ok(2, "univariate summability examples in %.3fs" % elapsed)


POOL1 = [x, y, x + 1, y + 1, x + y]
POOL2 = [x * y - 1, x + y + 1, x * y + 1, x ** 2 + y]


def _rand_poly(rng, deg):
    t = sum(rng.randint(-9, 9) * x ** i * y ** j
            for i in range(deg + 1) for j in range(deg + 1 - i))
    return t if t != 0 else sp.Integer(1)


def _rand_rf(rng, mode):
    num = _rand_poly(rng, rng.choice([0, 1, 1, 2]))
    if rng.random() < 0.85:
        den = rng.choice(POOL1 + POOL2)
    else:
        den = rng.choice(POOL1) * rng.choice(POOL1 + POOL2)
    return RatFunc.from_pair(num, den, mode)


def test_criterion_3_constructed_exact_fuzz():
    t0 = time.monotonic()
    for pair, mode in ((SHIFT_X_DERIV_Y, P), (QSHIFT_X_DERIV_Y, T),
                       (QSHIFT_X_SHIFT_Y, T)):
        rng = random.Random(7)
        for _ in range(200):
            g, h = _rand_rf(rng, mode), _rand_rf(rng, mode)
            f = _apply_pair(pair, g, h)
            d = decide_exact(f, pair)
            assert d.exact, (pair, f.as_expr())
            assert verify_certificate(f, *d.certificate, pair)
    elapsed = time.monotonic() - t0
    assert elapsed < 120, "%.1fs" % elapsed
    _ok(3, "600 constructed-exact inputs decided exact in %.1fs" % elapsed)


def _rand_light(rng, mode):
    pool = [y, y + 1, x * y - 1, y + x, x, x + 1]
    den = sp.prod([rng.choice(pool) ** rng.randint(1, 2)
                   for _ in range(rng.randint(1, 2))])
    num = 1 + sum(rng.randint(-9, 9) * x ** i * y ** j
                  for i in range(2) for j in range(2))
    return RatFunc.from_pair(num, den, mode)


def test_criterion_4_reduction_recomposition():
    t0 = time.monotonic()
    n = 100

    rng = random.Random(31)
    for _ in range(n):
        f = _rand_light(rng, P)
        h, terms = hermite_reduce_y(f)
        acc = h.deriv_y()
        for t in terms:
            acc = acc + t.value()
        assert acc == f
        assert all(t.j == 1 for t in terms)  # multiplicity fully peeled

    rng = random.Random(32)
    for _ in range(n):
        f = _rand_light(rng, P)
        h, terms = abramov_reduce_y(f)
        acc = h.shift_y(1) - h
        for t in terms:
            acc = acc + t.value()
        assert acc == f
        dens = [t.den for t in terms]
        for i in range(len(dens)):
            for j in range(i + 1, len(dens)):
                if dens[i] == dens[j]:
                    continue  # same pole at two multiplicities is fine
                if not dens[i].free_of(y) and not dens[j].free_of(y):
                    assert sigma_equivalent(dens[i], dens[j]) is None

    rng = random.Random(33)
    for _ in range(n):
        f = _rand_light(rng, P)
        rf = phi_dy_reduced_form(f, SHIFT_X)
        assert rf.recompose() == f
        dens = [t.den for t in rf.terms]
        for i in range(len(dens)):
            for j in range(i + 1, len(dens)):
                if dens[i] == dens[j]:
                    continue
                assert shift_equivalent(dens[i], dens[j], x) is None

    rng = random.Random(34)
    for _ in range(n):
        f = _rand_light(rng, T)
        rf = tau_sigma_reduced_form(f)
        assert rf.recompose() == f
        dens = [t.den for t in rf.terms]
        for i in range(len(dens)):
            for j in range(i + 1, len(dens)):
                if dens[i] == dens[j]:
                    continue
                assert joint_equivalent(dens[i], dens[j]) is None

    rng = random.Random(35)
    M2 = root_of_unity(2)
    for _ in range(n):
        f = _rand_light(rng, M2)
        g0, c = tau_reduced_root_of_unity(f)
        c = pull_back(c, 2)
        assert g0.qshift_x(1) - g0 + c == f
        assert c.qshift_x(1) == c

    elapsed = time.monotonic() - t0
    assert elapsed < 60, "%.1fs" % elapsed
    _ok(4, "5 x 100 reductions recompose, residuals reduced, %.1fs"
        % elapsed)


def test_criterion_5_residue_commutativity():
    ypool = [y, y + 1, y + 2, 2 * y + 1, y ** 2 + 1, y ** 2 + y + 1]

    def instance(rng, mode):
        d = rng.choice(ypool)
        extra = rng.choice(ypool + [x + y, x * y - 1])
        num = 1 + sum(rng.randint(-9, 9) * x ** i * y ** j
                      for i in range(2) for j in range(2))
        den = d ** rng.randint(1, 2) * extra
        return RatFunc.from_pair(num, den, mode), BiPoly(d, mode)

    rng = random.Random(41)
    for _ in range(50):  # (i) d/dy residue vs shift in x
        f, d = instance(rng, P)
        assert residue_dy(f.shift_x(1), d) == residue_dy(f, d).shift_x(1)

    rng = random.Random(42)
    for _ in range(50):  # (ii) d/dy residue vs q-shift in x
        f, d = instance(rng, T)
        assert residue_dy(f.qshift_x(1), d) == residue_dy(f, d).qshift_x(1)

    rng = random.Random(43)
    for _ in range(50):  # (iii) shift-in-y residue vs q-shift in x
        f, d = instance(rng, T)
        for j in (1, 2):
            assert residue_sigma(f.qshift_x(1), d, j) \
                == residue_sigma(f, d, j).qshift_x(1)

    _ok(5, "150 residue/operator commutation identities hold")


def test_criterion_6_root_of_unity():
    for m in (2, 4):
        M = root_of_unity(m)
        pool = [x * y, x + y, y + 1, x ** 2 * y + 1]
        rng = random.Random(50 + m)
        for k in range(50):
            den = rng.choice(pool)
            num = 1 + sum(rng.randint(-9, 9) * x ** i * y ** j
                          for i in range(2) for j in range(2))
            g = RatFunc.from_pair(num, den, M)
            # [TRIVIAL] the trace annihilates tau-differences
            assert trace_xm(g.qshift_x(1) - g).is_zero
            if k < 5:
                f = g
                g0, c = tau_reduced_root_of_unity(f)
                assert g0.qshift_x(1) - g0 + pull_back(c, m) == f
    M2 = root_of_unity(2)
    # [PAPER] x/y is exact at q = -1; 1/y is not
    d = decide_exact(RatFunc.from_pair(x, y, M2), ROU_DERIV_Y)
    assert d.exact
    assert verify_certificate(RatFunc.from_pair(x, y, M2),
                              *d.certificate, ROU_DERIV_Y)
    assert not decide_exact(RatFunc.from_pair(1, y, M2), ROU_DERIV_Y).exact
    _ok(6, "trace kills tau-differences (m=2,4); m=2 decisions match")


def test_criterion_7_oracle_agreement():
    factors = [x, y, x + y, y + 1, x * y - 1]
    dens = list(factors)
    for i in range(len(factors)):
        for j in range(i, len(factors)):
            dens.append(sp.expand(factors[i] * factors[j]))
    checked = exact_agreed = 0
    for a in (sp.Integer(1), x, y):
        for den in dens:
            f = RatFunc.from_pair(a, den, P)
            found = brute_force_exact(f, SHIFT_X_DERIV_Y)
            dec = decide_exact(f, SHIFT_X_DERIV_Y)
            checked += 1
            if found is not None:  # soundness: oracle hit => exact
                assert dec.exact, f.as_expr()
                assert verify_certificate(f, *found, SHIFT_X_DERIV_Y)
            if dec.exact:  # completeness on the exact subset
                assert found is not None, f.as_expr()
                exact_agreed += 1
    _ok(7, "oracle and decider agree on %d/%d cases (%d exact)"
        % (checked, checked, exact_agreed))


def test_criterion_8_corpus_determinism():
    cases = Path(__file__).resolve().parent.parent / "corpus" / "cases.txt"
    cmd = [sys.executable, "-m", "ratexact.cli", "corpus", str(cases),
           "--json"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == 0, r1.stderr.decode()
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert len(r1.stdout) > 100
    _ok(8, "two corpus runs byte-identical (%d bytes)" % len(r1.stdout))
