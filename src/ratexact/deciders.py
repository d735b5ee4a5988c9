"""Exactness deciders for the mixed operator pairs, certificate
verification, and a bounded linear-algebra search oracle.

A rational function f is exact for a pair (dx, dy) when f = dx(g) + dy(h)
has a rational solution.  Each decider computes the matching reduced form,
inspects the residual (denominators must be free of x, residues must be
univariately (q-)summable), assembles the full certificate when exact, and
re-verifies it by exact recomposition before returning.
"""

from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

from sympy import QQ, ZZ

from .core import (BiPoly, RatFunc, is_difference, qshift_gen, ring_lcm,
                   shift_gen, yx_coeffs)
from .errors import QModeMismatch, RatexactError
from .orbits import (DERIV, QSHIFT_X_DERIV_Y, QSHIFT_X_SHIFT_Y, ROU_DERIV_Y,
                     ROU_SHIFT_Y, SHIFT, SHIFT_X_DERIV_Y, Pair, group_orbits)
from .qmodes import ROOT_OF_UNITY, TRANSCENDENTAL, x
from .reductions import (phi_dy_reduced_form, pull_back, reduce_y,
                         tau_sigma_reduced_form, tau_reduced_root_of_unity)


def operator_pair(token, mode):
    """Resolve a CLI pair token against the q-mode.

    dx-dy needs no q; dqx-dy and dqx-sy route to the root-of-unity
    deciders when q is a root of unity.
    """
    rou = mode.kind == ROOT_OF_UNITY
    if token == "dx-dy":
        return SHIFT_X_DERIV_Y
    if token == "dqx-dy":
        if not mode.has_q:
            raise QModeMismatch("pair dqx-dy requires a q")
        return ROU_DERIV_Y if rou else QSHIFT_X_DERIV_Y
    if token == "dqx-sy":
        if not mode.has_q:
            raise QModeMismatch("pair dqx-sy requires a q")
        return ROU_SHIFT_Y if rou else QSHIFT_X_SHIFT_Y
    raise ValueError("unknown pair %r" % (token,))


def _checked(pair):
    if not isinstance(pair, Pair):
        raise ValueError("unknown pair %r" % (pair,))
    return pair


@dataclass(frozen=True)
class MixedDenominator:
    """Residual denominator genuinely involving x: never exact."""

    den: BiPoly

    kind = "mixed_denominator"


@dataclass(frozen=True)
class NonSummableResidue:
    """A y-free residual denominator whose residue fails the univariate
    (q-)summability test."""

    den: BiPoly
    j: int
    residue: RatFunc

    kind = "non_summable_residue"


@dataclass(frozen=True)
class Decision:
    exact: bool
    certificate: Optional[Tuple[RatFunc, RatFunc]] = None
    witness: Optional[object] = None
    pair: Optional[Pair] = None


def verify_certificate(f: RatFunc, g: RatFunc, h: RatFunc, pair) -> bool:
    """True iff dx(g) + dy(h) == f by exact rational arithmetic: with
    r = f - dy(h) in canonical form, phi(g) - g == r is checked by cross
    multiplication (``is_difference``)."""
    pair = _checked(pair)
    return is_difference(g, pair.dx.pow(g, 1), f - pair.dy.delta(h))


def _decide_reduced_form(f, pair):
    """The decision read off the pair's reduced form.  Every residual term
    over an x-free denominator whose numerator is summable in x has been
    moved into g, so f is exact iff no residual term is left; the first
    one is the witness."""
    if pair.dy.kind == DERIV:
        rf = phi_dy_reduced_form(f, pair.dx)
    else:
        rf = tau_sigma_reduced_form(f)
    if rf.terms:
        t = rf.terms[0]
        witness = (NonSummableResidue(t.den, t.j, t.num) if t.den.free_of(x)
                   else MixedDenominator(t.den))
        return Decision(False, witness=witness, pair=pair)
    if not verify_certificate(f, rf.g, rf.h, pair):
        raise RatexactError("assembled certificate failed verification")
    return Decision(True, certificate=(rf.g, rf.h), pair=pair)


def _decide_root_of_unity(f: RatFunc, pair) -> Decision:
    """f = tau(g0) - g0 + c(x^m), and c, a function of w = x^m, is
    reduced in y; the terms it leaves are pulled back to x."""
    m = f.mode.order
    g0, c = tau_reduced_root_of_unity(f)
    hw, terms = reduce_y(c, pair.dy)
    if terms:
        t = terms[0]
        return Decision(False,
                        witness=NonSummableResidue(pull_back(t.den, m), t.j,
                                                   pull_back(t.num, m)),
                        pair=pair)
    h = pull_back(hw, m)
    if not verify_certificate(f, g0, h, pair):
        raise RatexactError("root-of-unity certificate failed verification")
    return Decision(True, certificate=(g0, h), pair=pair)


def decide_exact(f: RatFunc, pair) -> Decision:
    """Decide exactness of f for the given operator pair, returning a
    verified certificate or a non-exactness witness."""
    if _checked(pair) not in (ROU_DERIV_Y, ROU_SHIFT_Y):
        return _decide_reduced_form(f, pair)
    if f.mode.kind != ROOT_OF_UNITY:
        raise QModeMismatch("root-of-unity pair requires q = zeta_m")
    return _decide_root_of_unity(f, pair)


# -- bounded brute-force oracle ---------------------------------------

def _hull_candidates(factors, op, R):
    """Candidate denominator factors for one certificate component.

    Factors of the input denominator are grouped into orbits of the
    operator op; for each orbit every translate between the smallest and
    largest occurring offset (clipped to radius R around the orbit's first
    factor) is a candidate, at one above the orbit's largest multiplicity.
    A certificate whose poles stay within radius R of the input's can
    always be rewritten with poles in this hull, since applying the
    operator to any pole produces both the pole and its immediate
    translate.
    """
    mult = dict(factors)
    out = []
    for rep, members in group_orbits(mult, op):
        offsets = [off for off, _ in members.values()]
        first = offsets[0]
        top = max(mult[p] for p in members)
        for t in range(max(0, first - R), min(max(offsets), first + R) + 1):
            _, cand = op.pow(rep, t).canonical()
            out.append((cand, top + 1))
    return out


def _solve_linear(columns, K):
    """Particular solution of the system sum_j x_j*columns[j] ==
    columns[-1], each column a dict of nonzero K-elements by row key, or
    None if it is inconsistent.  The rows go to sympy as the sparse
    dicts they are.  K is mode.coeff_domain(), or Q for a system over
    Q(q) whose columns are polynomials in q times rational vectors
    (``_solve``)."""
    from sympy.polys.matrices import DomainMatrix
    rows = {}
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    ncols = len(columns) - 1
    A = DomainMatrix(dict(enumerate(rows.values())), (len(rows), ncols + 1),
                     K)
    rref, pivots = A.rref()
    if ncols in pivots:
        return None
    sol = [K.zero] * ncols
    last = rref.to_sdm()
    for r, c in enumerate(pivots):
        sol[c] = last[r].get(ncols, K.zero)
    return sol


def _q_times_rational(P):
    """(s, C) with P == s(q)*C(y, x) for an element P of Z[y, x, q]: s as
    a dict of integers by exponent of q, and C as a dict of nonzero
    rationals by (y, x) exponents; None when there is no such split.
    Each (y, x)-coefficient c of P must be a rational multiple of the
    first one, s: c*lc(s) == s*lc(c), compared coefficient by coefficient
    without a gcd.  Zero is 1 times the empty vector."""
    groups = {}
    for m, v in P.items():
        groups.setdefault(m[:2], {})[m[2:]] = v
    if not groups:
        return {(0,): 1}, {}
    (key, s), *others = groups.items()
    lead = s[max(s)]
    C = {key: QQ.one}
    for key, c in others:
        lc = c[max(c)]
        if c.keys() != s.keys() or any(v * lead != s[k] * lc
                                       for k, v in c.items()):
            return None
        C[key] = QQ(lc, lead)
    return s, C


def _solve(columns, mode):
    """``_solve_linear`` for pair-ring columns, over mode.coeff_domain().

    Over Q(q), when every column and the right-hand side is s_j(q) times
    a rational vector C_j (``_q_times_rational``), sum_j z_j*C_j == C_b
    is solved over Q and x_j = z_j*s_b/s_j: the scaling keeps the pivots
    and the particular solution, and rational vectors have the same rank
    over Q and over Q(q).  Any other system is solved over
    mode.coeff_domain() on its (y, x)-coefficients."""
    K = mode.coeff_domain()
    if mode.kind == TRANSCENDENTAL:
        split = []
        for P in columns:
            part = _q_times_rational(P)
            if part is None:
                break
            split.append(part)
        else:
            scales, vectors = zip(*split)
            z = _solve_linear(vectors, QQ)
            if z is None:
                return None
            field = K.field

            def scalar(s):
                return field.field_new(field.ring.from_dict(s, ZZ))
            s_b = scalar(scales[-1])
            return [K.convert(c, QQ) * s_b / scalar(s) if c else K.zero
                    for c, s in zip(z, scales)]
    return _solve_linear([yx_coeffs(P, mode) for P in columns], K)


def _delta_over(op, den, mode, top):
    """(act, E, B) with op.delta(mu/den) == (act(mu)*den - mu*B)/E for
    every pair-ring element mu of x-degree at most top (den's included):
    act = c*phi, E = den*act(den) and B = act(den) for a shift or q-shift
    phi and one nonzero scalar c (the q-shift moves y^j x^i to
    q^i y^j x^i, and c = v^top for q = u/v over Z); act = d/dy, E = den^2
    and B = den_y for d/dy."""
    if op.kind == DERIV:
        y0 = den.ring.gens[0]
        return (lambda mu: mu.diff(y0)), den ** 2, den.diff(y0)
    if op.kind == SHIFT:
        act = partial(shift_gen, i=den.ring.symbols.index(op.var), n=1)
    else:
        # with 1 and x^top beside it, p has no power of q to divide out
        # and is scaled by the same v^top as every other mu
        anchors = (den.ring.one, den.ring.gens[1] ** top)

        def act(p):
            return qshift_gen(1, mode, p, *anchors)[0]
    return act, den * act(den), act(den)


def brute_force_exact(f: RatFunc, pair, R=4, D=4):
    """Search for a certificate with denominators built from operator
    translates (radius R) of the denominator's factors at multiplicity
    one above the input's, and numerators of total degree <= D, by
    solving the resulting linear system exactly.  Independent of the
    theorem-based deciders; returns a verified (g, h) or None.

    The system is fraction-free: over the pair-ring denominator den of g
    (or h), each basis element op.delta(mu/den) is N/E over one E per
    operator (``_delta_over``), and f = dx(g) + dy(h) is multiplied by L,
    the lcm of both E and f's denominator, so no basis element costs a
    gcd.  It is solved over mode.coeff_domain(), Q(q) included; over
    Q(q) it is solved over Q when every column is a polynomial in q times
    a rational vector (``_solve``), with the same certificate.
    """
    from .factorization import factor as factor_poly
    mode = f.mode
    dx, dy = _checked(pair).dx, pair.dy

    den_g = den_h = one = BiPoly.ground(1, mode)
    if not f.den == one:
        factors = factor_poly(f.den).factors
        for cand, mult in _hull_candidates(factors, dx, R):
            den_g = den_g * cand ** mult
        if dy.kind == DERIV:
            for p, e in factors:
                den_h = den_h * p ** (e + 1)
        else:
            for cand, mult in _hull_candidates(factors, dy, R):
                den_h = den_h * cand ** mult

    ring = mode.pair_ring()
    pad = (0,) * (ring.ngens - 2)

    def _monoms(den):
        """Exponents of y^j x^i, i + j <= D + deg(den)."""
        bound = D + max(sum(m[:2]) for m in den.itermonoms())
        return [(j, i) + pad
                for i in range(bound + 1) for j in range(bound + 1 - i)]

    ops, dens = (dx, dy), (den_g.numer, den_h.numer)
    monoms = [_monoms(den) for den in dens]
    overs = [_delta_over(op, den, mode, max(e[1] for e in es))
             for op, den, es in zip(ops, dens, monoms)]
    L = f.denom
    for _, E, _ in overs:
        L = ring_lcm(L, E, mode)
    cleared = []
    for op, den, (act, E, B), es in zip(ops, dens, overs, monoms):
        # the column of mu is (act(mu)*den - mu*B) * L/E; op acts on its
        # variable v alone, so act(mu) = act(v^k) * mu/v^k, and each
        # act(v^k)*den*L/E is formed once
        M = L.exquo(E)
        den_M, B_M = den * M, B * M
        v = ring.symbols.index(op.var)
        acted = [act(ring.gens[v] ** k) * den_M
                 for k in range(max(e[v] for e in es) + 1)]
        cleared += [acted[e[v]].mul_monom(e[:v] + (0,) + e[v + 1:])
                    - B_M.mul_monom(e) for e in es]
    cleared.append(f.numer * L.exquo(f.denom))

    sol = _solve(cleared, mode)
    if sol is None:
        return None
    certificate = []
    for den, es in zip(dens, monoms):
        coeffs, sol = sol[:len(es)], sol[len(es):]
        num = sum((BiPoly.from_ring(ring({e: 1}), ring.one, mode) * c
                   for e, c in zip(es, coeffs) if c),
                  BiPoly.ground(0, mode))
        certificate.append(RatFunc.from_ring(num.numer, num.denom * den,
                                             mode))
    g, h = certificate
    if not verify_certificate(f, g, h, pair):
        raise RatexactError("oracle certificate failed verification")
    return g, h
