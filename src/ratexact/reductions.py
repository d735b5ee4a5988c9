"""Constructive reductions: Ostrogradsky-Hermite in y, one Abramov
reduction for the y-shift, the x-shift and the x-q-shift, orbit collapse
onto a representative denominator, the mixed reduced form of an operator
pair, and the root-of-unity trace reduction.

Every routine returns certificates alongside residuals and is validated by
exact recomposition; nothing here is numeric.  The reductions keep every
fraction of partial fractions over a denominator free of the operator's
variable.  One loop, ``_collapse``, serves the Abramov reduction and the
mixed reduced forms: it groups the poles with ``group_orbits`` and
collapses each onto its orbit's representative with ``orbit_collapse``,
the one routine that telescopes along an orbit.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import lcm, prod
from typing import Tuple

from .core import (BiPoly, RatFunc, cofactors, exponent_map, inverse_mod,
                   is_difference, prem_y, qshift_gen, tree_sum)
from .errors import QModeMismatch, RatexactError
from .orbits import (DERIV, QSHIFT, QSHIFT_X_DERIV_Y, QSHIFT_X_SHIFT_Y,
                     SHIFT_X, SHIFT_X_DERIV_Y, SHIFT_Y, Pair, group_orbits)
from .qmodes import ROOT_OF_UNITY, x
from .residues import PfdTerm, partial_fractions


# the longest orbit that orbit_collapse telescopes: the q = 2 distance
# 128 decides in about 2 s, and 160 takes 5.5 s, since a distance-k
# certificate has coefficients of about k^2/2 bits
MAX_ORBIT_DISTANCE = 128


@dataclass(frozen=True)
class ReducedForm:
    """f == dx(g) + dy(h) + sum(terms) for the operator pair (dx, dy)."""

    g: RatFunc
    h: RatFunc
    terms: Tuple[PfdTerm, ...]
    pair: Pair

    def residual(self) -> RatFunc:
        return tree_sum([t.value() for t in self.terms], self.g.mode)

    def recompose(self) -> RatFunc:
        return (self.pair.dx.delta(self.g) + self.pair.dy.delta(self.h)
                + self.residual())


def hermite_reduce_y(f: RatFunc):
    """(h, terms): f = Dy(h) + sum of simple fractions a/d in y.  Each
    irreducible y-factor d of multiplicity e, held as P = w*d primitive in
    k[x][y], is lowered from P^e to P by Hermite's Bezout step modulo P
    (Bronstein, Symbolic Integration I, 2.2): with s*P' == rho and
    T == a*s/rho modulo P and S = (a - T*P')/P, a/P^j equals
    Dy(-T/((j-1)*P^(j-1))) + (S + T'/(j-1))/P^(j-1).  Numerators stay over
    y-free denominators, each level is reduced once, and h is summed
    times Q = prod P^(e-1), then divided by Q once.  The polynomial part's
    integral is taken over one integer denominator s, the lcm of its
    exponents."""
    mode = f.mode
    dec = partial_fractions(f)
    N, ring = dec.poly_part.numer, f.numer.ring
    Y = ring.gens[0]
    poles = [(d, (d.numer, d.denom), {t.j: t.num for t in group})
             for d, group in groupby(dec.terms, key=lambda t: t.den)]
    Q = prod((P ** (max(digits) - 1) for _, (P, _), digits in poles),
             start=ring.one)
    s = lcm(*(m[0] + 1 for m in N.itermonoms()))
    integral = ring.from_dict({(m[0] + 1,) + m[1:]: c * (s // (m[0] + 1))
                               for m, c in N.items()})
    parts = [RatFunc.from_ring(integral * Q, dec.poly_part.denom * s, mode)]
    entries = []
    for d, (P, w), digits in poles:
        e = max(digits)
        if e > 1:
            dP = P.diff(Y)
            s, rho = inverse_mod(dP, P, mode)
            cof = Q.exquo(P ** (e - 1))
        X, Z = ring.zero, ring.one  # the numerator X/Z over P^j
        for j in range(e, 0, -1):
            if j in digits:
                a = digits[j]
                X, Z = X * a.denom + a.numer * w ** j * Z, Z * a.denom
            a = RatFunc.from_ring(X, Z, mode)
            if j == 1:
                break
            T, m = prem_y(a.numer * s, P)
            S = (a.numer * rho * m - T * dP).exquo(P)
            Z = a.denom * rho * m * (j - 1)
            parts.append(RatFunc.from_ring(-T * cof * P ** (e - j), Z, mode))
            X = S * (j - 1) + T.diff(Y)
        entries.append(PfdTerm(RatFunc.from_ring(a.numer, a.denom * w, mode),
                               d, 1))
    hQ = tree_sum(parts, mode)
    return (RatFunc.from_ring(hQ.numer, hQ.denom * Q, mode),
            _collect_terms(entries, mode))


def discrete_antiderivative(p: RatFunc) -> RatFunc:
    """P with P(y+1) - P(y) == p and P(0) == 0, for p polynomial in y: the
    y-coefficients of p's numerator go to the falling-factorial basis by
    synthetic division by y, y-1, ...; digit k over k+1 is P's digit k+1,
    and P is rebuilt by Horner in Newton form (Gerhard, LNCS 3218, ch. 4),
    times s = lcm(1, ..., n + 1), the one denominator of its digits."""
    N, n = p.numer, p.numer.degree()
    dom, s = N.ring.domain, lcm(*range(1, max(n, 0) + 2))
    cols = {}  # per monomial in x (and q): y-coefficients, highest first
    for m, c in N.items():
        cols.setdefault(m[1:], [dom.zero] * (n + 1))[-1 - m[0]] = c
    out = N.ring.zero
    for rest, col in cols.items():
        digits = []
        for k in range(len(col)):  # divide by y - k
            for i in range(1, len(col)):
                col[i] += col[i - 1] * k
            digits.append(col.pop())
        big = [dom.zero]  # P's y-coefficients, lowest first
        for k in range(len(digits) - 1, -1, -1):
            big[0] += digits[k] * (s // (k + 1))
            big = [a - b * k
                   for a, b in zip([dom.zero] + big, big + [dom.zero])]
        out.update(((j,) + rest, c) for j, c in enumerate(big) if c)
    return RatFunc.from_ring(out, p.denom * s, p.mode)


def _check_qshift(op, mode, what):
    """QModeMismatch when op is the q-shift and mode has no q, or q is a
    root of unity."""
    if op.kind != QSHIFT:
        return
    if not mode.has_q:
        raise QModeMismatch("%s requires a q" % what)
    if mode.kind == ROOT_OF_UNITY:
        raise QModeMismatch("%s requires q not a root of unity" % what)


def abramov_reduce(f: RatFunc, op):
    """(g, terms): f = op(g) - g + sum a/(d^j) with the d's in distinct
    op-orbits, for op = SHIFT_Y, SHIFT_X or QSHIFT_X; terms vanish iff f
    is op-summable (Abramov 1975; for the q-shift Chen-Singer, Adv. Appl.
    Math. 2012).

    Partial fractions run in op's variable, held as y (x and y are
    exchanged for an x-operator, and the terms exchanged back).  A shift
    sends the polynomial part to its discrete antiderivative; for the
    q-shift, x^j == delta_q(x^j/(q^j - 1)) for j != 0, the poles at x = 0
    likewise, and the x^0 term is left as a term over 1.  Every other
    pole is collapsed onto its orbit's representative by ``_collapse``."""
    mode = f.mode
    _check_qshift(op, mode, "q-summability")

    def back(v):  # v with op's variable put back in place
        return v.swap_xy() if op.var == x else v
    dec = partial_fractions(back(f))
    parts, head, poles = [], [], []
    if op.kind == QSHIFT:
        ring, qv = mode.pair_ring(), mode.q_element()
        X = RatFunc.from_ring(ring.gens[1], ring.one, mode)

        def power(j):  # delta_q(x^j / (q^j - 1)) = x^j
            return (X ** j).mul_ground(1 / (qv ** j - 1))
        N, W = dec.poly_part.numer, dec.poly_part.denom
        for j in sorted({m[0] for m in N.itermonoms()}):
            c = back(RatFunc.from_ring(N.coeff_wrt(0, j), W, mode))
            if j:
                parts.append(c * power(j))
            else:
                head.append(PfdTerm(c, BiPoly.ground(1, mode), 0))
    else:
        parts.append(back(discrete_antiderivative(dec.poly_part)))
    for t in dec.terms:
        d, a = back(t.den), back(t.num)
        if op.kind == QSHIFT and d == X.num:
            parts.append(a * power(-t.j))
        else:
            poles.append(PfdTerm(a, d, t.j))
    us, _, terms = _collapse(poles, op, None, mode)
    return tree_sum(parts + us, mode), tuple(head) + terms


def abramov_reduce_y(f: RatFunc):
    """(h, terms): f = (sigma_y - 1)(h) + sum a/(d^j) with the d's in
    distinct sigma_y-orbits; terms vanish iff f is sigma_y-summable."""
    return abramov_reduce(f, SHIFT_Y)


def _collect_terms(entries, mode):
    """The PfdTerms of entries with the numerators of equal (den, j)
    summed by one tree sum each, in order of first appearance; a zero sum
    is dropped."""
    groups = {}
    for t in entries:
        groups.setdefault((t.den, t.j), []).append(t.num)
    terms = (PfdTerm(tree_sum(ns, mode), d, j)
             for (d, j), ns in groups.items())
    return tuple(t for t in terms if not t.num.is_zero)


def orbit_collapse(a: RatFunc, d, j: int, m: int, n: int, phi1, phi2):
    """Telescoping reduction of a/(phi1^m phi2^n(d^j)) onto the orbit
    representative d:

        a/phi1^m phi2^n(d^j) = phi1(u) - u + phi2(v) - v + collapsed

    for commuting shift Operators phi1, phi2 and m, n >= 0.
    """
    if m < 0 or n < 0:
        raise ValueError("offsets must be nonnegative (re-base the orbit)")
    if m + n > MAX_ORBIT_DISTANCE:
        raise RatexactError("orbit distance %d exceeds the ceiling %d"
                            % (m + n, MAX_ORBIT_DISTANCE))
    mode = a.mode
    dj = d ** j
    djn = phi2.pow(dj, n)
    u = tree_sum([phi1.pow(a, t - m) / phi1.pow(djn, t) for t in range(m)],
                 mode)
    am = phi1.pow(a, -m)
    v = tree_sum([phi2.pow(am, k - n) / phi2.pow(dj, k) for k in range(n)],
                 mode)
    collapsed = PfdTerm(phi2.pow(am, -n), d, j)
    return u, v, collapsed


def _collapse(poles, dx, dy, mode):
    """(us, vs, terms): each PfdTerm a/d^j of poles collapsed by
    ``orbit_collapse`` onto the representative of d's orbit under dx, or
    under (dx, sigma_y) when dy is SHIFT_Y (``group_orbits``), so that the
    poles sum to sum(dx(u) - u) + sum(sigma_y(v) - v) + sum(terms).  The
    terms are collected per (rep, j), orbit by orbit."""
    groups = group_orbits([t.den for t in poles], dx, dy)
    orbit = {d: (k, rep, w) for k, (rep, members) in enumerate(groups)
             for d, w in members.items()}
    us, vs, entries = [], [], []
    for t in sorted(poles, key=lambda t: orbit[t.den][0]):
        _, rep, (off, scale) = orbit[t.den]
        m, n = off if dy == SHIFT_Y else (off, 0)
        u, v, collapsed = orbit_collapse(t.num.mul_ground(scale ** t.j), rep,
                                         t.j, m, n, dx, SHIFT_Y)
        us.append(u)
        vs.append(v)
        entries.append(collapsed)
    return us, vs, _collect_terms(entries, mode)


def _absorb_summable(terms, dx):
    """Split residual terms over x-free denominators whose numerators
    are summable in x into an extra dx-difference part.

    Such a term a/d^j equals phi(b/d^j) - b/d^j for dx(b) == a, because
    phi fixes d; moving it out makes the residual vanish on every pure
    difference.  a is a polynomial in y over a y-free denominator, so it
    is summable iff each y-coefficient is, and one summability test over
    k(y) gives b."""
    extra, rest = [], []
    for t in terms:
        b = dx.summable(t.num).certificate if t.den.free_of(x) else None
        if b is None:
            rest.append(t)
        else:
            extra.append(b / t.den ** t.j)
    return extra, tuple(rest)


def reduce_y(f: RatFunc, dy):
    """(h, terms) with f = dy(h) + sum of terms: Hermite reduction for
    d/dy, Abramov reduction for the y-shift."""
    return hermite_reduce_y(f) if dy.kind == DERIV else abramov_reduce_y(f)


def _reduced_form(f: RatFunc, pair) -> ReducedForm:
    """Reduction in y, then collapse of the residual denominators onto
    orbit representatives: x-orbits for d/dy, joint (tau_{x,q},
    sigma_y)-orbits for the y-shift.  Residual terms whose numerators are
    summable in x move into g."""
    mode = f.mode
    dx, dy = pair.dx, pair.dy
    _check_qshift(dx, mode, "q-shift reduced form")
    h, terms = reduce_y(f, dy)
    us, vs, residues = _collapse(terms, dx, dy, mode)
    extra, rest = _absorb_summable(residues, dx)
    return ReducedForm(tree_sum(us + extra, mode), tree_sum([h] + vs, mode),
                       rest, pair)


def phi_dy_reduced_form(f: RatFunc, phi=SHIFT_X) -> ReducedForm:
    """The reduced form for (phi, d/dy), phi = SHIFT_X or QSHIFT_X."""
    return _reduced_form(f, SHIFT_X_DERIV_Y if phi == SHIFT_X
                         else QSHIFT_X_DERIV_Y)


def tau_sigma_reduced_form(f: RatFunc) -> ReducedForm:
    """The reduced form for (tau_{x,q}, sigma_y)."""
    return _reduced_form(f, QSHIFT_X_SHIFT_Y)


def _tau_split(f: RatFunc):
    """(L, P0, P1) for q = zeta_m: a tau-invariant common denominator L
    of the m conjugates tau^i(f) and the numerator P0 + P1 = N * (L / D)
    of f = N/D over L, where P0 holds the monomials whose x-degree is
    divisible by m and P1 the rest.

    tau^i(P0 + P1) / L is then the i-th conjugate, so the conjugates are
    summed and averaged monomial by monomial, without a gcd."""
    mode = f.mode
    if mode.kind != ROOT_OF_UNITY:
        raise QModeMismatch("trace requires q a root of unity")
    m, ring = mode.order, f.denom.ring
    D = f.denom
    # L = D*M, the lcm of the conjugates tau^i(D): one gcd against each
    # in turn
    L, M = D, ring.one
    for i in range(1, m):
        c = cofactors(L, qshift_gen(i, mode, D)[0], mode)[1]
        L, M = L * c, M * c
    # tau permutes the conjugates, so tau(L) = zeta^s * L, and every
    # x-degree of L is s mod m; s != 0 only when x divides D
    s = L.degree(1) % m
    if s:
        c = ring.gens[1] ** (m - s)
        L, M = L * c, M * c
    P = f.numer * M
    P0, P1 = ring.zero, ring.zero
    for mon, c in P.items():
        (P1 if mon[1] % m else P0)[mon] = c
    return L, P0, P1


def to_w(p, m):
    """p in k[y, x^m] as a polynomial in w = x^m, with x standing for w."""
    return exponent_map(p, lambda e: (e[0], e[1] // m))


def from_w(p, m):
    """p with w = x^m put back for x."""
    return exponent_map(p, lambda e: (e[0], e[1] * m))


def pull_back(r: RatFunc, m: int) -> RatFunc:
    """r with w = x^m put back for x.  x^m -> w keeps a pair coprime and
    its lex scaling both ways, so a canonical pair stays canonical."""
    return type(r)._new(from_w(r.numer, m), from_w(r.denom, m), r.mode)


def _invariant(P, L, m, mode):
    """The canonical P/L in w = x^m, with x standing for w, for P and L in
    k[y, x^m]: the gcd runs on 1/m of the x-degree."""
    return RatFunc.from_ring(to_w(P, m), to_w(L, m), mode)


def trace_xm(f: RatFunc) -> RatFunc:
    """Sum of the m q-shift conjugates of f when q is a primitive m-th
    root of unity; the result is tau-invariant.

    Over the invariant denominator L of ``_tau_split`` the conjugates of
    a monomial x^b sum to m x^b when m divides b and to 0 otherwise, so
    the trace is m * P0 / L."""
    L, P0, _ = _tau_split(f)
    m = f.mode.order
    return pull_back(_invariant(P0.mul_ground(m), L, m, f.mode), m)


@lru_cache(maxsize=None)
def _average_weights(mode):
    """(s, (None, s/(zeta - 1), ..., s/(zeta^(m-1) - 1))) for q = zeta_m,
    the weights in the pair ring's ground domain: s = 2 for m = 2 (zeta =
    -1 over Z), and 1 otherwise."""
    dom, z = mode.coeff_domain(), mode.q_element()
    s = 2 if mode.order == 2 else 1
    ground = mode.pair_ring().domain
    return s, (None,) + tuple(
        ground.convert(dom.quo(dom.convert(s), z ** r - dom.one))
        for r in range(1, mode.order))


def tau_reduced_root_of_unity(f: RatFunc):
    """(g, c) for q = zeta_m with f = tau(g) - g + c(x^m): c(x^m) is
    tau-invariant (= trace/m), and c is returned in w = x^m, with x
    standing for w (``pull_back`` gives c(x^m)); f is tau-summable iff
    c = 0.  The certificate is the explicit averaging g = (1/m)
    sum_{i=1}^{m-1} i * tau^i(f - c(x^m)), re-verified before return.

    With f = (P0 + P1)/L as in ``_tau_split``, c(x^m) = P0/L.  For z^m = 1,
    z != 1, (1/m) sum_{i=1}^{m-1} i z^i = 1/(z - 1), so the average
    divides each monomial x^b of P1 by zeta^(b mod m) - 1."""
    mode = f.mode
    L, P0, P1 = _tau_split(f)
    m = mode.order
    s, inv = _average_weights(mode)
    G = L.ring.zero
    for mon, a in P1.items():
        G[mon] = a * inv[mon[1] % m]
    c = _invariant(P0, L, m, mode)
    g = RatFunc.from_ring(G, L * s, mode)
    if not is_difference(g, g.qshift_x(1), f,
                         -pull_back(c, m)):  # pragma: no cover
        raise RatexactError("root-of-unity reduction failed to recompose")
    return g, c
