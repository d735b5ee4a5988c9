"""The operators and operator pairs, shift-, q-shift- and joint-orbit
equivalence of polynomials, and the grouping of polynomials into orbits.

Two polynomials are equivalent when an integer power of the relevant
operator maps one onto a scalar multiple of the other.  Every candidate
exponent is recovered deterministically from coefficient structure (no
searching except in the finite root-of-unity case) and every witness is
re-verified by explicit substitution before being returned.
"""

from dataclasses import dataclass

import sympy as sp

from .core import BiPoly, lead_yx, to_scalar
from .errors import QModeMismatch
from .qmodes import PLAIN, RATIONAL, ROOT_OF_UNITY, TRANSCENDENTAL, x, y


@dataclass(frozen=True)
class OrbitWitness:
    """tau_{x,q}^m sigma_y^n (source) == scale * target, scale a nonzero
    element of mode.coeff_domain()."""

    m: int
    n: int
    scale: object


def _ground_ratio(a, b):
    """(la, lb), the leading coefficients in y and x of the pair-ring
    elements a, b != 0, when a*lb == b*la (a == la/lb * b), else None."""
    la, lb = lead_yx(a), lead_yx(b)
    return (la, lb) if a * lb == b * la else None


def _associate(p, p2):
    """s in k with p == s * p2, or None."""
    lead = _ground_ratio(p.rep, p2.rep)
    return lead and to_scalar(lead[0] * p2.w, lead[1] * p.w, p.mode)


def _rational(c, dom):
    """The element c of the ground field dom as a rational number, or None
    when it is not one."""
    if dom.is_QQ:
        return c
    if dom.is_Algebraic:  # Q(zeta_m), in the power basis of zeta_m
        return c.LC() if c.is_ground else None
    if c.numer.is_ground and c.denom.is_ground:  # Q(q)
        return c.numer.LC / c.denom.LC
    return None


def shift_equivalent(p: BiPoly, p2: BiPoly, var):
    """(n, scale) with shift_var^n(p) == scale * p2, scale in k, or None.

    Works for var = y (sigma_y-equivalence) and var = x alike.
    """
    i = p.rep.ring.symbols.index(var)
    a, b = p.rep, p2.rep
    d = a.degree(i)
    if d != b.degree(i):
        return None
    if d <= 0:
        s = _associate(p, p2)
        return None if s is None else (0, s)
    ca = a.coeff_wrt(i, d)
    lead = _ground_ratio(ca, b.coeff_wrt(i, d))
    if lead is None:
        return None
    la, lb = lead
    # shift_var^n(p) == s * p2 forces c_{d-1}(p) + n*d*c_d(p) == s*c_{d-1}(p2),
    # which is la*c_{d-1}(b) - lb*c_{d-1}(a) == n*d*lb*c_d(a) on the reps
    r = b.coeff_wrt(i, d - 1) * la - a.coeff_wrt(i, d - 1) * lb
    n = 0
    if r:
        t = _ground_ratio(r, ca * lb)
        t = t and _rational(to_scalar(*t, p.mode), p.mode.coeff_domain())
        if t is None or t.denominator != 1 or t.numerator % d:
            return None
        n = t.numerator // d
    s = _associate(p.shift(var, n), p2)
    return None if s is None else (n, s)


def sigma_equivalent(p: BiPoly, p2: BiPoly):
    """sigma_y-equivalence: shift equivalence in the y direction."""
    return shift_equivalent(p, p2, y)


def _multiplicity(t, n):
    """The number of times the integer t > 1 divides n != 0 exactly."""
    k = 0
    while n % t == 0:
        n, k = n // t, k + 1
    return k


def _solve_q_power(ratio, delta, mode):
    """Integer m with q^(m*delta) == ratio in the ground field, or None."""
    qv = mode.q_element()
    if mode.kind == TRANSCENDENTAL:
        if len(ratio.numer) != 1 or len(ratio.denom) != 1:
            return None
        e = ratio.numer.degree() - ratio.denom.degree()
        if e % delta or qv ** e != ratio:
            return None
        return e // delta
    if mode.kind == RATIONAL:
        # q = a/b in lowest terms, |q| != 1: q^k has |a|^|k| over b^|k| for
        # k > 0 and the reverse for k < 0, so k is a count of exact divisions
        a, b = abs(qv.numerator), qv.denominator
        n, d = abs(ratio.numerator), ratio.denominator
        if not n:
            return None
        k = (_multiplicity(a, n) - _multiplicity(a, d) if a > 1
             else _multiplicity(b, d) - _multiplicity(b, n))
        if k % delta or qv ** k != ratio:
            return None
        return k // delta
    if mode.kind == ROOT_OF_UNITY:
        for m in range(mode.order):
            if qv ** (m * delta) == ratio:
                return m
        return None
    raise QModeMismatch("q-orbit test requires a q-mode")


def _x_support(p):
    return sorted({m[1] for m in p.rep.itermonoms()})


def q_equivalent(p: BiPoly, p2: BiPoly):
    """(m, scale) with tau_{x,q}^m(p) == scale * p2, scale in k, or None.

    A single-x-support polynomial is its own orbit (tau acts by a scalar);
    the degenerate witness m = 0 is returned when the two are associates.
    """
    mode = p.mode
    if not mode.has_q:
        raise QModeMismatch("q-orbit test requires a q-mode")
    sup = _x_support(p)
    if sup != _x_support(p2):
        return None
    m = 0
    if len(sup) > 1:
        # x-coefficient i of p2 is n_i*p.w/(d_i*p2.w) times that of p
        leads = [_ground_ratio(p2.rep.coeff_wrt(1, i), p.rep.coeff_wrt(1, i))
                 for i in sup[:2]]
        if None in leads:
            return None
        (n0, d0), (n1, d1) = leads
        m = _solve_q_power(to_scalar(n1 * d0, d1 * n0, mode), sup[1] - sup[0],
                           mode)
        if m is None:
            return None
    s = _associate(p.qshift_x(m), p2)
    return None if s is None else (m, s)


def joint_equivalent(p: BiPoly, p2: BiPoly):
    """OrbitWitness for the joint (tau_{x,q}, sigma_y)-orbit, or None.

    The sigma-power n is recovered first from the y-structure of an
    x-coefficient, then the tau-power m as in q_equivalent; the combined
    witness is verified by full substitution.
    """
    mode = p.mode
    if mode.kind == PLAIN:
        raise QModeMismatch("joint orbit test requires a q-mode")
    sup = _x_support(p)
    if sup != _x_support(p2):
        return None
    n = 0
    for i in reversed(sup):
        ai, ai2 = p.coeff_x(i), p2.coeff_x(i)
        if ai.degree(y) != ai2.degree(y):
            return None
        if ai.degree(y) >= 1:
            res = shift_equivalent(ai, ai2, y)
            if res is None:
                return None
            n = res[0]
            break
    res = q_equivalent(p, p2.shift(y, -n))
    if res is None:
        return None
    m, s = res
    if p.qshift_x(m).shift(y, n) == p2 * s:
        return OrbitWitness(m, n, s)
    return None  # pragma: no cover - candidate always verifies or None earlier


# -- operators, operator pairs and orbit grouping ---------------------

SHIFT, QSHIFT, DERIV = "shift", "qshift", "deriv"


@dataclass(frozen=True)
class Operator:
    """An operator on k(x, y): the shift var -> var + 1 (kind SHIFT), the
    q-shift x -> q*x (QSHIFT) or d/dy (DERIV)."""

    kind: str
    var: sp.Symbol

    def pow(self, value, n):
        """The n-th power of this shift or q-shift applied to a RatFunc or
        a BiPoly."""
        if self.kind == DERIV:
            raise ValueError("d/dy has no powers")
        if n == 0:
            return value
        if self.kind == QSHIFT:
            return value.qshift_x(n)
        if isinstance(value, BiPoly):
            return value.shift(self.var, n)
        return value.shift_x(n) if self.var == x else value.shift_y(n)

    def delta(self, f):
        """d/dy(f), or phi(f) - f for this shift or q-shift phi."""
        if self.kind == DERIV:
            return f.deriv_y()
        return self.pow(f, 1) - f

    def equivalent(self, p, p2):
        """(n, scale) with self^n(p) == scale * p2, or None."""
        if self.kind == QSHIFT:
            return q_equivalent(p, p2)
        return shift_equivalent(p, p2, self.var)

    def orbits(self, dens):
        """group_orbits of dens under the powers of this operator."""
        return group_orbits(dens, self.equivalent,
                            lambda p, offsets: self.pow(p, min(offsets)))

    def summable(self, f):
        """The summability test of this x-operator on f, a rational
        function of x over k(y): a SummabilityResult."""
        from .summation import summable
        return summable(f, self)


SHIFT_X = Operator(SHIFT, x)
QSHIFT_X = Operator(QSHIFT, x)
DERIV_Y = Operator(DERIV, y)
SHIFT_Y = Operator(SHIFT, y)


@dataclass(frozen=True)
class Pair:
    """An operator pair: f is exact when f = dx.delta(g) + dy.delta(h).
    name is the pair's name in machine-readable output."""

    dx: Operator
    dy: Operator
    name: str


SHIFT_X_DERIV_Y = Pair(SHIFT_X, DERIV_Y, "shift_x:deriv_y")
QSHIFT_X_DERIV_Y = Pair(QSHIFT_X, DERIV_Y, "qshift_x:deriv_y")
QSHIFT_X_SHIFT_Y = Pair(QSHIFT_X, SHIFT_Y, "qshift_x:shift_y")
# the q-shift pairs with q a root of unity, decided by the trace
ROU_DERIV_Y = Pair(QSHIFT_X, DERIV_Y, "rou:deriv_y")
ROU_SHIFT_Y = Pair(QSHIFT_X, SHIFT_Y, "rou:shift_y")


def group_orbits(dens, equiv, rebase):
    """Partition the distinct polynomials of dens into orbits, in order of
    first appearance.

    equiv(p, p2) is (offset, scale) with op^offset(p) == scale * p2, or
    None off the orbit of p; rebase(p, offsets) is the translate of p by
    the smallest of the offsets.  Each orbit is re-based on the canonical
    form of that translate, so that no offset is negative.  Returns
    [(rep, {den: (offset, scale)})] with op^offset(rep) == scale * den."""
    groups = []  # (members, their offsets from the first member)
    for d in dict.fromkeys(dens):
        for members, offsets in groups:
            w = equiv(members[0], d)
            if w is not None:
                members.append(d)
                offsets.append(w[0])
                break
        else:
            groups.append(([d], [equiv(d, d)[0]]))
    out = []
    for members, offsets in groups:
        _, rep = rebase(members[0], offsets).canonical()
        out.append((rep, {d: equiv(rep, d) for d in members}))
    return out
