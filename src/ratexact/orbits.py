"""The operators and operator pairs, shift-, q-shift- and joint-orbit
equivalence of polynomials, and the grouping of polynomials into orbits.

Two polynomials are equivalent when an integer power of the relevant
operator maps one onto a scalar multiple of the other.  Every candidate
exponent is recovered deterministically from coefficient structure (no
searching except in the finite root-of-unity case) and decided on the
pair-ring data by cross-multiplication; a witness is verified by one
substitution before it is returned, and only its scale leaves the pair
ring.  The witnesses of ``group_orbits`` are composed from these verified
witnesses and the re-base of each orbit, with no second test.
"""

from dataclasses import dataclass

import sympy as sp

from .core import BiPoly, lead_yx, to_scalar
from .errors import QModeMismatch
from .qmodes import PLAIN, RATIONAL, ROOT_OF_UNITY, TRANSCENDENTAL, x, y


def _ground_ratio(a, b):
    """(la, lb), the leading coefficients in y and x of the pair-ring
    elements a, b != 0, when a*lb == b*la (a == la/lb * b), else None."""
    la, lb = lead_yx(a), lead_yx(b)
    return (la, lb) if a * lb == b * la else None


def _associate(p, p2):
    """s in k with p == s * p2, or None."""
    lead = _ground_ratio(p.numer, p2.numer)
    return lead and to_scalar(lead[0] * p2.denom, lead[1] * p.denom, p.mode)


def _integer_ratio(a, b):
    """The integer a/b for pair-ring elements a, b != 0 free of y and x,
    or None when a/b is not one."""
    dom = a.ring.domain
    if dom.is_Field:  # Q(zeta_m), in the power basis of zeta_m
        c = dom.quo(a.LC, b.LC)
        return (c.LC().numerator if c.is_ground and c.LC().denominator == 1
                else None)
    k, r = divmod(a.LC, b.LC)
    return None if r or a != b * k else k


def _shift_power(a, b, i):
    """The n forced on shift_i^n(a) == c*b, c ground, by the two top
    coefficients in generator i of the pair-ring elements a, b, or None
    when they force none; n is not verified."""
    d = a.degree(i)
    if d != b.degree(i):
        return None
    if d <= 0:
        return 0
    ca = a.coeff_wrt(i, d)
    lead = _ground_ratio(ca, b.coeff_wrt(i, d))
    if lead is None:
        return None
    la, lb = lead
    # shift_i^n(a) == c*b forces c_{d-1}(a) + n*d*c_d(a) == c*c_{d-1}(b),
    # which is la*c_{d-1}(b) - lb*c_{d-1}(a) == n*d*lb*c_d(a)
    r = b.coeff_wrt(i, d - 1) * la - a.coeff_wrt(i, d - 1) * lb
    if not r:
        return 0
    t = _ground_ratio(r, ca * lb)
    t = t and _integer_ratio(*t)
    return None if t is None or t % d else t // d


def shift_equivalent(p: BiPoly, p2: BiPoly, var):
    """(n, scale) with shift_var^n(p) == scale * p2, scale in k, or None.

    Works for var = y (sigma_y-equivalence) and var = x alike.
    """
    n = _shift_power(p.numer, p2.numer, p.numer.ring.symbols.index(var))
    s = None if n is None else _associate(p.shift(var, n) if n else p, p2)
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


def _solve_q_power(n, d, delta, mode):
    """Integer m with q^(m*delta) == n/d, for pair-ring elements n, d != 0
    free of y and x, or None."""
    if mode.kind == TRANSCENDENTAL:  # n/d == q^e, cross-multiplied
        e, Q = n.degree(2) - d.degree(2), n.ring.gens[2]
        if e % delta or n * Q ** max(-e, 0) != d * Q ** max(e, 0):
            return None
        return e // delta
    # over Q and Q(zeta_m) the ratio is one rational or ANP division
    qv, ratio = mode.q_element(), to_scalar(n, d, mode)
    if mode.kind == RATIONAL:
        # q = a/b in lowest terms, |q| != 1: q^k has |a|^|k| over b^|k| for
        # k > 0 and the reverse for k < 0, so k is a count of exact divisions
        a, b = abs(qv.numerator), qv.denominator
        n, d = abs(ratio.numerator), ratio.denominator
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
    return sorted({m[1] for m in p.numer.itermonoms()})


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
        # x-coefficient i of p2 is n_i*p.denom/(d_i*p2.denom) times that
        # of p
        leads = [_ground_ratio(p2.numer.coeff_wrt(1, i),
                               p.numer.coeff_wrt(1, i))
                 for i in sup[:2]]
        if None in leads:
            return None
        (n0, d0), (n1, d1) = leads
        m = _solve_q_power(n1 * d0, d1 * n0, sup[1] - sup[0], mode)
        if m is None:
            return None
    s = _associate(p.qshift_x(m), p2)
    return None if s is None else (m, s)


def joint_equivalent(p: BiPoly, p2: BiPoly):
    """((m, n), scale) with tau_{x,q}^m sigma_y^n(p) == scale * p2, scale
    in k, for the joint (tau_{x,q}, sigma_y)-orbit, or None.

    The sigma-power n is recovered first from the y-structure of an
    x-coefficient, then the tau-power m, and the witness verified, as in
    q_equivalent against sigma_y^-n(p2)."""
    mode = p.mode
    if mode.kind == PLAIN:
        raise QModeMismatch("joint orbit test requires a q-mode")
    sup = _x_support(p)
    if sup != _x_support(p2):
        return None
    n = 0
    for i in reversed(sup):
        ai, ai2 = p.numer.coeff_wrt(1, i), p2.numer.coeff_wrt(1, i)
        if ai.degree(0) != ai2.degree(0):
            return None
        if ai.degree(0) >= 1:
            n = _shift_power(ai, ai2, 0)
            if n is None:
                return None
            break
    res = q_equivalent(p, p2.shift(y, -n))
    return None if res is None else ((res[0], n), res[1])


# -- operators, operator pairs and orbit grouping ---------------------

SHIFT, QSHIFT, DERIV = "shift", "qshift", "deriv"


@dataclass(frozen=True)
class Operator:
    """An operator on k(x, y): the shift var -> var + 1 (kind SHIFT), the
    q-shift x -> q*x (QSHIFT) or d/dy (DERIV)."""

    kind: str
    var: sp.Symbol

    def pow(self, value, n):
        """The n-th power of this shift or q-shift applied to a RatFunc."""
        if self.kind == DERIV:
            raise ValueError("d/dy has no powers")
        if n == 0:
            return value
        if self.kind == QSHIFT:
            return value.qshift_x(n)
        return value.shift(self.var, n)

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


def group_orbits(dens, dx, dy=None):
    """Partition the distinct polynomials of dens into orbits, in order of
    first appearance: orbits of the powers of dx, or with dy = SHIFT_Y of
    the joint (tau_{x,q}, sigma_y) powers.

    Returns [(rep, {den: (offset, scale)})] with op^offset(rep) == scale *
    den, in the shape of dx.equivalent, or of joint_equivalent with
    offset (m, n).  Each orbit is re-based on the canonical form u*rep of
    the translate of its first member by the smallest offsets, so that no
    offset is negative: a member's witness is the one found while
    grouping, its offset less the re-base's and its scale over u."""
    joint = dy == SHIFT_Y
    equiv, zero = (joint_equivalent, (0, 0)) if joint else (dx.equivalent, 0)
    groups = []  # (first member, {member: witness from the first})
    for d in dict.fromkeys(dens):
        for first, members in groups:
            w = equiv(first, d)
            if w is not None:
                members[d] = w
                break
        else:
            groups.append((d, {d: (zero, d.mode.coeff_domain().one)}))
    out = []
    for first, members in groups:
        offsets = [off for off, _ in members.values()]
        if joint:
            m, n = map(min, zip(*offsets))
            u, rep = dy.pow(dx.pow(first, m), n).canonical()
            less = {o: (o[0] - m, o[1] - n) for o in offsets}
        else:
            r = min(offsets)
            u, rep = dx.pow(first, r).canonical()
            less = {o: o - r for o in offsets}
        one = u == first.mode.coeff_domain().one  # no division by 1
        out.append((rep, {d: (less[off], s if one else s / u)
                          for d, (off, s) in members.items()}))
    return out
