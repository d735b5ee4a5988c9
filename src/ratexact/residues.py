"""Partial-fraction decompositions with respect to y and the two residue
notions attached to them.

The plain decomposition writes f as a y-polynomial part plus terms
a/(d^j) over the distinct irreducible y-factors d of the denominator, with
coefficients in k(x).  The sigma decomposition additionally groups the d's
into sigma_y-orbits, indexing each term by its shift offset from the orbit
representative; the orbit-summed, shift-aligned numerator at a fixed
multiplicity is the sigma_y-residue.
"""

from dataclasses import dataclass
from typing import Tuple

from .core import BiPoly, RatFunc, to_y
from .factorization import factor
from .orbits import SHIFT_Y, shift_equivalent
from .qmodes import y


@dataclass(frozen=True)
class PfdTerm:
    """One simple-fraction term a / sigma_y^ell(d)^j.

    The numerator is stored as a rational function whose denominator is
    free of y (an element of k(x)[y] with deg_y < deg_y d).
    """

    num: RatFunc
    den: BiPoly
    j: int
    ell: int = 0

    def shifted_den(self) -> BiPoly:
        return self.den.shift(y, self.ell)

    def value(self) -> RatFunc:
        return self.num / RatFunc(self.shifted_den() ** self.j,
                                  self.num.mode)


@dataclass(frozen=True)
class Decomposition:
    poly_part: RatFunc
    terms: Tuple[PfdTerm, ...]

    def recompose(self) -> RatFunc:
        acc = self.poly_part
        for t in self.terms:
            acc = acc + t.value()
        return acc


def _y_factor_split(den: BiPoly):
    """(scalar, [(d_i, e_i)]) with den = scalar * prod d_i^e_i, the d_i the
    irreducible factors of positive y-degree and scalar in k[x]."""
    fac = factor(den)
    yfactors = [(d, e) for d, e in fac.factors if d.degree(y) >= 1]
    prod = BiPoly.ground(1, den.mode)
    for d, e in yfactors:
        prod = prod * d ** e
    scalar = den.exact_div(prod)
    return scalar, yfactors


def partial_fractions(f: RatFunc) -> Decomposition:
    """Unique irreducible partial-fraction decomposition of f in y over
    k(x)."""
    mode = f.mode
    D = to_y(f.denom, mode)
    if D.degree() <= 0:
        return Decomposition(f, ())
    quo, rem = to_y(f.numer, mode).div(D)
    poly_part = RatFunc.from_y(quo, mode)
    if not rem:
        return Decomposition(poly_part, ())
    scalar, yfactors = _y_factor_split(f.den)
    rem = rem.quo_ground(scalar.y_poly().LC)
    ypolys = [(d.y_poly(), e) for d, e in yfactors]
    terms = []
    for i, (d, e) in enumerate(yfactors):
        Dp = ypolys[i][0]
        De = Dp ** e
        cof = D.ring.one
        for jj, (d2, e2) in enumerate(ypolys):
            if jj != i:
                cof = cof * d2 ** e2
        s, _, h = cof.gcdex(De)
        # h == 1 since the factors are pairwise coprime over k(x)
        cur = (rem * s).rem(De)
        level = 0
        while level < e and cur:
            cur, digit = cur.div(Dp)
            if digit:
                terms.append(PfdTerm(RatFunc.from_y(digit, mode),
                                     d, e - level))
            level += 1
    return Decomposition(poly_part, tuple(terms))


def sigma_decomposition(f: RatFunc) -> Decomposition:
    """Partial fractions with denominators grouped into sigma_y-orbits:
    every term denominator is sigma_y^ell(rep)^j for one of the pairwise
    sigma_y-inequivalent representatives rep."""
    plain = partial_fractions(f)
    terms = []
    for rep, members in SHIFT_Y.orbits(t.den for t in plain.terms):
        for t in plain.terms:
            if t.den in members:
                ell, scale = members[t.den]
                # sigma^ell(rep) = scale * den, so
                # a/den^j = a*scale^j/sigma^ell(rep)^j
                num = t.num.mul_ground(scale ** t.j)
                terms.append(PfdTerm(num, rep, t.j, ell))
    return Decomposition(plain.poly_part, tuple(terms))


def residue_dy(f: RatFunc, d: BiPoly) -> RatFunc:
    """The numerator over the first power of d in the plain decomposition
    (zero when d is not a simple denominator of f)."""
    u, dcan = d.canonical()
    dec = partial_fractions(f)
    for t in dec.terms:
        if t.j == 1 and t.den == dcan:
            return t.num.mul_ground(u)
    return RatFunc(0, f.mode)


def residue_sigma(f: RatFunc, d: BiPoly, j: int) -> RatFunc:
    """Sum of sigma_y^(-ell)(a_ell) over the sigma_y-orbit of d at
    multiplicity j (offsets taken relative to d itself)."""
    mode = f.mode
    u, dcan = d.canonical()
    dec = sigma_decomposition(f)
    acc = RatFunc(0, mode)
    for t in dec.terms:
        if t.j != j:
            continue
        res = shift_equivalent(dcan, t.den, y)
        if res is None:
            continue
        n0, scale0 = res
        # sigma^n0(dcan) = scale0 * rep; term den sigma^ell(rep) = sigma^(ell+n0)(dcan)/scale0
        L = t.ell + n0
        a = t.num.mul_ground((scale0 * u) ** j)
        acc = acc + a.shift_y(-L)
    return acc
