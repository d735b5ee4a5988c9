"""Partial-fraction decompositions with respect to y and the two residue
notions attached to them.

The plain decomposition writes f as a y-polynomial part plus terms
a/(d^j) over the distinct irreducible y-factors d of the denominator, with
coefficients in k(x).  It is computed fraction-free: the numerators over
the powers of d are the d-adic digits of the remainder times the inverse
of d's cofactor, taken modulo d alone, with pseudo-remainders in k[x][y]
and one y-free denominator at a time.  The sigma decomposition
additionally groups the d's into sigma_y-orbits, indexing each term by
its shift offset from the orbit representative; the orbit-summed,
shift-aligned numerator at a fixed multiplicity is the sigma_y-residue.
"""

from dataclasses import dataclass
from typing import Tuple

from .core import (BiPoly, RatFunc, free_of_gen, inverse_mod, prem_y,
                   tree_sum)
from .errors import RatexactError
from .factorization import factor
from .orbits import SHIFT_Y, group_orbits, shift_equivalent
from .qmodes import y


@dataclass(frozen=True)
class PfdTerm:
    """One simple-fraction term a / sigma_y^ell(d)^j.

    The numerator is a pair-ring numerator over a y-free denominator, with
    deg_y < deg_y d.
    """

    num: RatFunc
    den: BiPoly
    j: int
    ell: int = 0

    def value(self) -> RatFunc:
        return self.num / self.den.shift(y, self.ell) ** self.j


@dataclass(frozen=True)
class Decomposition:
    poly_part: RatFunc
    terms: Tuple[PfdTerm, ...]

    def recompose(self) -> RatFunc:
        return tree_sum([self.poly_part, *(t.value() for t in self.terms)],
                        self.poly_part.mode)


def partial_fractions(f: RatFunc) -> Decomposition:
    """Unique irreducible partial-fraction decomposition of f in y over
    k(x).

    It runs in the pair ring k[x][y] with pseudo-remainders; every
    fraction it keeps has a y-free denominator.  Past the polynomial part,
    f is rem/(delta*D).  Let d be an irreducible y-factor of multiplicity
    e, held as P = w*d primitive in k[x][y], and D = P^e * cof.  The
    numerators over d^e, ..., d are the d-adic digits of the remainder
    times cof^-1 modulo d^e: each digit is M*cof^-1 mod d for the running
    M/dl (at first rem/delta), and M then becomes (M - digit*cof)/d, a
    division that is exact in k[x][y] since P is primitive.  cof^-1 mod d
    is s/rho with rho free of y, from ``inverse_mod`` (Bronstein, Symbolic
    Integration I, 2.7; Horowitz 1971)."""
    mode = f.mode
    N, D = f.numer, f.denom
    if free_of_gen(D, 0):
        return Decomposition(f, ())
    rem, delta = prem_y(N, D)
    poly_part = RatFunc.from_ring((N * delta - rem).exquo(D), delta, mode)
    if not rem:
        return Decomposition(poly_part, ())
    terms = []
    for d, e in factor(f.den).factors:
        if d.free_of(y):
            continue
        P, w = d.numer, d.denom
        cof = D.exquo(P ** e)
        s, rho = inverse_mod(cof, P, mode)
        M, dl = rem, delta
        for j in range(e, 0, -1):
            r, m1 = prem_y(M, P)
            A, m2 = prem_y(r * s, P)
            beta = rho * m1 * m2  # the digit over P^j is A/(dl*beta)
            if A:
                terms.append(PfdTerm(RatFunc.from_ring(
                    A, dl * beta * w ** j, mode), d, j))
            if j > 1:
                red = RatFunc.from_ring((M * beta - A * cof).exquo(P),
                                        dl * beta, mode)
                M, dl = red.numer, red.denom
                if not M:
                    break
    return Decomposition(poly_part, tuple(terms))


def sigma_decomposition(f: RatFunc) -> Decomposition:
    """Partial fractions with denominators grouped into sigma_y-orbits:
    every term denominator is sigma_y^ell(rep)^j for one of the pairwise
    sigma_y-inequivalent representatives rep."""
    plain = partial_fractions(f)
    orbit = {d: (rep, w) for rep, members in
             group_orbits([t.den for t in plain.terms], SHIFT_Y)
             for d, w in members.items()}
    terms = []
    for t in plain.terms:
        rep, (ell, scale) = orbit[t.den]
        # sigma^ell(rep) = scale * den, so a/den^j = a*scale^j/sigma^ell(rep)^j
        terms.append(PfdTerm(t.num.mul_ground(scale ** t.j), rep, t.j, ell))
    return Decomposition(plain.poly_part, tuple(terms))


def _irreducible_y(d: BiPoly):
    """(u, P) for d = u*c*P with u a scalar, c a polynomial in x (and q)
    and P an irreducible canonical factor of positive degree in y; a
    RatexactError when d has no such form."""
    fac = factor(d)
    mixed = [fm for fm in fac.factors if not fm[0].free_of(y)]
    if len(mixed) != 1 or mixed[0][1] != 1:
        raise RatexactError("a residue needs a polynomial irreducible in "
                            "k(x)[y], of positive degree in y")
    return fac.unit, mixed[0][0]


def residue_dy(f: RatFunc, d: BiPoly) -> RatFunc:
    """The numerator over the first power of d in the plain decomposition
    (zero when d is not a simple denominator of f).  A factor of d that
    is a polynomial in x is dropped, and a scalar factor scales the
    residue."""
    u, dcan = _irreducible_y(d)
    return next((t.num.mul_ground(u) for t in partial_fractions(f).terms
                 if t.j == 1 and t.den == dcan), RatFunc(0, f.mode))


def residue_sigma(f: RatFunc, d: BiPoly, j: int) -> RatFunc:
    """Sum of sigma_y^(-ell)(a_ell) over the sigma_y-orbit of d at
    multiplicity j (offsets taken relative to d itself, with d's factors
    dropped and scaled as in ``residue_dy``)."""
    u, dcan = _irreducible_y(d)
    parts = []
    for t in sigma_decomposition(f).terms:
        res = shift_equivalent(dcan, t.den, y) if t.j == j else None
        if res is not None:
            # sigma^n0(dcan) = scale0 * rep, so the term's denominator
            # sigma^ell(rep) is sigma^(ell+n0)(dcan)/scale0
            n0, scale0 = res
            parts.append(t.num.mul_ground((scale0 * u) ** j)
                         .shift_y(-t.ell - n0))
    return tree_sum(parts, f.mode)
