"""Irreducible factorization of polynomials in k[x, y].

``factor`` splits the polynomial's pair-ring element (``QMode.pair_ring``)
into pieces, each with a multiplicity, before any factorizer runs:

1. a piece free of y and x is a unit, and a term c*y^a*x^b is y^a*x^b;
   a piece that a term divides, or whose content in y, in x or (over
   Q(q)) in q is not constant, splits into that term or content and the
   primitive part;
2. a piece of degree 1 in v, the one of y and x of lower positive
   degree, is irreducible (it is primitive in v: Gauss);
3. over the integer rings (k = Q or Q(q)) a piece a*v^2 + b*v + c is
   irreducible when b^2 - 4ac is not a square, and otherwise the product
   of the primitive parts in v of 2a*v + b + s and 2a*v + b - s for s^2 =
   b^2 - 4ac (one factor, twice, when s = 0);
4. any other piece F splits into F/g and g for g = gcd(F, dF/dv), when g
   is not constant.

Only a squarefree piece of degree at least 3 in v, or 2 over Q(zeta_m),
reaches sympy's multivariate factorization (``factor_list``: Wang's
algorithm over Z, Trager's over Q(zeta_m)), and a backend failure there
is reported as a RatexactError.  Every gcd goes through ``core.cofactors``,
modular over Q(zeta_m).
"""

from dataclasses import dataclass
from math import isqrt
from operator import sub
from typing import Tuple

import sympy as sp

from .core import BiPoly, cofactors, exponent_map, lead_yx, to_scalar
from .errors import RatexactError, ZeroPolynomial


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor**multiplicity) == the factored polynomial."""

    unit: object  # an element of mode.coeff_domain()
    factors: Tuple[Tuple[BiPoly, int], ...]

    def recompose(self, mode):
        acc = BiPoly.ground(self.unit, mode)
        for f, m in self.factors:
            acc = acc * f ** m
        return acc


def _sort_factors(factors):
    return tuple(sorted(factors, key=lambda fm: sp.default_sort_key(fm[0].expr)))


def factor(p: BiPoly) -> Factorization:
    """Irreducible factorization over the coefficient field.

    Factors are primitive canonical representatives in k[x, y]; mixed
    factors are irreducible in k(x)[y] as well (Gauss). Output order is
    the deterministic canonical sort.  The unit is lead(P)*prod(w_f^e) /
    (w*prod(lead(P_f)^e)) for p = P/w and each factor P_f/w_f, lead the
    leading coefficient in y and x.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    mode, P = p.mode, p.numer
    pieces, found = [(P, 1)], []  # found: irreducible pair-ring elements
    while pieces:
        F, e = pieces.pop()
        degs = (F.degree(0), F.degree(1))
        if not any(degs):
            continue  # a unit
        if len(F) == 1:  # a term c*y^a*x^b
            found += [(g, e * k) for g, k in zip(F.ring.gens, F.LM[:2]) if k]
            continue
        parts = _content_split(F, mode)
        if parts:
            pieces += [(G, e) for G in parts]
            continue
        i = 0 if 0 < degs[0] <= degs[1] or not degs[1] else 1
        if degs[i] == 1:
            found.append((F, e))
        elif degs[i] == 2 and not F.ring.domain.is_Field:
            found += [(G, e * m) for G, m in _quadratic(F, i, mode)]
        else:
            G = cofactors(F, F.diff(F.ring.gens[i]), mode)[0]
            if G.degree(i) < degs[i]:  # F/g for g = gcd(F, dF/dv)
                pieces += [(G, e), (F.exquo(G), e)]
                continue
            try:  # the leaf: a squarefree piece
                found += [(G, e * m) for G, m in F.factor_list()[1]]
            except (sp.PolynomialError,
                    sp.polys.polyerrors.DomainError) as exc:
                raise RatexactError(str(exc)) from exc
    factors = []  # [canonical factor, multiplicity], merged by equality
    for G, e in found:
        prim = BiPoly.from_ring(G, G.ring.one, mode).primitive()[1]
        same = next((fm for fm in factors if fm[0] == prim), None)
        if same:
            same[1] += e
        else:
            factors.append([prim, e])
    num, den = lead_yx(P), p.denom
    for f, e in factors:
        num, den = num * f.denom ** e, den * lead_yx(f.numer) ** e
    return Factorization(to_scalar(num, den, mode),
                         _sort_factors(map(tuple, factors)))


def _content_split(F, mode):
    """[content, primitive part] of F, not a term, for the largest term
    dividing F or else in the first generator whose content is not
    constant; None when there is none."""
    low = tuple(map(min, zip(*F.itermonoms())))
    if any(low):
        return [F.ring({low: 1}),
                exponent_map(F, lambda m: tuple(map(sub, m, low)))]
    for i in range(F.ring.ngens):
        rows = {}
        for m, c in F.items():
            rows.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
        if len(rows) == 1 or min(map(len, rows.values())) == 1:
            continue  # free of generator i, or a coefficient is a term
        cs = sorted((F.ring.from_dict(r) for r in rows.values()), key=len)
        g = cs[0]
        for c in cs[1:]:
            if g.is_ground:
                break
            g = g.exquo(cofactors(g, c, mode)[0])
        if not g.is_ground:
            return [g, F.exquo(g)]
    return None


def _quadratic(F, i, mode):
    """[(factor, multiplicity)] for F = a*v^2 + b*v + c over an integer
    ring, primitive in v = generator i: [(F, 1)] when the discriminant
    is not a square."""
    a, b, c = (F.coeff_wrt(i, k) for k in (2, 1, 0))
    s = _sqrt(b ** 2 - 4 * a * c)
    if s is None:
        return [(F, 1)]
    v = F.ring.gens[i]
    out = []
    for t in ((s, -s) if s else (s,)):
        A, B = cofactors(2 * a, b + t, mode)  # the primitive part in v
        out.append((A * v + B, 1 if s else 2))
    return out


def _sqrt(D):
    """s with s^2 == D for D in an integer ring, or None when there is
    none.  Each term of s is the leading term of D - s^2 over twice the
    leading term of s, and lies within half of D's degree in every
    generator."""
    if not D:
        return D
    lm, lc = D.LT
    r = isqrt(lc) if lc > 0 else 0
    if r * r != lc or any(k % 2 for k in lm):
        return None
    lm = tuple(k // 2 for k in lm)
    top = tuple(k // 2 for k in D.degrees())
    s = D.ring({lm: r})
    rest = D - s ** 2
    while rest:
        m, c = rest.LT
        tm = tuple(a - b for a, b in zip(m, lm))
        tc, odd = divmod(c, 2 * r)
        if odd or not lm > tm or any(not 0 <= a <= b for a, b in zip(tm, top)):
            return None
        t = D.ring({tm: tc})
        rest -= (2 * s + t) * t
        s += t
    return s
