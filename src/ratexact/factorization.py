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
   is not constant;
5. a squarefree piece free of q whose coefficients lie in Q splits into
   its factors when each is linear in y or each is linear in x
   (``_linear_split``: a univariate factorization over Z at one large
   evaluation point, every factor checked by exact division).

What is left reaches sympy's multivariate factorization (``factor_list``),
and a backend failure there is reported as a RatexactError.  Over Z,
Wang's algorithm sees a squarefree piece of degree at least 3 in v that
depends on q, or whose factors are not all linear in y and not all
linear in x; over Q(zeta_m), Trager's sees a squarefree piece of degree
at least 2 in v with a coefficient outside Q, or a rational one whose
factors are not all linear in one variable.  Rule 5 also passes on a
piece whose evaluation point does not separate its factors.  Every gcd
goes through ``core.cofactors``, modular over Q(zeta_m).  The factors
are listed in an order read from their pair-ring numerators alone
(``_sort_factors``); it is printed, and it picks the witness among
several residual terms.
"""

from dataclasses import dataclass
from math import isqrt, lcm
from operator import sub
from typing import Tuple

import sympy as sp
from sympy import ZZ
from sympy.polys.factortools import dup_zz_factor

from .core import (BiPoly, cofactors, exponent_map, gcd_all, lead_yx,
                   to_scalar)
from .errors import RatexactError, ZeroPolynomial
from .qmodes import plain


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
    """factors by their numerators P: number of terms, then total degree
    in y and x, then degree in y, lower first, then degree in x, higher
    first, then the terms in the ring's lex order, a coefficient over
    Q(zeta_m) read by its coordinate list."""
    def key(fm):
        P = fm[0].numer
        terms = [(m, c.to_list() if P.ring.domain.is_Algebraic else c)
                 for m, c in P.terms()]
        return (len(terms), max(sum(m[:2]) for m in P.itermonoms()),
                P.degree(0), -P.degree(1), terms)
    return tuple(sorted(factors, key=key))


def factor(p: BiPoly) -> Factorization:
    """Irreducible factorization over the coefficient field.

    Factors are primitive canonical representatives in k[x, y]; mixed
    factors are irreducible in k(x)[y] as well (Gauss). Output order is
    ``_sort_factors``', a function of the factors' values.  The unit is
    lead(P)*prod(w_f^e) / (w*prod(lead(P_f)^e)) for p = P/w and each
    factor P_f/w_f, lead the leading coefficient in y and x.
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
            lin = _linear_split(F)
            if lin is not None:
                found += [(G, e) for G in lin]
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
        g = gcd_all([F.ring.from_dict(r) for r in rows.values()], mode)
        if not g.is_ground:
            return [g, F.exquo(g)]
    return None


def _linear_split(F):
    """The factors of a squarefree F when each is linear in y or each is
    linear in x, and F is free of q with rational coefficients; otherwise
    None.  For F primitive in Z[y, x], F(v, B) is factored in Z[v] at a
    large odd B for the other variable u, and each factor a'*v + b',
    times the content of F(v, B), is read back as a(u)*v + b(u) from its
    balanced base-B digits (Char, Geddes and Gonnet, GCDHEU, 1989).  A
    candidate counts only when it divides what is left of F exactly, and
    the split only when a unit is left, so B decides whether the rule
    succeeds, never what it returns.  A primitive factor linear in v is
    irreducible over every extension of Q."""
    ring = F.ring
    if ring.domain.is_Algebraic:
        cs = {m: c.to_list() for m, c in F.items()}
        if any(len(c) > 1 for c in cs.values()):
            return None
        s = lcm(*(c[0].denominator for c in cs.values()))
        Z = {m: int(c[0] * s) for m, c in cs.items()}
    elif ring.ngens > 2 and F.degree(2):
        return None
    else:
        Z = {m[:2]: c for m, c in F.items()}
    Z = plain().pair_ring().from_dict(Z).primitive()[1]
    B = 2 ** sum(Z.degrees()) * sum(map(abs, Z.itercoeffs())) + 1
    for i in (0, 1):
        image = [0] * (Z.degree(i) + 1)
        for m, c in Z.items():
            image[-1 - m[i]] += c * B ** m[1 - i]
        cont, fs = dup_zz_factor(image, ZZ)
        if any(len(f) != 2 or k != 1 for f, k in fs):
            continue
        rest, out = Z, []
        for f, _ in fs:
            terms = {}
            for e, n in enumerate(reversed(f)):  # e = 0, 1: the powers of v
                n, k = n * cont, 0
                while n:
                    d = (n + B // 2) % B - B // 2
                    if d:
                        terms[(e, k) if i == 0 else (k, e)] = d
                    n, k = (n - d) // B, k + 1
            G = Z.ring.from_dict(terms).primitive()[1]
            rest, r = rest.div(G)
            if r:
                break
            out.append(ring.from_dict(
                {m + (0,) * (ring.ngens - 2): c for m, c in G.items()}, ZZ))
        else:
            if rest.is_ground:
                return out
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
