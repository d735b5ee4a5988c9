"""Irreducible factorization of polynomials in k[x, y].

Factorization is delegated to sympy's multivariate machinery, which is
complete over Q, over Q(q) (by treating q as an extra ring variable, whose
pure-q factors are units), and over Q(zeta_m) via an algebraic extension.
A backend failure is reported as a RatexactError.
"""

from dataclasses import dataclass
from typing import Tuple

import sympy as sp

from .core import BiPoly, to_scalar
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
    the deterministic canonical sort.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    mode, P = p.mode, p.rep
    # over Q(q) the factorization runs in Z[y, x, q], where q-factors are
    # units of Q(q)
    try:
        const, raw = P.factor_list()
    except (sp.PolynomialError, sp.polys.polyerrors.DomainError) as exc:
        raise RatexactError(str(exc)) from exc
    unit = to_scalar(P.ring.ground_new(const), p.w, mode)
    factors = []
    for f, mult in raw:
        u, prim = BiPoly.from_rep(f, mode).canonical()
        unit *= u ** mult
        if not prim.rep.is_ground:
            factors.append((prim, int(mult)))
    return Factorization(unit, _sort_factors(factors))
