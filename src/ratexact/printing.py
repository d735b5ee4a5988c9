"""Canonical string output for rational functions.

The printed form is `(num)/(den)` (or just `num` when the denominator is
1) with both parts expanded, terms in graded-lex order y > x > q, all
multiplications `*` and powers `^` explicit, and integer coefficients
whenever the scalar field permits.  Over a cyclotomic field the root of
unity is printed as `q`, matching what the parser reads back.  Printing
then parsing is the identity on rational functions.
"""

import sympy as sp
from sympy import QQ

from .core import RatFunc
from .qmodes import ROOT_OF_UNITY, TRANSCENDENTAL, q, x, y

def _rewrite_root(p):
    """The pair-ring element p over Q(zeta_m) as an expression in x and y
    whose coefficients are read from their power basis in zeta_m, with
    zeta_m written as q."""
    acc = sp.Integer(0)
    for (j, i), anp in p.items():
        cs = list(reversed(anp.to_list()))  # power-basis, ascending
        lifted = sum((sp.Rational(c) * q ** k for k, c in enumerate(cs)),
                     sp.Integer(0))
        acc += lifted * x ** i * y ** j
    return acc


def _cleared_pair(f: RatFunc):
    """(num, den) exprs with rational coefficients, jointly scaled so all
    coefficients are integers (over Q and Q(zeta)) or integer polynomials
    in q (over Q(q)), primitive, with the denominator's graded-lex leading
    coefficient positive."""
    mode = f.mode
    if mode.kind == ROOT_OF_UNITY and mode.order > 2:
        num, den = _rewrite_root(f.numer), _rewrite_root(f.denom)
    else:
        num, den = f.num.expr, f.den.expr
    gens = (y, x, q) if mode.has_q else (y, x)
    if mode.kind == TRANSCENDENTAL:
        # clear rational-function-in-q coefficients to polynomials in q
        coeffs = (sp.Poly(num, y, x).coeffs()
                  + sp.Poly(den, y, x).coeffs())
        L = sp.Integer(1)
        for c in coeffs:
            L = sp.lcm(L, sp.fraction(sp.together(c))[1])
        num = sp.expand(sp.cancel(num * L))
        den = sp.expand(sp.cancel(den * L))
    pn = sp.Poly(num, *gens, domain=QQ)
    pd = sp.Poly(den, *gens, domain=QQ)
    content = sp.gcd_list(pn.coeffs() + pd.coeffs())
    if content == 0:
        content = sp.Integer(1)
    if pd.terms(order="grlex") and pd.terms(order="grlex")[0][1] < 0:
        content = -content
    num = sp.expand(pn.as_expr() / content)
    den = sp.expand(pd.as_expr() / content)
    return num, den, gens


def _term_str(coeff, mon, gens):
    parts = []
    c = sp.Rational(coeff)
    mag = abs(c)
    for g, e in zip(gens, mon):
        if e == 1:
            parts.append(str(g))
        elif e > 1:
            parts.append("%s^%d" % (g, e))
    if not parts or mag != 1:
        parts.insert(0, str(mag))
    return c < 0, "*".join(parts)


def _poly_str(expr, gens):
    p = sp.Poly(expr, *gens, domain=QQ)
    terms = p.terms(order="grlex")
    if not terms:
        return "0"
    pieces = []
    for k, (mon, coeff) in enumerate(terms):
        neg, body = _term_str(coeff, mon, gens)
        if k == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


def canonical_str(f: RatFunc) -> str:
    """Deterministic canonical rendering of a rational function."""
    num, den, gens = _cleared_pair(f)
    ns = _poly_str(num, gens)
    if den == 1:
        return ns
    return "(%s)/(%s)" % (ns, _poly_str(den, gens))
