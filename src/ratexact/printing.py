"""Canonical string output for rational functions.

The printed form is `(num)/(den)` (or just `num` when the denominator is
1) with both parts expanded, terms in graded-lex order y > x > q, all
multiplications `*` and powers `^` explicit, and integer coefficients
with gcd 1 over every field.  Over Q and Q(q) that is the canonical pair
itself; over a cyclotomic field the pair is lifted to Z[y, x, q] with
the root of unity written as `q`, matching what the parser reads back
(``core._zeta_lift``), and divided by its integer content.  The printed
bytes are a function of the value alone, and printing then parsing is
the identity on rational functions.
"""

from decimal import Decimal
from math import gcd

from .core import RatFunc, _zeta_lift


def _cleared_pair(f: RatFunc):
    """(num, den), integer polynomials with num/den == f whose
    coefficients have gcd 1 and whose denominator has a positive
    graded-lex leading coefficient.  Over Q and Q(q) that is the
    canonical pair up to sign; over Q(zeta_m), m > 2, it is the lift of
    the pair to Z[y, x, q] divided by its integer content."""
    num, den = f.numer, f.denom
    content = 1
    if den.ring.domain.is_Algebraic:
        (num, den), _ = _zeta_lift([num, den])
        content = gcd(*num.itercoeffs(), *den.itercoeffs())
    if _grlex_terms(den)[0][1] < 0:
        content = -content
    if content != 1:
        num, den = num.quo_ground(content), den.quo_ground(content)
    return num, den


def _grlex_terms(p):
    return sorted(p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def _term_str(coeff, mon, gens):
    parts = []
    for g, e in zip(gens, mon):
        if e == 1:
            parts.append(str(g))
        elif e > 1:
            parts.append("%s^%d" % (g, e))
    mag = abs(coeff)
    if not parts or mag != 1:
        # Decimal prints an int of any length; str() stops at 4300 digits
        parts.insert(0, str(Decimal(mag)))
    return coeff < 0, "*".join(parts)


def _poly_str(p):
    terms = _grlex_terms(p)
    if not terms:
        return "0"
    gens = p.ring.symbols
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
    num, den = _cleared_pair(f)
    ns = _poly_str(num)
    if den == 1:
        return ns
    return "(%s)/(%s)" % (ns, _poly_str(den))
