"""Canonical string output for rational functions.

The printed form is `(num)/(den)` (or just `num` when the denominator is
1) with both parts expanded, terms in graded-lex order y > x > q, all
multiplications `*` and powers `^` explicit, and integer coefficients
whenever the scalar field permits.  Over a cyclotomic field the root of
unity is printed as `q`, matching what the parser reads back.  Printing
then parsing is the identity on rational functions.
"""

from decimal import Decimal

from sympy import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from .core import RatFunc
from .qmodes import ROOT_OF_UNITY, q, x, y

# Q[y, x, q]: a pair over Q(zeta_m), m > 2, with zeta_m written as q
_LIFT_RING = PolyRing((y, x, q), QQ, lex)


def _lift_root(p):
    """The pair-ring element p over Q(zeta_m) in Q[y, x, q], each
    coefficient read from its power basis in zeta_m."""
    out = _LIFT_RING.zero
    for (j, i), anp in p.items():
        for k, c in enumerate(reversed(anp.to_list())):
            if c:
                out[(j, i, k)] = c
    return out


def _gcd_list(coeffs):
    """sympy's ``gcd_list`` of rational numbers: the running gcd (over Q,
    gcd of the numerators over lcm of the denominators), which stops at
    the first value equal to 1."""
    acc, rest = coeffs[0], coeffs[1:]
    for c in rest:
        acc = QQ.gcd(acc, c)
        if acc == 1:
            break
    return acc


def _cleared_pair(f: RatFunc):
    """(num, den) with the sign, and over Q(zeta_m), m > 2, the scaling
    of the printed form: the denominator's graded-lex leading coefficient
    is positive.

    Over Q and Q(q) the canonical pair already has integer coefficients
    with coprime contents, as it has over Q(zeta_2) = Q.  Over Q(zeta_m),
    m > 2, the lifted pair is divided by the running gcd of its rational
    coefficients (numerator first, each part in lex order), which stops
    at the first value equal to 1, as sympy's ``gcd_list`` does; so a
    printed pair can keep fractions such as `43/2*y*x`.  Those bytes are
    part of the golden corpus output and stay as they are."""
    num, den = f.numer, f.denom
    content = 1
    if f.mode.kind == ROOT_OF_UNITY and f.mode.order > 2:
        num, den = _lift_root(num), _lift_root(den)
        content = _gcd_list(list(num.coeffs() or [QQ.zero]) + den.coeffs())
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
        num, den = Decimal(mag.numerator), Decimal(mag.denominator)
        parts.insert(0, str(num) if den == 1 else "%s/%s" % (num, den))
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
