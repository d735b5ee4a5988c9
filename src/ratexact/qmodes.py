"""Coefficient-field configuration.

The ground field k is one of: the rationals (no q in play, or q specialized
to a rational number), the rational function field Q(q) with q transcendental,
or a cyclotomic field Q(zeta_m) when q is a primitive m-th root of unity.
All polynomial and rational-function code is generic over this choice; a
``QMode`` value carries everything needed to build the right sympy domains.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import sympy as sp
from sympy import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from .errors import QModeMismatch

x, y = sp.symbols("x y")
q = sp.Symbol("q")

PLAIN = "plain"
TRANSCENDENTAL = "transcendental"
RATIONAL = "rational"
ROOT_OF_UNITY = "root_of_unity"


def _cache_algebraic_conversions():
    # Converting scalar coefficients into a cyclotomic field re-derives
    # minimal polynomials on every call and dominates runtime there; the
    # result depends only on (domain, expression), so memoize it.
    from sympy.polys.domains.algebraicfield import AlgebraicField

    if getattr(AlgebraicField.from_sympy, "_ratexact_cached", False):
        return
    orig = AlgebraicField.from_sympy

    @lru_cache(maxsize=None)
    def radical_root(cr):
        # quadratic CRootOf -> explicit radical, matched numerically
        p = cr.poly
        if p.degree() != 2 or p.LC() != 1:
            return None
        b, c = p.all_coeffs()[1:]
        disc = sp.sqrt(b * b - 4 * c)
        for cand in ((-b + disc) / 2, (-b - disc) / 2):
            if abs(complex(cand) - complex(cr)) < 1e-9:
                return cand
        return None  # pragma: no cover - one branch always matches

    def quadratic(dom, a):
        # In Q(i), Q(zeta_3) and Q(zeta_6) every element is determined
        # by its real and imaginary parts, so the power-basis
        # representation falls out of as_real_imag() directly instead
        # of going through minimal-polynomial composition.
        mod = [QQ.to_sympy(c) for c in dom.mod.to_list()]
        if len(mod) != 3 or mod[0] != 1 or a.free_symbols:
            return None
        for cr in a.atoms(sp.CRootOf):
            rad = radical_root(cr)
            if rad is None:
                return None
            a = a.subs(cr, rad)
        re, imt = a.as_real_imag()
        # s = sign of Im(ext): the power basis may be built on either
        # conjugate of the quadratic extension
        s = 1 if complex(dom.ext.as_expr()).imag > 0 else -1
        if mod[1:] == [0, 1]:  # z^2 + 1, ext = +-i
            im, rep = imt, lambda r, i: [s * i, r]
        elif mod[1:] == [1, 1]:  # z^2 + z + 1, ext = zeta_3 or conj
            im, rep = imt / sp.sqrt(3), \
                lambda r, i: [2 * s * i, r + s * i]
        elif mod[1:] == [-1, 1]:  # z^2 - z + 1, ext = zeta_6 or conj
            im, rep = imt / sp.sqrt(3), \
                lambda r, i: [2 * s * i, r - s * i]
        else:
            return None
        re, im = sp.cancel(re), sp.cancel(im)
        if not (re.is_Rational and im.is_Rational):
            return None
        return dom.new(rep(re, im))

    @lru_cache(maxsize=8192)
    def cached(dom, a):
        fast = quadratic(dom, a)
        if fast is not None:
            return fast
        return orig(dom, a)

    def from_sympy(self, a):
        try:
            return cached(self, a)
        except TypeError:  # unhashable input; fall through uncached
            return orig(self, a)

    from_sympy._ratexact_cached = True
    AlgebraicField.from_sympy = from_sympy


_cache_algebraic_conversions()


@lru_cache(maxsize=None)
def primitive_root(m):
    """A primitive m-th root of unity as an exact sympy number."""
    if m == 1:
        return sp.Integer(1)
    if m == 2:
        return sp.Integer(-1)
    if m == 4:
        return sp.I
    t = sp.Dummy("t")
    return sp.CRootOf(sp.cyclotomic_poly(m, t), 0)


@dataclass(frozen=True)
class QMode:
    """Which field the coefficients live in, and what q means there.

    kind is one of PLAIN (no q; k = Q), TRANSCENDENTAL (k = Q(q)),
    RATIONAL (q a fixed nonzero rational, k = Q), ROOT_OF_UNITY
    (q = zeta_m, k = Q(zeta_m)).
    """

    kind: str
    value: Optional[sp.Rational] = None
    order: Optional[int] = None

    @property
    def has_q(self):
        return self.kind != PLAIN

    @property
    def q_value(self):
        """The value substituted for q when applying q-shifts."""
        if self.kind == TRANSCENDENTAL:
            return q
        if self.kind == RATIONAL:
            return self.value
        if self.kind == ROOT_OF_UNITY:
            return primitive_root(self.order)
        raise QModeMismatch("no q available in plain mode")

    @property
    def extension(self):
        """Algebraic extension element for sympy's extension= keyword,
        or None when the ground field is Q or Q(q)."""
        if self.kind == ROOT_OF_UNITY and self.order > 2:
            return primitive_root(self.order)
        return None

    @lru_cache(maxsize=None)
    def coeff_domain(self):
        """sympy domain for the ground field k."""
        if self.kind == TRANSCENDENTAL:
            return QQ.frac_field(q)
        ext = self.extension
        if ext is not None:
            return QQ.algebraic_field(ext)
        return QQ

    @lru_cache(maxsize=None)
    def q_element(self):
        """The value of q as an element of coeff_domain()."""
        return self.coeff_domain().convert(self.q_value)

    @lru_cache(maxsize=None)
    def residue_map(self):
        """(p, r) for q = zeta_m: a prime p = 1 mod m and a primitive m-th
        root of unity r mod p.  zeta_m -> r maps the elements of Q(zeta_m)
        with p-integral coordinates onto GF(p) as a ring map, since r is
        a root of the minimal polynomial Phi_m mod p."""
        m = self.order
        p = (2 ** 31 // m) * m + 1
        while not sp.isprime(p):
            p += m
        for a in range(2, p):
            r = pow(a, (p - 1) // m, p)
            if all(pow(r, m // f, p) != 1 for f in sp.primefactors(m)):
                return p, r

    @lru_cache(maxsize=None)
    def poly_ring(self):
        """Sparse ring k[y, x] (lex, y > x) holding BiPoly values."""
        return PolyRing((y, x), self.coeff_domain(), lex)

    @lru_cache(maxsize=None)
    def pair_ring(self):
        """Sparse ring holding RatFunc numerator/denominator pairs.

        This is k[y, x], except over Q(q): there the pair is cleared of
        q-denominators into Q[y, x, q] (lex, y > x > q), so that gcds run
        over Q instead of over a fraction field."""
        if self.kind == TRANSCENDENTAL:
            return PolyRing((y, x, q), QQ, lex)
        return self.poly_ring()

    @lru_cache(maxsize=None)
    def y_ring(self):
        """k(x)[y] for partial fractions in y; k(x) is built on the pair
        ring's ground field and its generators after y (x, or x and q)."""
        pr = self.pair_ring()
        return PolyRing((y,), pr.domain.frac_field(*pr.symbols[1:]), lex)

    def describe(self):
        """Short stable string used in machine-readable output."""
        if self.kind == PLAIN:
            return "none"
        if self.kind == TRANSCENDENTAL:
            return "symbolic"
        if self.kind == RATIONAL:
            return str(self.value)
        return "zeta:%d" % self.order


def plain():
    return QMode(PLAIN)


def transcendental():
    return QMode(TRANSCENDENTAL)


def rational(value):
    """q specialized to a nonzero rational; 1 and -1 re-route to the
    root-of-unity mode they really are."""
    value = sp.Rational(value)
    if value == 0:
        raise QModeMismatch("q must be nonzero")
    if value == 1:
        return root_of_unity(1)
    if value == -1:
        return root_of_unity(2)
    return QMode(RATIONAL, value=value)


def root_of_unity(m):
    m = int(m)
    if m < 1:
        raise QModeMismatch("root-of-unity order must be positive")
    return QMode(ROOT_OF_UNITY, order=m)
