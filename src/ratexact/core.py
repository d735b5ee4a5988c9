"""Polynomials in k[x,y], rational functions in k(x,y), and the operator
actions (shift, q-shift, y-shift and d/dy).

Values are immutable and stored as sparse sympy ring elements
(``sympy.polys.rings.PolyElement``) of one ring per q-mode,
``QMode.pair_ring``: Z[y, x] for k = Q, Z[y, x, q] for k = Q(q), and
Q(zeta_m)[y, x] for m > 2, so that over Q and Q(q) every product and gcd
runs on integers (sympy's ``_gcd_ZZ``).  A RatFunc holds the canonical
pair (numer, denom) of its value, and a BiPoly is a RatFunc whose denom is
free of y and x.  All arithmetic, cancellation, shifts and derivatives
work on the ring elements, as do the reductions in y (``prem_y``,
``inverse_mod``: y first, fractions over y-free denominators, never
k(x)[y]), and every scalar (an orbit scale, a unit, a power of q) is an
element of ``QMode.coeff_domain()``, moved to and from the pair ring as a
pair by ``from_scalar`` and ``to_scalar``.  A sympy ``Expr`` is read only
as the input of the constructors ``BiPoly(expr, mode)`` and
``RatFunc(expr, mode)``; the ``Expr`` of a value (``.expr``,
``as_expr()``) is built when asked for.  Over Q(zeta_m) every gcd is
modular (``_zeta_gcd``), with sympy's subresultant PRS as its fallback.

Canonical form (lex order y > x, then q): over Q and Q(q) the pair is
coprime in the integer ring, with coprime contents and a positive leading
denominator coefficient, so a BiPoly's denom is a positive integer over Q
and an integer polynomial in q over Q(q); over Q(zeta_m) the denominator
is monic, and a BiPoly's is 1.  ``BiPoly.canonical()`` splits off a unit
so that the primitive part is integer-primitive with positive leading
coefficient over Q and monic in y and x over Q(q) and Q(zeta_m).
``.expr`` renders a BiPoly term by term, each coefficient in y and x an
element of k.
"""

from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

import sympy as sp
from sympy import QQ, ZZ
from sympy.polys.densearith import dup_rem
from sympy.polys.densetools import dup_shift
from sympy.polys.polyutils import expr_from_dict
from sympy.polys.galoistools import (gf_add, gf_eval, gf_gcd, gf_mul,
                                     gf_mul_ground, gf_quo)

from .errors import QModeMismatch, ZeroDenominator
from .qmodes import TRANSCENDENTAL, q, x, y

# -- ring-element helpers ---------------------------------------------

# where the other generators are evaluated in the modular coprimality test
_EVAL_POINT = 1000003


def shift_gen(p, i, n):
    """p with generator i replaced by (generator i) + n (Taylor shift): the
    terms are grouped by their other exponents, and each group's dense
    coefficient list in generator i is shifted by ``dup_shift``."""
    if not n or not p:
        return p
    dom = p.ring.domain
    groups = {}
    for m, c in p.items():
        groups.setdefault(m[:i] + m[i + 1:], {})[m[i]] = c
    a, out = dom(n), {}
    for rest, col in groups.items():
        top = max(col)
        dense = ([col[0]] if not top  # a group free of generator i stays
                 else dup_shift([col.get(e, dom.zero)
                                 for e in range(top, -1, -1)], a, dom))
        for k, c in enumerate(reversed(dense)):
            if c:
                out[rest[:i] + (k,) + rest[i:]] = c
    return p.ring.from_dict(out)


def scale_gen(p, i, c, top=None):
    """p with generator i replaced by c * (generator i), c ground.  With
    top given, c = u/v is a rational number and the result is also
    multiplied by v^top, top at least p's degree in generator i, so that
    an integer polynomial stays one: g^e is scaled by u^e * v^(top - e)."""
    out = p.ring.zero
    powers = {}
    for m, a in p.items():
        e = m[i]
        if e not in powers:
            powers[e] = (c ** e if top is None
                         else c.numerator ** e * c.denominator ** (top - e))
        out[m] = a * powers[e]
    return out


def exponent_map(p, f, ring=None):
    """Element of ring (default: p's ring) with each monomial m of p moved
    to f(m)."""
    out = (ring or p.ring).zero
    for m, c in p.items():
        out[f(m)] = c
    return out


def qshift_gen(n, mode, *polys):
    """The pair-ring elements polys with x -> q^n x, all times one nonzero
    scalar, so that a fraction of two of them keeps its value.  Over Q(q)
    (the ring Z[y, x, q]) they are divided by the largest power q^low (low
    may be negative) that leaves them all polynomials: x^b q^c ->
    x^b q^(c + n*b - low).  Over Q, with q^n = u/v, they are multiplied
    by v^top for top their highest x-degree: x^b is scaled by
    u^b * v^(top - b).  Over Q(zeta_m) each x^b is scaled by zeta^(n*b)."""
    if mode.kind != TRANSCENDENTAL:
        c = mode.q_element() ** n
        if polys[0].ring.domain.is_Field:
            return [scale_gen(p, 1, c) for p in polys]
        top = max(p.degree(1) for p in polys)
        return [scale_gen(p, 1, c, top) for p in polys]
    low = min(m[2] + n * m[1] for p in polys for m in p.itermonoms())
    return [exponent_map(p, lambda m: (m[0], m[1], m[2] + n * m[1] - low))
            for p in polys]


def free_of_gen(p, i):
    return all(m[i] == 0 for m in p.itermonoms())


def _normal(n, d):
    """Canonical scaling of a reduced pair: coprime contents and positive
    leading denominator coefficient over the integers, monic denominator
    over Q(zeta_m)."""
    if not n:
        return n, d.ring.one
    if d.is_one:
        return n, d
    dom = d.ring.domain
    if dom.is_Field:
        u = d.LC
        if u == dom.one:
            return n, d
        u = dom.quo(dom.one, u)  # one inversion, not one per coefficient
        return n.mul_ground(u), d.mul_ground(u)
    g = gcd(*d.itercoeffs(), *n.itercoeffs())
    if d.LC < 0:
        g = -g
    if g != 1:
        n, d = n.quo_ground(g), d.quo_ground(g)
    return n, d


# the prime of the modular coprimality test over Q: 2, 3 and 5 have
# multiplicative order above 10^9 modulo it, so the images of distinct
# q-translates c(q^t x) of a polynomial stay distinct for small rational q
# (modulo 2^31 - 1, 2^t x - 1 and 2^(t+31) x - 1 have the same image)
_PRIME_Q = 2147483587


def _residue_map(p, mode):
    """(prime, lift): lift(c) is the image in GF(prime) of a coefficient c
    of p, or None when c is not prime-integral.  Over Q(zeta_m), zeta_m
    goes to a root of the cyclotomic polynomial mod prime."""
    if not p.ring.domain.is_Field:
        return _PRIME_Q, lambda c: c % _PRIME_Q
    prime, roots = mode.residue_map()
    row = _zeta_matrices(prime, roots)[0][0]

    def lift(c):
        a = _coords(c, prime)
        return None if a is None else sum(map(mul, a, row)) % prime
    return prime, lift


def _coords(c, prime):
    """The coordinates of c in Q(zeta_m) in the power basis, lowest first,
    mod prime; None when one is not prime-integral."""
    out = []
    for b in reversed(c.to_list()):
        n, d = b.numerator, b.denominator
        if d != 1:
            if d % prime == 0:
                return None
            n *= pow(d, -1, prime)
        out.append(n % prime)
    return out


@lru_cache(maxsize=None)
def _zeta_matrices(prime, roots):
    """(V, W) for the phi(m) roots of Phi_m mod prime: V[k][j] =
    roots[k]^j maps coordinates to the images at the roots, and W = V^-1
    mod prime (Gauss-Jordan) maps images back to coordinates."""
    n = len(roots)
    V = [[pow(r, j, prime) for j in range(n)] for r in roots]
    A = [row + [int(i == k) for k in range(n)] for i, row in enumerate(V)]
    for col in range(n):  # the roots are distinct, so V is invertible
        piv = next(i for i in range(col, n) if A[i][col])
        A[col], A[piv] = A[piv], A[col]
        inv = pow(A[col][col], -1, prime)
        A[col] = [a * inv % prime for a in A[col]]
        for i in range(n):
            if i != col and A[i][col]:
                t = A[i][col]
                A[i] = [(a - t * b) % prime for a, b in zip(A[i], A[col])]
    return tuple(map(tuple, V)), tuple(tuple(row[n:]) for row in A)


def _image(p, k, prime, lift):
    """Dense coefficients (highest first) in GF(prime)[t] of the image of
    p under g_k -> t, every other generator -> _EVAL_POINT and each
    coefficient c -> lift(c); None when a coefficient is not
    prime-integral."""
    out = {}
    for mon, c in p.items():
        a = lift(c)
        if a is None:
            return None
        e = mon[k]
        a = a * pow(_EVAL_POINT, sum(mon) - e, prime)
        out[e] = (out.get(e, 0) + a) % prime
    top = max(out)
    dense = [out.get(e, 0) for e in range(top, -1, -1)]
    while dense and not dense[0]:
        dense.pop(0)
    return dense


def _coprime(n, d, mode):
    """True only if n and d have no common factor.

    Scaled to be integral at a prime ideal over p (Gauss's lemma), a
    common factor h of degree e > 0 in one generator maps to a common
    factor of degree e of the images in that generator over GF(p), once
    the image of d keeps d's degree: the leading coefficient of h divides
    d's.  So coprime images in every generator prove n and d coprime; any
    other outcome (False) leaves the question to the exact gcd."""
    prime, lift = _residue_map(d, mode)
    for k in range(d.ring.ngens):
        dn = _image(d, k, prime, lift)
        nn = _image(n, k, prime, lift)
        if dn is None or nn is None or len(dn) - 1 != d.degree(k):
            return False
        if len(gf_gcd(dn, nn, prime, ZZ)) > 1:
            return False
    return True


# -- the modular gcd over Q(zeta_m) -------------------------------------

# primes p = 1 mod m tried before a gcd over Q(zeta_m) falls back to the
# subresultant PRS; each takes about 31 bits of the coefficients
_GCD_PRIMES = 16


def _gf_primitive(A, p):
    """(content, primitive part) of A in GF(p)[u][v] (dense in u, each
    coefficient a dense polynomial in v), the content monic."""
    c = []
    for row in A:
        c = gf_gcd(c, row, p, ZZ)
        if c == [1]:
            return c, A
    return c, [gf_quo(row, c, p, ZZ) for row in A]


def _gf_gcd2(A, B, p):
    """The monic gcd (lex, u > v) of A and B in GF(p)[u][v] by Brown's
    dense algorithm: the contents in v apart, evaluate v, take the gcd in
    u, scale it by gamma, the gcd of the leading coefficients, and
    interpolate in v past the degree bound.  None when the evaluation
    points run out.

    A point at which both leading coefficients stay nonzero gives a gcd
    in u of at least the true degree; a constant one proves the
    primitive parts coprime.  Points of the lowest degree seen are kept,
    so the result is the gcd, or of higher degree in u when every point
    kept was unlucky."""
    ca, A = _gf_primitive(A, p)
    cb, B = _gf_primitive(B, p)
    c = gf_gcd(ca, cb, p, ZZ)
    gamma = gf_gcd(A[0], B[0], p, ZZ)
    bound = len(gamma) + min(max(map(len, A)), max(map(len, B))) - 2
    H, N, deg, v = None, [1], None, 1
    for _ in range(4 * bound + len(A[0]) + len(B[0]) + 16):
        v = v * _EVAL_POINT % p
        if not (gf_eval(A[0], v, p, ZZ) and gf_eval(B[0], v, p, ZZ)):
            continue
        e = gf_gcd([gf_eval(r, v, p, ZZ) for r in A],
                   [gf_eval(r, v, p, ZZ) for r in B], p, ZZ)
        if len(e) == 1:
            return [c]
        if deg is None or len(e) < deg:
            H, N, deg = None, [1], len(e)
        elif len(e) > deg:
            continue
        e = gf_mul_ground(e, gf_eval(gamma, v, p, ZZ), p, ZZ)
        if H is None:
            H = [[a] if a else [] for a in e]
        else:  # Newton: H += N * (e - H(v)) / N(v)
            s = pow(gf_eval(N, v, p, ZZ), -1, p)
            H = [gf_add(h, gf_mul_ground(
                N, (a - gf_eval(h, v, p, ZZ)) * s % p, p, ZZ), p, ZZ)
                 for h, a in zip(H, e)]
        N = gf_mul(N, [1, p - v], p, ZZ)
        if len(N) > bound + 1:
            G = [gf_mul(r, c, p, ZZ) for r in _gf_primitive(H, p)[1]]
            s = pow(G[0][0], -1, p)
            return [gf_mul_ground(r, s, p, ZZ) for r in G]
    return None


def _zeta_images(polys, prime, V):
    """For each root of V, the images of polys in GF(prime)[g0][g1] as
    dense lists; None when prime divides a coefficient's denominator or
    the image of a leading coefficient."""
    out = [[] for _ in V]
    for P in polys:
        terms = [{} for _ in V]
        for mon, c in P.items():
            a = _coords(c, prime)
            if a is None:
                return None
            for t, row in zip(terms, V):
                t[mon] = sum(map(mul, a, row)) % prime
        for t, img in zip(terms, out):
            if not t[P.LM]:
                return None
            top = P.LM[0]
            rows = [{} for _ in range(top + 1)]
            for (i, j), a in t.items():
                if a:
                    rows[top - i][j] = a
            img.append([[r.get(j, 0) for j in range(max(r), -1, -1)]
                        if r else [] for r in rows])
    return out


def _ratrec(u, M):
    """The fraction n/d == u mod M with |n|, d <= sqrt(M/2), or None."""
    bound = isqrt(M // 2)
    r0, r1, t0, t1 = M, u, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if not t1 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return QQ(r1, t1) if t1 > 0 else QQ(-r1, -t1)


def exquo(a, h):
    """a/h when h divides a, else None, for a and h in a two-generator
    ring.  Lex division: each step subtracts c*m*h for the leading term
    of the remainder over h's leading term; h's leading coefficient is
    inverted once (not at all when h is monic), not once per term."""
    lm, dom = h.LM, a.ring.domain
    u = None if h.LC == dom.one else dom.quo(dom.one, h.LC)
    tail = [(m, c) for m, c in h.items() if m != lm]
    r, q = dict(a), {}
    while r:
        m = max(r)
        e = (m[0] - lm[0], m[1] - lm[1])
        if e[0] < 0 or e[1] < 0:
            return None
        c = r.pop(m)
        if u is not None:
            c *= u
        q[e] = c
        for hm, hc in tail:
            k = (hm[0] + e[0], hm[1] + e[1])
            v = r.get(k, dom.zero) - c * hc
            if v:
                r[k] = v
            else:
                r.pop(k, None)
    return a.ring.from_dict(q)


def _zeta_gcd(polys, mode):
    """(h, [P/h for P in polys]) for h the monic gcd (lex) of two or more
    nonzero elements polys of a two-generator ring over Q(zeta_m), or None
    when ``_GCD_PRIMES`` primes give no candidate that divides them all.

    For a prime p = 1 mod m, zeta_m -> r^k at the phi(m) roots of Phi_m
    mod p maps Z[zeta_m]/(p) onto phi(m) copies of GF(p), and the inputs
    onto GF(p)[g0, g1] (Langemyr-McCallum, JSC 1989; Encarnacion, JSC
    1995).  Each image's gcd (``_gf_gcd2``) is a multiple of the image of
    h when p keeps the leading coefficients, so its leading monomial is
    at least h's, and a constant one proves h = 1.  Images with equal
    leading monomials are interpolated in zeta_m, combined over primes
    by CRT (a lower leading monomial starts afresh, a higher one is an
    unlucky prime) and rationally reconstructed.  A candidate that
    divides every input (``exquo``) is then a common divisor whose
    leading monomial is at least h's: it is h."""
    ring = polys[0].ring
    acc, lm, tried = None, None, None
    for i in range(_GCD_PRIMES):
        p, roots = mode.residue_map(i)
        V, W = _zeta_matrices(p, roots)
        gs = _image_gcds(polys, p, V)
        if gs == 1:
            return ring.one, list(polys)
        if gs is None:
            continue
        low = min(max(g) for g in gs)
        if lm is not None and low < lm:
            acc, lm = None, low
        if any(max(g) != low for g in gs) or (lm is not None and low > lm):
            continue  # an unlucky prime
        coords = {}
        for mon in set().union(*gs):
            vals = [g.get(mon, 0) for g in gs]
            coords[mon] = [sum(map(mul, w, vals)) % p for w in W]
        if acc is None:
            acc, M, lm = coords, p, low
        else:  # CRT
            s, zeros = pow(M, -1, p), [0] * len(W)
            acc = {mon: [a + M * ((b - a) * s % p) for a, b in
                         zip(acc.get(mon, zeros), coords.get(mon, zeros))]
                   for mon in acc.keys() | coords.keys()}
            M *= p
        h = _reconstruct(acc, M, ring)
        if h is not None and h != tried:
            tried = h
            quos = [exquo(P, h) for P in polys]
            if None not in quos:
                return h, quos
    return None


def _image_gcds(polys, p, V):
    """The gcd of the images of polys at each root of V, as {monomial:
    coefficient}; 1 when one of them is constant, None when p divides a
    denominator or a leading coefficient or ``_gf_gcd2`` gives up."""
    images = _zeta_images(polys, p, V)
    if images is None:
        return None
    out = []
    for imgs in images:
        g = imgs[0]
        for B in imgs[1:]:
            g = _gf_gcd2(g, B, p)
            if g is None:
                return None
            if g == [[1]]:
                return 1
        top = len(g) - 1
        out.append({(top - k, len(r) - 1 - j): a
                    for k, r in enumerate(g) for j, a in enumerate(r) if a})
    return out


def _reconstruct(acc, M, ring):
    """The element of ring whose coordinates in zeta_m are the fractions
    congruent to acc's modulo M, or None when one has none."""
    h = {}
    for mon, cs in acc.items():
        cs = [_ratrec(a, M) for a in cs]
        if None in cs:
            return None
        h[mon] = ring.domain.new(cs[::-1])
    return ring.from_dict(h)


def cofactors(a, b, mode):
    """(a/h, b/h) for h a gcd of a and b.  A pair with a ground member,
    or whose modular images are coprime, skips the gcd: on a reduced sum
    or product that is the common case, and the gcd's cost grows with
    the size of the coefficients (heuristic gcd over Q).  Over Q(zeta_m)
    the gcd is modular (``_zeta_gcd``), with the subresultant PRS as its
    fallback; over Z it is sympy's, and h carries the gcd of the
    contents."""
    if a.is_ground or b.is_ground or _coprime(a, b, mode):
        return a, b
    if a.ring.domain.is_Algebraic:
        found = _zeta_gcd((a, b), mode)
        if found:
            return tuple(found[1])
    return a.cofactors(b)[1:]


def ring_lcm(a, b, mode):
    """A least common multiple of the pair-ring elements a, b != 0."""
    return a * cofactors(b, a, mode)[0]


def _reduce(n, d, mode):
    """Canonical form of the fraction n/d of pair-ring elements."""
    if not d:
        raise ZeroDenominator("denominator is zero")
    return _normal(*cofactors(n, d, mode))


def yx_coeffs(P, w, mode):
    """{(i, j): c in mode.coeff_domain()} with P/w == sum c*y^i*x^j, for
    pair-ring elements P and w != 0 free of y and x."""
    dom = mode.coeff_domain()
    if mode.kind != TRANSCENDENTAL:
        if P.ring.domain.is_Field:  # Q(zeta_m)
            return dict(P.quo_ground(w.LC).items())
        return {m: dom(c, w.LC) for m, c in P.items()}
    field = dom.field
    groups = {}
    for m, v in P.items():
        groups.setdefault(m[:2], {})[m[2:]] = v
    if w == 1:  # the canonical pair of c/1 only clears c's denominators
        return {m: field.field_new(field.ring.from_dict(c, ZZ))
                for m, c in groups.items()}
    w = w.set_ring(field.ring)
    return {m: field.new(field.ring.from_dict(c, ZZ), w)
            for m, c in groups.items()}


def lead_yx(P):
    """The leading coefficient in y and x of the pair-ring element P != 0."""
    i, j = P.LM[:2]
    return P.coeff_wrt(0, i).coeff_wrt(1, j)


def to_scalar(n, d, mode):
    """n/d in mode.coeff_domain(), for pair-ring elements n, d != 0 free of
    y and x."""
    dom = mode.coeff_domain()
    if mode.kind == TRANSCENDENTAL:
        return dom.field.new(*(p.set_ring(dom.field.ring) for p in (n, d)))
    if n.ring.domain.is_Field:
        return dom.quo(n.LC, d.LC)
    return dom(n.LC, d.LC)


def from_scalar(c, mode):
    """The canonical pair (n, d) of the pair ring, free of y and x, with
    n/d == c for c in mode.coeff_domain(): over Q the numerator and
    denominator of c; over Q(q) those of c with their denominators
    cleared."""
    ring = mode.pair_ring()
    if ring.domain.is_Field:
        return ring.ground_new(c), ring.one
    if mode.kind != TRANSCENDENTAL:
        return ring(c.numerator), ring(c.denominator)
    return _normal(*_cleared(c.numer, c.denom, ring))


def _cleared(n, d, ring):
    """(N, D) in ring with N/D == n/d, for polynomials n and d over the
    field of ring's ground domain, each times the lcm of its
    coefficients' denominators (over Q(zeta_m) as they are)."""
    (cn, n), (cd, d) = n.clear_denoms(), d.clear_denoms()
    return (n * cd).set_ring(ring), (d * cn).set_ring(ring)


def prem_y(p, d):
    """(r, m) with r == m*p modulo d, deg_y r < deg_y d and m a power of
    lc_y(d), for pair-ring elements (y is the first generator)."""
    k = max(p.degree() - d.degree() + 1, 0)
    return p.prem(d), d.coeff_wrt(0, d.degree()) ** k


def _content_y(polys, mode):
    """A gcd of the y-coefficients of the pair-ring elements polys; over
    Q(zeta_m) the modular gcd of all of them at once."""
    cs = (p.coeff_wrt(0, j) for p in polys
          for j in {m[0] for m in p.itermonoms()})
    g = polys[0].ring.zero
    if g.ring.domain.is_Algebraic:
        cs = list(cs)
        found = len(cs) > 1 and _zeta_gcd(cs, mode)
        if found:
            return found[0]
    for c in cs:  # stops at the first ground gcd
        g = g.gcd(c)
        if g.is_ground:
            return g.ring.one
    return g


def inverse_mod(c, P, mode):
    """(s, rho) with s*c == rho modulo P and rho free of y, for c and P
    coprime in k(x)[y]: a pseudo-remainder sequence from (P, c) carrying
    c's cofactor, each step divided by its y-free content."""
    r1, s1 = prem_y(c, P)
    r0, s0 = P, P.ring.zero
    while r1.degree() > 0:
        m = r1.coeff_wrt(0, r1.degree()) ** (r0.degree() - r1.degree() + 1)
        quo, rem = r0.pdiv(r1)  # m*r0 == quo*r1 + rem
        s = s0 * m - quo * s1
        g = _content_y((rem, s), mode)
        r0, s0, r1, s1 = r1, s1, rem.exquo(g), s.exquo(g)
    return s1, r1


def _pair_hash(a, b):
    """A hash of the pair of ring elements (a, b) from their terms.  Not
    ``hash((a, b))``: sympy caches a PolyElement's hash on first use, and
    a quotient that ``div`` or ``exquo`` builds in place keeps the hash
    of zero."""
    return hash((frozenset(a.items()), frozenset(b.items())))


# -- rational functions and polynomials ---------------------------------


def _from_expr(e, mode):
    """The canonical pair of the sympy expression e in x, y and q, with q
    read as mode's q, as the parser reads it."""
    ring = mode.pair_ring()
    field = ring.clone(domain=ring.domain.get_field())
    n, d = sp.fraction(sp.together(sp.sympify(e, strict=True)))
    if q in ring.symbols or not (n.has(q) or d.has(q)):
        n, d = field.from_expr(n), field.from_expr(d)
    else:  # q is a number: read over Q[y, x, q], then evaluated
        qv = mode.q_element()  # QModeMismatch without a q
        qfield = field.clone(symbols=field.symbols + (q,))
        n, d = (qfield.from_expr(p).evaluate(qfield.gens[2], qv)
                .set_ring(field) for p in (n, d))
    return _reduce(*_cleared(n, d, ring), mode)


class RatFunc:
    """A rational function in k(x, y).

    The value is the canonical reduced pair (``numer``, ``denom``) of
    ``mode.pair_ring()`` elements.  Arithmetic cancels with the ring gcd
    and rescales to the canonical form; shifts, q-shifts and swap_xy map
    canonical pairs to canonical pairs without a gcd.  The operations of
    BiPolys give a BiPoly, except ``/`` and negative powers.
    ``num``/``den`` give the pair as BiPolys and ``as_expr()`` as a sympy
    expression."""

    __slots__ = ("numer", "denom", "mode")

    def __init__(self, expr, mode):
        """expr is a RatFunc of mode, an int, or a sympy expression in x,
        y and q, with q read as mode's q."""
        if isinstance(expr, RatFunc):
            if expr.mode != mode:
                raise QModeMismatch("a value of q-mode %s in q-mode %s"
                                    % (expr.mode.describe(), mode.describe()))
            n, d = expr.numer, expr.denom
        elif isinstance(expr, int):  # a canonical pair over 1
            n, d = mode.pair_ring()(expr), mode.pair_ring().one
        else:
            n, d = _from_expr(expr, mode)
        self._init(n, d, mode)

    def _init(self, n, d, mode):
        object.__setattr__(self, "numer", n)
        object.__setattr__(self, "denom", d)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def _new(cls, n, d, mode):
        """Wrap a pair that is already canonical."""
        self = object.__new__(cls)
        self._init(n, d, mode)
        return self

    @classmethod
    def from_ring(cls, n, d, mode):
        """Canonical rational function n/d for pair-ring elements n, d."""
        return cls._new(*_reduce(n, d, mode), mode)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @classmethod
    def from_y(cls, Y, mode):
        """The rational function equal to Y in k(x)[y] (``QMode.y_ring``)."""
        return cls(Y.as_expr(), mode)

    @classmethod
    def from_pair(cls, num, den, mode):
        num, den = RatFunc(num, mode), RatFunc(den, mode)
        if den.is_zero:
            raise ZeroDenominator("denominator is zero")
        return num / den

    @property
    def num(self):
        return BiPoly._new(self.numer, self.numer.ring.one, self.mode)

    @property
    def den(self):
        return BiPoly._new(self.denom, self.denom.ring.one, self.mode)

    def as_expr(self):
        return self.numer.as_expr() / self.denom.as_expr()

    @property
    def is_zero(self):
        return not self.numer

    def is_polynomial(self, *vars_):
        if not vars_:
            vars_ = (x, y)
        symbols = self.denom.ring.symbols
        return all(free_of_gen(self.denom, symbols.index(v)) for v in vars_)

    def free_of(self, var):
        i = self.denom.ring.symbols.index(var)
        return free_of_gen(self.numer, i) and free_of_gen(self.denom, i)

    # -- arithmetic ----------------------------------------------------

    def _lift(self, other):
        """other as a value of self's q-mode: a RatFunc as it is, a scalar
        of mode.coeff_domain() as a constant, anything else read by self's
        class, so that a BiPoly reads only polynomials."""
        if isinstance(other, RatFunc) and other.mode == self.mode:
            return other
        if self.mode.coeff_domain().of_type(other):
            return BiPoly.ground(other, self.mode)
        return type(self)(other, self.mode)

    def _class(self, other):
        """BiPoly when self and other are both BiPolys, else RatFunc."""
        return type(self) if isinstance(other, type(self)) else RatFunc

    def __add__(self, other):
        other = self._lift(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return self._class(other).from_ring(
            self.numer * other.denom + other.numer * self.denom,
            self.denom * other.denom, self.mode)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return type(self)._new(-self.numer, self.denom, self.mode)

    def _times(self, n2, d2, cls):
        """self * n2/d2 as a cls, for a coprime pair n2, d2.  Both pairs
        are coprime, so the gcds run crosswise, of self's numerator with
        d2 and of n2 with self's denominator, and none on the products; a
        ground factor needs none at all."""
        mode = self.mode
        n1, d2 = cofactors(self.numer, d2, mode)
        n2, d1 = cofactors(n2, self.denom, mode)
        return cls._new(*_normal(n1 * n2, d1 * d2), mode)

    def __mul__(self, other):
        other = self._lift(other)
        return self._times(other.numer, other.denom, self._class(other))

    __rmul__ = __mul__

    def mul_ground(self, c):
        """self * c for c in mode.coeff_domain()."""
        return self._times(*from_scalar(c, self.mode), type(self))

    def __truediv__(self, other):
        other = self._lift(other)
        if other.is_zero:
            raise ZeroDenominator("division by zero")
        return self._times(other.denom, other.numer, RatFunc)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n):
        # powers of a reduced pair stay reduced; only the scaling changes
        n = int(n)
        if n < 0:
            return RatFunc(1, self.mode) / self ** -n
        if n == 0:  # 0^0 == 1, as in the parser
            return type(self)(1, self.mode)
        return type(self)._new(*_normal(self.numer ** n, self.denom ** n),
                               self.mode)

    def __eq__(self, other):
        try:
            other = self._lift(other)
        except ValueError:  # not a value of self's class
            return NotImplemented
        return self.numer == other.numer and self.denom == other.denom

    def __hash__(self):
        return _pair_hash(self.numer, self.denom)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.as_expr())

    def swap_xy(self):
        """self with x and y exchanged: a ring automorphism, so the pair
        stays coprime and only its scaling changes."""
        def swap(m):
            return (m[1], m[0]) + m[2:]
        return type(self)._new(*_normal(exponent_map(self.numer, swap),
                                        exponent_map(self.denom, swap)),
                               self.mode)

    # -- operator actions ---------------------------------------------

    def shift(self, var, n):
        """self with var -> var + n: a ring automorphism fixing the
        leading coefficient and the content, so the canonical pair maps
        to a canonical pair."""
        i, n = self.denom.ring.symbols.index(var), int(n)
        return type(self)._new(shift_gen(self.numer, i, n),
                               shift_gen(self.denom, i, n), self.mode)

    def shift_x(self, n=1):
        return self.shift(x, n)

    def shift_y(self, n=1):
        return self.shift(y, n)

    def qshift_x(self, n=1):
        mode = self.mode
        if not mode.has_q:
            raise QModeMismatch("no q available in plain mode")
        # x -> q^n x is an automorphism, so the pair stays coprime and
        # only its scaling changes (over Q(q) only a power of q can become
        # common to both parts, and qshift_gen divides it out)
        return type(self)._new(*_normal(*qshift_gen(int(n), mode, self.numer,
                                                    self.denom)), mode)

    def deriv_y(self):
        n, d = self.numer, self.denom
        return type(self).from_ring(n.diff(n.ring.gens[0]) * d
                                    - n * d.diff(d.ring.gens[0]), d ** 2,
                                    self.mode)


class BiPoly(RatFunc):
    """A polynomial in k[x, y] (either variable may be absent): a RatFunc
    whose denom is free of y and x, a positive integer over Q, an integer
    polynomial in q with positive leading coefficient over Q(q), and 1
    over Q(zeta_m).  ``.expr`` is built from the pair only when asked
    for."""

    __slots__ = ("_expr",)

    def __init__(self, expr, mode):
        super().__init__(expr, mode)  # a denominator such as 2 or q is allowed
        if not self.is_polynomial():
            raise ValueError("%s is not a polynomial" % (expr,))

    # bench/spans.py traces these names in BiPoly.__dict__ (and a class
    # body that binds __eq__ must bind __hash__ as well)
    __add__ = __radd__ = RatFunc.__add__
    __mul__ = __rmul__ = RatFunc.__mul__
    __sub__, __neg__, __pow__, __eq__, __hash__, shift, qshift_x = (
        RatFunc.__sub__, RatFunc.__neg__, RatFunc.__pow__, RatFunc.__eq__,
        RatFunc.__hash__, RatFunc.shift, RatFunc.qshift_x)

    @classmethod
    def ground(cls, c, mode):
        """The constant polynomial c (in mode.coeff_domain(), or an int)."""
        n, d = from_scalar(mode.coeff_domain().convert(c), mode)
        return cls.from_ring(n, d, mode)

    @property
    def expr(self):
        e = getattr(self, "_expr", None)
        if e is None:
            P, w = self.numer, self.denom
            if self.mode.kind == TRANSCENDENTAL:
                coeffs = yx_coeffs(P, w, self.mode)
                e = expr_from_dict({m: c.as_expr() for m, c in coeffs.items()},
                                   y, x)
            elif w.is_one:
                e = P.as_expr()
            else:  # over Q, w an integer
                e = expr_from_dict({m: sp.Rational(c, w.LC)
                                    for m, c in P.items()}, y, x)
            object.__setattr__(self, "_expr", e)
        return e

    def degree(self, var):
        if self.is_zero:
            return -sp.oo
        return self.numer.degree(self.numer.ring.symbols.index(var))

    def coeff_x(self, i):
        """The coefficient of x^i, a polynomial in y."""
        return BiPoly.from_ring(self.numer.coeff_wrt(1, i), self.denom,
                                self.mode)

    # -- canonical normalization --------------------------------------

    def canonical(self):
        """(unit, primitive) with self = unit * primitive; the unit is an
        element of mode.coeff_domain(), one when self is primitive."""
        lead, prim = self.primitive()
        if prim is self:
            return self.mode.coeff_domain().one, self
        return to_scalar(lead, self.denom, self.mode), prim

    def primitive(self):
        """(lead, primitive) with self = lead/denom * primitive, lead a
        pair-ring element free of y and x; primitive is self when lead ==
        denom.  The primitive part is integer-primitive with positive leading
        coefficient over Q and monic in y and x over Q(q) and Q(zeta_m)."""
        P = self.numer
        if self.is_zero:
            return self.denom, self
        if self.mode.coeff_domain() == QQ:
            lead = P.ring(P.content() if P.LC > 0 else -P.content())
        else:
            lead = lead_yx(P)
        return lead, (self if lead == self.denom
                      else BiPoly.from_ring(P, lead, self.mode))


def tree_sum(terms, mode):
    """The canonical sum of the RatFuncs in terms.

    The pairs are added in a balanced tree as they are, (a*d + c*b, b*d),
    or (a + c, b) when the denominators are equal, and the total is
    reduced once at the end, so that no partial sum pays for a gcd."""
    terms = [t for t in terms if not t.is_zero]
    if len(terms) < 2:
        return terms[0] if terms else RatFunc(0, mode)
    pairs = [(t.numer, t.denom) for t in terms]
    while len(pairs) > 1:
        paired = []
        for (a, b), (c, d) in zip(pairs[::2], pairs[1::2]):
            paired.append((a + c, b) if b == d else (a * d + c * b, b * d))
        if len(pairs) % 2:
            paired.append(pairs[-1])
        pairs = paired
    return RatFunc.from_ring(*pairs[0], mode)


@lru_cache(maxsize=None)
def _lift_ring(ring):
    """Z[g0, g1, z] for a two-generator ring over Q(zeta_m), and the
    minimal polynomial Phi_m of zeta_m as a dense list in z."""
    zring = ring.clone(symbols=ring.symbols + (sp.Symbol("z"),), domain=ZZ)
    return zring, [c.numerator for c in ring.domain.mod.to_list()]


def _zeta_lift(polys):
    """The pairs (polys[0], polys[1]), (polys[2], polys[3]), ... over
    Q(zeta_m) in Z[g0, g1, z] with zeta_m -> z, each pair times the lcm
    of its coordinates' denominators, so that every fraction keeps its
    value modulo Phi_m(z); and Phi_m, dense in z."""
    zring, phi = _lift_ring(polys[0].ring)
    out = []
    for pair in zip(polys[::2], polys[1::2]):
        s = lcm(*(b.denominator for p in pair for c in p.itercoeffs()
                  for b in c.to_list()))
        for p in pair:
            terms = {}
            for mon, c in p.items():
                cs = c.to_list()  # highest power of zeta first
                for k, b in enumerate(cs):
                    if b:
                        terms[mon + (len(cs) - 1 - k,)] = (
                            b.numerator * (s // b.denominator))
            out.append(zring.from_dict(terms))
    return out, phi


def _vanishes_mod(p, phi):
    """True iff p in Z[g0, g1, z] is 0 modulo the monic phi in z."""
    cols = {}
    for (i, j, k), c in p.items():
        cols.setdefault((i, j), {})[k] = c
    return not any(dup_rem([col.get(k, 0) for k in range(max(col), -1, -1)],
                           phi, ZZ) for col in cols.values())


def is_difference(g, phi_g, *r):
    """True iff phi_g - g == sum(r), checked on the pairs by the
    polynomial identity (pn*gd - gn*pd)*Rd == Rn*pd*gd, with phi_g =
    pn/pd and Rn/Rd the sum of r, each denominator cleared in turn.
    Every denominator is nonzero, so the identity is exact, and it needs
    no gcd.  Over Q(zeta_m) it is checked in Z[y, x, z] modulo
    Phi_m(z) (``_zeta_lift``): a product of integer polynomials costs
    far less than one of algebraic numbers, each reduced modulo Phi_m."""
    polys = [p for t in (g, phi_g) + r for p in (t.numer, t.denom)]
    phi = None
    if polys[0].ring.domain.is_Algebraic:
        polys, phi = _zeta_lift(polys)
    gn, gd, pn, pd, Rn, Rd, *rs = polys
    for rn, rd in zip(rs[::2], rs[1::2]):
        Rn, Rd = Rn * rd + rn * Rd, Rd * rd
    lhs, rhs = (pn * gd - gn * pd) * Rd, Rn * pd * gd
    return lhs == rhs if phi is None else _vanishes_mod(lhs - rhs, phi)
