"""Answer checks made apart from ratexact.

A printed certificate (g, h) is read back with sympy and the identity
dx(g) + dy(h) - f = 0 is evaluated exactly at seeded points: over Q with
Fractions, with a random rational for a symbolic q, and over Q(zeta_m) as
polynomials in q modulo the cyclotomic polynomial Phi_m(q).  Nothing here
imports ratexact or uses its parser, kernel or sympy's algebraic fields
(which ratexact patches at import).
"""

from fractions import Fraction

import sympy as sp

X, Y, Q = sp.symbols("x y q")
_LOCALS = {"x": X, "y": Y, "q": Q}
POINTS = 3


def parse(text):
    """A printed rational function (ratexact's `^` grammar) as a sympy
    expression."""
    return sp.sympify(text.replace("^", "**"), locals=_LOCALS)


class Cyclotomic:
    """Q(zeta_m) as Q[q]/Phi_m(q); elements are coefficient tuples."""

    def __init__(self, m):
        t = sp.Symbol("t")
        coeffs = sp.Poly(sp.cyclotomic_poly(m, t), t).all_coeffs()
        self.mod = [Fraction(int(c)) for c in reversed(coeffs)]  # monic
        self.n = len(self.mod) - 1
        self.zeta = self.elem([0, 1] if self.n > 1 else [-self.mod[0]])

    def elem(self, coeffs):
        c = [Fraction(v) for v in coeffs]
        for k in range(len(c) - 1, self.n - 1, -1):  # reduce mod Phi_m
            top, c[k] = c[k], Fraction(0)
            if top:
                for i in range(self.n):
                    c[k - self.n + i] -= top * self.mod[i]
        c = c[:self.n] + [Fraction(0)] * (self.n - len(c))
        return CycElem(self, tuple(c))


class CycElem:
    __slots__ = ("field", "c")

    def __init__(self, field, c):
        self.field, self.c = field, c

    def _lift(self, other):
        if isinstance(other, CycElem):
            return other
        return self.field.elem([other])

    def __add__(self, other):
        o = self._lift(other)
        return CycElem(self.field, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __neg__(self):
        return CycElem(self.field, tuple(-a for a in self.c))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        prod = [Fraction(0)] * (2 * self.field.n)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c):
                    prod[i + j] += a * b
        return self.field.elem(prod)

    __rmul__ = __mul__

    def inverse(self):
        """Solve self * v = 1 by Gaussian elimination on the
        multiplication matrix."""
        n = self.field.n
        cols, p = [], self
        for _ in range(n):
            cols.append(p.c)
            p = p * self.field.zeta
        rows = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))]
                for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if rows[r][col]), None)
            if piv is None:
                raise ZeroDivisionError("zero in Q(zeta_m)")
            rows[col], rows[piv] = rows[piv], rows[col]
            inv = 1 / rows[col][col]
            rows[col] = [v * inv for v in rows[col]]
            for r in range(n):
                if r != col and rows[r][col]:
                    k = rows[r][col]
                    rows[r] = [a - k * b for a, b in zip(rows[r], rows[col])]
        return CycElem(self.field, tuple(rows[i][n] for i in range(n)))

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __pow__(self, e):
        base = self if e >= 0 else self.inverse()
        out = self.field.elem([1])
        for _ in range(abs(e)):
            out = out * base
        return out

    def is_zero(self):
        return not any(self.c)


def evaluate(expr, env):
    """Exact value of a sympy rational expression at env (symbol -> value),
    built from +, *, integer powers and rational numbers only."""
    cache = {}

    def ev(e):
        if e.is_Symbol:
            return env[e]
        if e.is_Rational:
            return Fraction(int(e.p), int(e.q))
        if e.is_Add:
            acc = Fraction(0)
            for a in e.args:
                acc = acc + ev(a)
            return acc
        if e.is_Mul:
            acc = Fraction(1)
            for a in e.args:
                acc = acc * ev(a)
            return acc
        if e.is_Pow and e.exp.is_Integer:
            key = (e.base, int(e.exp))
            if key not in cache:
                cache[key] = ev(e.base) ** key[1]
            return cache[key]
        raise ValueError("not a rational expression: %s" % (e,))

    return ev(expr)


def _is_zero(v):
    return v.is_zero() if isinstance(v, CycElem) else v == 0


_FIELDS = {}


def _q_value(qmode, rng):
    if qmode == "none":
        return Fraction(1)  # q does not occur
    if qmode == "symbolic":
        while True:
            v = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            if v not in (0, 1, -1):
                return v
    if qmode.startswith("zeta:"):
        m = int(qmode[5:])
        if m not in _FIELDS:
            _FIELDS[m] = Cyclotomic(m)
        return _FIELDS[m].zeta
    return Fraction(qmode)


def identity_holds(pair, qmode, f, g, h, rng):
    """None if dx(g) + dy(h) == f at POINTS seeded points, else a
    message.  f, g and h are sympy expressions."""
    dh = sp.diff(h, Y) if pair != "dqx-sy" else None
    good = 0
    for _ in range(8 * POINTS):
        x0 = Fraction(rng.randint(-60, 60), rng.randint(1, 11))
        y0 = Fraction(rng.randint(-60, 60), rng.randint(1, 11))
        q0 = _q_value(qmode, rng)
        x1 = x0 + 1 if pair == "dx-dy" else q0 * x0
        try:
            lhs = (evaluate(g, {X: x1, Y: y0, Q: q0})
                   - evaluate(g, {X: x0, Y: y0, Q: q0}))
            if dh is not None:
                lhs = lhs + evaluate(dh, {X: x0, Y: y0, Q: q0})
            else:
                lhs = lhs + (evaluate(h, {X: x0, Y: y0 + 1, Q: q0})
                             - evaluate(h, {X: x0, Y: y0, Q: q0}))
            rhs = evaluate(f, {X: x0, Y: y0, Q: q0})
        except ZeroDivisionError:
            continue  # a pole at this point; take another
        if not _is_zero(lhs - rhs):
            return "dx(g) + dy(h) - f is nonzero at x=%s, y=%s" % (x0, y0)
        good += 1
        if good == POINTS:
            return None
    return "no pole-free evaluation point found"


def check_certificate(case, g_text, h_text, rng):
    """None if the printed certificate (g, h) proves case.expr exact."""
    try:
        f, g, h = parse(case.expr), parse(g_text), parse(h_text)
    except (sp.SympifyError, SyntaxError, TypeError) as exc:
        return "certificate does not parse: %s" % exc
    return identity_holds(case.pair, case.qmode, f, g, h, rng)


def check_output(case, out, rng):
    """None if one operation's output is right, else what is wrong.

    out holds the decision ("outcome", and "g"/"h" when exact) and, on the
    oracle workload, the oracle's printed certificate ("oracle", a (g, h)
    pair or None)."""
    if out["outcome"] != case.expected:
        return "decided %s, expected %s" % (out["outcome"], case.expected)
    if out["outcome"] == "exact":
        msg = check_certificate(case, out["g"], out["h"], rng)
        if msg:
            return "decider certificate: " + msg
    if "oracle" in out:
        found = out["oracle"] is not None
        if found != (out["outcome"] == "exact"):
            return "oracle %s but decision %s" % (
                "hit" if found else "miss", out["outcome"])
        if found:
            msg = check_certificate(case, *out["oracle"], rng)
            if msg:
                return "oracle certificate: " + msg
    return None
