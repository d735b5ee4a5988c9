"""A small recursive-descent parser for rational-function expressions.

Grammar (no implicit multiplication):

    expr    ::= term (('+' | '-') term)*
    term    ::= unary (('*' | '/') unary)*
    unary   ::= '-' unary | power
    power   ::= atom ('^' unary)?        # right-associative, integer exponent
    atom    ::= INT | 'x' | 'y' | 'q' | '(' expr ')'

Exponent literals are at most MAX_EXPONENT, and the result's numerator
and denominator have total degree in x and y at most MAX_DEGREE.  Syntax
errors carry 1-based line/column positions.

The parser evaluates a run of '*', '/' and '^' over atoms by exponent
arithmetic: a Laurent monomial (num, den, exps, z) is num/den times the
product of the pair ring's generators to the powers exps, times zeta^z
when q = zeta_m, m > 2 (z taken mod m; a rational q = u/v goes into
num/den).  A sum of monomials becomes one ``ring.from_dict`` over a
common denominator.  Only sums in parentheses, their powers and the
quotients by them are unreduced pairs (n, d) of pair-ring elements,
such as (a*d + c*b, b*d) for a sum; a power or product of two of them
whose total degree in x and y would exceed MAX_DEGREE is refused before
it is expanded.  The result is reduced to canonical form once, at the
end.
"""

import re
from decimal import Decimal
from functools import lru_cache
from math import lcm

from .core import RatFunc
from .errors import ExprSyntaxError, RatexactError, ZeroDenominator

_TOKEN_RE = re.compile(r"\d+|\S")
_BAD_RE = re.compile(r"[^\s\dxyq()^*/+-]")

# the largest exponent literal; a larger one is a syntax error, raised
# before any power is computed
MAX_EXPONENT = 10000
# the largest total degree in x and y of a parsed numerator or
# denominator: on dx-dy, end to end on a 2-core host, x^1500/y decides in
# 2.4-3.5 s, x^2000/y in 6.2 s and x^2000/(y*(y+1)) in 14.6 s
MAX_DEGREE = 1500


def _nonzero(p):
    """p, the numerator of a divisor; no d is ever zero, so the divisor
    is zero exactly when p is."""
    if not p:
        raise ZeroDenominator("division by zero")
    return p


def _ceiling(top):
    """Refuse a total degree top in x and y above MAX_DEGREE."""
    if top > MAX_DEGREE:
        raise RatexactError("total degree %d exceeds the ceiling %d"
                            % (top, MAX_DEGREE))


def _degree(p):
    """The total degree in x and y of the pair-ring element p."""
    return max((m[0] + m[1] for m in p.itermonoms()), default=0)


def _times(p, r):
    """p*r for pair-ring elements: a single term multiplies the other
    factor's terms, and two sums whose product's degree would exceed
    MAX_DEGREE are refused."""
    if len(p) > len(r):
        p, r = r, p
    if len(p) > 1:
        _ceiling(_degree(p) + _degree(r))
        return p * r
    if not p:
        return p
    term = next(iter(p.items()))
    one = (p.ring.zero_monom, p.ring.domain.one)
    return r if term == one else r.mul_term(term)


def _power(p, n):
    """p^n for a pair-ring element p, refused when p is a sum and the
    power's degree would exceed MAX_DEGREE."""
    if len(p) > 1:
        _ceiling(_degree(p) * n)
    return p ** n


def _position(text, offset):
    """The 1-based (line, column) of offset in text."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _tokenize(text):
    """The tokens of text and their offsets, ending with None at
    len(text)."""
    bad = _BAD_RE.search(text)
    if bad:
        raise ExprSyntaxError("unexpected character %r" % bad.group(),
                              *_position(text, bad.start()))
    found = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    toks = [t for t, _ in found] + [None]
    return toks, [i for _, i in found] + [len(text)]


@lru_cache(maxsize=None)
def _zeta_powers(mode):
    """[zeta^0, ..., zeta^(m-1)] for q = zeta_m, m > 2."""
    z = mode.q_element()
    powers = [mode.coeff_domain().one]
    for _ in range(mode.order - 1):
        powers.append(powers[-1] * z)
    return powers


class _Parser:
    def __init__(self, text, mode):
        self.text = text
        self.toks, self.offsets = _tokenize(text)
        self.pos = 0
        ring = self.ring = mode.pair_ring()
        zeros = self.zeros = (0,) * ring.ngens
        # the letters as monomials: generators, or q's value, such as
        # (3, 2, zeros, 0) for q = 3/2 and (1, 1, zeros, 1) for zeta_m
        self.atoms = {}
        for i, s in enumerate(ring.symbols):
            e = list(zeros)
            e[i] = 1
            self.atoms[s.name] = (1, 1, tuple(e), 0)
        self.m = 1
        if ring.domain.is_Field:  # q = zeta_m, m > 2
            self.m = mode.order
            self.zeta = _zeta_powers(mode)
            self.atoms["q"] = (1, 1, zeros, 1)
        elif mode.has_q and "q" not in self.atoms:
            u = mode.q_element()
            self.atoms["q"] = (int(u.numerator), int(u.denominator), zeros, 0)
        self.one = (1, 1, zeros, 0)

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        raise ExprSyntaxError(message,
                              *_position(self.text, self.offsets[self.pos]))

    def expect(self, s):
        if self.peek() != s:
            self.fail("expected %r" % s)
        self.advance()

    # each method below returns a monomial, a 4-tuple (num, den, exps, z)
    # with den != 0, or a pair, a 2-tuple (n, d) with d != 0

    def pair(self, v):
        return v if len(v) == 2 else self.sum_pair([v])

    def sum_pair(self, monos):
        """The pair of the sum of the monomials monos: one numerator over
        the lcm of their denominators times the inverse of their
        negative powers."""
        big = lcm(*(den for _, den, _, _ in monos))
        low = [min(0, *ks) for ks in zip(*(e for _, _, e, _ in monos))]
        numer = {}
        for num, den, e, z in monos:
            k = tuple(a - b for a, b in zip(e, low))
            c = num * (big // den)
            if self.m > 1:
                c = self.zeta[z] * c
            numer[k] = numer[k] + c if k in numer else c
        ring = self.ring
        denom = tuple(-b for b in low)
        if big == 1 and not any(denom):
            return ring.from_dict(numer), ring.one
        return ring.from_dict(numer), ring.from_dict({denom: big})

    def expr(self):
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            op = self.advance()
            t = self.term()
            terms.append(t if op == "+" else self.neg(t))
        if len(terms) == 1:
            return terms[0]
        monos = [t for t in terms if len(t) == 4]
        pairs = [t for t in terms if len(t) == 2]
        if monos:
            pairs.insert(0, self.sum_pair(monos))
        a, b = pairs[0]
        for c, d in pairs[1:]:
            a, b = ((a + c, b) if b == d
                    else (_times(a, d) + _times(c, b), _times(b, d)))
        return a, b

    def term(self):
        a = self.unary()
        while self.peek() in ("*", "/"):
            op = self.advance()
            c = self.unary()
            if op == "/":
                c = self.inverse(c)
            if len(a) == 4 and len(c) == 4:
                a = (a[0] * c[0], a[1] * c[1],
                     tuple(i + j for i, j in zip(a[2], c[2])),
                     (a[3] + c[3]) % self.m)
            else:
                (a, b), (c, d) = self.pair(a), self.pair(c)
                a = _times(a, c), _times(b, d)
        return a

    def neg(self, v):
        if len(v) == 2:
            return -v[0], v[1]
        return (-v[0],) + v[1:]

    def inverse(self, v):
        """1/v; ZeroDenominator when v is zero."""
        if len(v) == 2:
            return v[1], _nonzero(v[0])
        num, den, e, z = v
        if not num:
            raise ZeroDenominator("division by zero")
        return den, num, tuple(-i for i in e), -z % self.m

    def unary(self):
        if self.peek() == "-":
            self.advance()
            return self.neg(self.unary())
        return self.power()

    def power(self):
        a = self.atom()
        if self.peek() == "^":
            self.advance()
            neg = False
            while self.peek() == "-":
                self.advance()
                neg = not neg
            tok = self.peek()
            if tok is None or not tok.isdecimal():
                self.fail("exponent must be an integer")
            # lengths first: int() refuses a literal of over 4300 digits
            if (len(tok.lstrip("0")) > len(str(MAX_EXPONENT))
                    or int(tok) > MAX_EXPONENT):
                self.fail("exponent exceeds %d" % MAX_EXPONENT)
            self.advance()
            n = int(tok)
            if not n:
                return self.one
            if neg:
                a = self.inverse(a)
            if len(a) == 2:
                return _power(a[0], n), _power(a[1], n)
            num, den, e, z = a
            return num ** n, den ** n, tuple(i * n for i in e), z * n % self.m
        return a

    def atom(self):
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of expression")
        if tok == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if tok.isdecimal():
            self.advance()
            # int() of a str stops at 4300 digits; Decimal has no limit
            return int(Decimal(tok)), 1, self.zeros, 0
        if tok in ("x", "y", "q"):
            if tok not in self.atoms:
                self.fail("q is not available in this q-mode")
            self.advance()
            return self.atoms[tok]
        self.fail("unexpected token %r" % tok)


def parse_ratfunc(text, mode) -> RatFunc:
    """Parse ``text`` into a rational function over the given q-mode.

    Raises :class:`ExprSyntaxError` (with position) on malformed input,
    including use of ``q`` when the q-mode provides none and an exponent
    above MAX_EXPONENT, :class:`ZeroDenominator` on division by zero, and
    :class:`RatexactError` on a total degree above MAX_DEGREE, of the
    result or of a power or product of sums before it is expanded.
    """
    p = _Parser(text, mode)
    value = p.expr()
    if p.peek() is not None:
        p.fail("unexpected trailing input")
    f = RatFunc.from_ring(*p.pair(value), mode)
    _ceiling(max(_degree(f.numer), _degree(f.denom)))
    return f
