"""A small recursive-descent parser for rational-function expressions.

Grammar (no implicit multiplication):

    expr    ::= term (('+' | '-') term)*
    term    ::= unary (('*' | '/') unary)*
    unary   ::= '-' unary | power
    power   ::= atom ('^' unary)?        # right-associative, integer exponent
    atom    ::= INT | 'x' | 'y' | 'q' | '(' expr ')'

Exponent literals are at most MAX_EXPONENT, and the result's numerator
and denominator have total degree in x and y at most MAX_DEGREE.  Syntax
errors carry 1-based line/column positions.  The parser evaluates into
unreduced pairs (n, d) of pair-ring elements, such as (a*d + c*b, b*d)
for a sum, and reduces the result to canonical form once, at the end.
"""

import re
from decimal import Decimal

from .core import RatFunc, from_scalar
from .errors import ExprSyntaxError, RatexactError, ZeroDenominator

_TOKEN_RE = re.compile(r"\d+|[xyq]|[-+*/^()]|\s+|.")

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


def _tokenize(text):
    toks = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        s = m.group()
        if s.isspace():
            for ch in s:
                if ch == "\n":
                    line, col = line + 1, 1
                else:
                    col += 1
            continue
        if not (s.isdecimal() or s in "xyq" or s in "-+*/^()"):
            raise ExprSyntaxError("unexpected character %r" % s, line, col)
        toks.append((s, line, col))
        col += len(s)
    toks.append((None, line, col))
    return toks


class _Parser:
    def __init__(self, text, mode):
        self.toks = _tokenize(text)
        self.pos = 0
        ring = self.ring = mode.pair_ring()
        # x, y and q as pairs: generators over 1, or q's value, such as
        # (3, 2) for q = 3/2
        self.atoms = {s.name: (g, ring.one)
                      for s, g in zip(ring.symbols, ring.gens)}
        if mode.has_q and "q" not in self.atoms:
            self.atoms["q"] = from_scalar(mode.q_element(), mode)

    def peek(self):
        return self.toks[self.pos][0]

    def here(self):
        _, line, col = self.toks[self.pos]
        return line, col

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        line, col = self.here()
        raise ExprSyntaxError(message, line, col)

    def expect(self, s):
        if self.peek() != s:
            self.fail("expected %r" % s)
        self.advance()

    # each method below returns a pair (n, d), d != 0

    def expr(self):
        a, b = self.term()
        while self.peek() in ("+", "-"):
            op, _, _ = self.advance()
            c, d = self.term()
            c = c if op == "+" else -c
            a, b = (a + c, b) if b == d else (a * d + c * b, b * d)
        return a, b

    def term(self):
        a, b = self.unary()
        while self.peek() in ("*", "/"):
            op, _, _ = self.advance()
            c, d = self.unary()
            if op == "/":
                c, d = d, _nonzero(c)
            a, b = a * c, b * d
        return a, b

    def unary(self):
        if self.peek() == "-":
            self.advance()
            a, b = self.unary()
            return -a, b
        return self.power()

    def power(self):
        a, b = self.atom()
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
            if neg and n:
                a, b = b, _nonzero(a)
            return (a ** n, b ** n) if n else (self.ring.one,) * 2
        return a, b

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
            return self.ring(int(Decimal(tok))), self.ring.one
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
    :class:`RatexactError` on a total degree above MAX_DEGREE.
    """
    p = _Parser(text, mode)
    n, d = p.expr()
    if p.peek() is not None:
        p.fail("unexpected trailing input")
    f = RatFunc.from_ring(n, d, mode)
    top = max(m[0] + m[1] for g in (f.numer, f.denom) for m in g.itermonoms())
    if top > MAX_DEGREE:
        raise RatexactError("total degree %d exceeds the ceiling %d"
                            % (top, MAX_DEGREE))
    return f
