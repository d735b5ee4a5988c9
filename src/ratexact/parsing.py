"""A small recursive-descent parser for rational-function expressions.

Grammar (no implicit multiplication):

    expr    ::= term (('+' | '-') term)*
    term    ::= unary (('*' | '/') unary)*
    unary   ::= '-' unary | power
    power   ::= atom ('^' unary)?        # right-associative, integer exponent
    atom    ::= INT | 'x' | 'y' | 'q' | '(' expr ')'

Errors carry 1-based line/column positions.
"""

import re

from .core import RatFunc
from .errors import ExprSyntaxError

_TOKEN_RE = re.compile(r"\d+|[xyq]|[-+*/^()]|\s+|.")


def _symbol(name, mode):
    """x, y or q as a rational function, built from ring elements: a
    generator of the pair ring, or the value of q as a ground element."""
    ring = mode.pair_ring()
    names = [str(s) for s in ring.symbols]
    if name in names:
        p = ring.gens[names.index(name)]
    else:
        p = ring.ground_new(mode.q_element())
    return RatFunc.from_ring(p, ring.one, mode)


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
        if not (s.isdigit() or s in "xyq" or s in "-+*/^()"):
            raise ExprSyntaxError("unexpected character %r" % s, line, col)
        toks.append((s, line, col))
        col += len(s)
    toks.append((None, line, col))
    return toks


class _Parser:
    def __init__(self, text, mode):
        self.toks = _tokenize(text)
        self.pos = 0
        self.mode = mode

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

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op, _, _ = self.advance()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op, _, _ = self.advance()
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self):
        if self.peek() == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.advance()
            neg = False
            while self.peek() == "-":
                self.advance()
                neg = not neg
            tok = self.peek()
            if tok is None or not tok.isdigit():
                self.fail("exponent must be an integer")
            exp, _, _ = self.advance()
            n = -int(exp) if neg else int(exp)
            return base ** n
        return base

    def atom(self):
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of expression")
        if tok == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if tok.isdigit():
            self.advance()
            return RatFunc(int(tok), self.mode)
        if tok in ("x", "y", "q"):
            if tok == "q" and not self.mode.has_q:
                self.fail("q is not available in this q-mode")
            self.advance()
            return _symbol(tok, self.mode)
        self.fail("unexpected token %r" % tok)


def parse_ratfunc(text, mode) -> RatFunc:
    """Parse ``text`` into a rational function over the given q-mode.

    Raises :class:`ExprSyntaxError` (with position) on malformed input,
    including use of ``q`` when the q-mode provides none.
    """
    p = _Parser(text, mode)
    value = p.expr()
    if p.peek() is not None:
        p.fail("unexpected trailing input")
    return value
