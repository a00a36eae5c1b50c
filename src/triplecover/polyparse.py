"""Text grammar for polynomials and the canonical printer.

Grammar (LL(1), whitespace insignificant):

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | var | '(' expr ')'
    rational := uint ('/' uint)?

Implicit multiplication is rejected on purpose; it keeps error offsets
precise.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TripleCoverError
from .polyring import MPoly


class ParseError(TripleCoverError):
    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            "parse error at offset %d: expected %s, found %s"
            % (offset, expected, found)
        )


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._advance()

    def _advance(self):
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos].isspace():
            self.pos += 1
        self.offset = self.pos
        if self.pos >= n:
            self.kind, self.value = "end", "end of input"
            return
        ch = text[self.pos]
        if ch.isdigit():
            j = self.pos
            while j < n and text[j].isdigit():
                j += 1
            self.kind, self.value = "int", text[self.pos:j]
            self.pos = j
        elif ch.isalpha() or ch == "_":
            j = self.pos
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.kind, self.value = "ident", text[self.pos:j]
            self.pos = j
        elif ch in "+-*/^()":
            self.kind, self.value = ch, ch
            self.pos += 1
        else:
            raise ParseError(self.pos, "a token", repr(ch))

    def take(self):
        kind, value, offset = self.kind, self.value, self.offset
        self._advance()
        return kind, value, offset

    def expect(self, kind, expected):
        if self.kind != kind:
            raise ParseError(self.offset, expected, self._describe())
        return self.take()

    def _describe(self):
        return "end of input" if self.kind == "end" else repr(self.value)


class _Parser:
    """Numbers and variable powers multiply into one (exponents, coefficient)
    term and an expression's terms into one ``MPoly``; only a parenthesized
    factor takes ``MPoly`` products and powers."""

    def __init__(self, text, vars):
        self.lexer = _Lexer(text)
        self.vars = tuple(vars)

    def parse(self) -> MPoly:
        p = self._expr()
        if self.lexer.kind != "end":
            raise ParseError(
                self.lexer.offset, "operator or end of input", self.lexer._describe()
            )
        return p

    def _expr(self) -> MPoly:
        sign = 1
        if self.lexer.kind == "-":
            self.lexer.take()
            sign = -1
        table = {}
        while True:
            for exps, c in self._term():
                table[exps] = table.get(exps, 0) + sign * c
            if self.lexer.kind not in ("+", "-"):
                return MPoly(self.vars, table)
            sign = 1 if self.lexer.take()[0] == "+" else -1

    def _term(self):
        """The (exponents, coefficient) pairs of a product of factors."""
        coeff, exps, poly = 1, [0] * len(self.vars), None
        while True:
            base, e = self._base(), 1
            if self.lexer.kind == "^":
                self.lexer.take()
                e = int(self.lexer.expect("int", "exponent digits")[1])
            if isinstance(base, MPoly):
                poly = base ** e if poly is None else poly * base ** e
            elif isinstance(base, str):
                exps[self.vars.index(base)] += e
            else:
                coeff *= base ** e
            if self.lexer.kind != "*":
                break
            self.lexer.take()
        if poly is None:
            return [(tuple(exps), coeff)]
        return (poly * MPoly(self.vars, {tuple(exps): coeff})).terms.items()

    def _base(self):
        """A number, a variable name or a parenthesized ``MPoly``."""
        kind = self.lexer.kind
        if kind == "int":
            _, digits, _ = self.lexer.take()
            num = int(digits)
            if self.lexer.kind == "/":
                self.lexer.take()
                _, dens, offset = self.lexer.expect("int", "denominator digits")
                den = int(dens)
                if den == 0:
                    raise ParseError(offset, "a nonzero denominator", "0")
                return Fraction(num, den)
            return num
        if kind == "ident":
            _, name, offset = self.lexer.take()
            if name not in self.vars:
                raise ParseError(
                    offset,
                    "a variable among %s" % (", ".join(self.vars)),
                    repr(name),
                )
            return name
        if kind == "(":
            self.lexer.take()
            p = self._expr()
            self.lexer.expect(")", "closing parenthesis")
            return p
        raise ParseError(
            self.lexer.offset,
            "a number, variable or parenthesis",
            self.lexer._describe(),
        )


def parse_poly(text: str, vars) -> MPoly:
    """Parse the canonical polynomial grammar over the given variable set."""
    return _Parser(text, vars).parse()


def _monomial_str(vars, exps):
    pieces = []
    for v, e in zip(vars, exps):
        if e == 1:
            pieces.append(v)
        elif e > 1:
            pieces.append("%s^%d" % (v, e))
    return "*".join(pieces)


def _coeff_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def print_poly(p: MPoly) -> str:
    """Canonical rendering: graded-lex descending, explicit '*' and '^'."""
    if p.is_zero():
        return "0"
    out = []
    for exps, c in p.sorted_terms():
        mono = _monomial_str(p.vars, exps)
        mag = abs(c)
        if not mono:
            body = _coeff_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (_coeff_str(mag), mono)
        if not out:
            out.append("-" + body if c < 0 else body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)
