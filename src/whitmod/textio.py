"""Text input for algebra and module elements.

Grammar (whitespace insensitive):

    lie     := ['-'] lterm (('+'|'-') lterm)*
    lterm   := [coeff '*'] gen
    vec     := ['-'] vterm (('+'|'-') vterm)*
    vterm   := [coeff '*'] factor* 'w'
    factor  := gen ['^' uint]
    gen     := 'd1' '(' int ',' int ')' | 'd2' '(' int ',' int ')' | 'z' | 'h2'
    coeff   := rational | svars | '(' spoly ')'
    spoly   := ['-'] smon (('+'|'-') smon)*
    smon    := rational ['*' svars] | svars
    svars   := svar ('*' svar)*
    svar    := ('s1'|'s2'|'s3') ['^' uint]
    rational:= uint ['/' uint]

Vector factors are applied to w rightmost first, through the module
action, so positive factors in the input are legal and evaluate through
the type homomorphism.  A vterm holds at most MAX_WORD_LENGTH factors,
powers counted out, an svar exponent is at most MAX_EXPONENT, and an
integer has at most Python's bound on int digits (4300 by default).
Integers are written in the ASCII digits 0-9 only (coeff.DIGITS, the
digit set of JSON integer strings too), here and in parse_int and
parse_rational: str.isdigit and int() would also take other scripts'
digits, superscripts and underscores.
Formatting is handled by the classes' __str__; this module owns parsing
and raises ParseError with the offending offset and the expected-token
set.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .coeff import DIGITS, MAX_EXPONENT, ONE, PsiSpec, SYMBOLIC, Scalar
from .liecore import LieElt, d
from .wmod import MAX_WORD_LENGTH, ModuleVector, act_word, w_vector


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, expected=()):
        super().__init__(message)
        self.pos = pos
        self.expected = tuple(expected)


_PUNCT = "+-*/^(),"
_RATIONAL_CHARS = DIGITS | frozenset("+-/.")


def _expected(what, text):
    """The ParseError for an argument that is not what.  It names the
    argument's length and the digit bound, not its text, which may be
    thousands of digits long."""
    return ParseError("expected %s, got an argument of length %d; an integer has at most "
                      "%d digits" % (what, len(text), sys.get_int_max_str_digits()),
                      0, (what,))


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            try:
                tokens.append(("INT", int(text[i:j]), i))
            except ValueError:  # over Python's bound on the digits of an int
                raise ParseError("an integer of %d digits at offset %d exceeds the bound %d"
                                 % (j - i, i, sys.get_int_max_str_digits()), i, ()) from None
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r at offset %d" % (ch, i), i, ("token",))
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        if tok[0] != "END":
            self.idx += 1
        return tok

    def fail(self, expected):
        kind, _, pos = self.peek()
        raise ParseError(
            "expected %s at offset %d" % (" or ".join(expected), pos),
            pos,
            expected,
        )

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.fail((kind,))
        return self.advance()

    def at(self, kind) -> bool:
        return self.peek()[0] == kind

    def take(self, kind) -> bool:
        if self.at(kind):
            self.advance()
            return True
        return False

    def parse_int(self) -> int:
        sign = 1
        if self.take("-"):
            sign = -1
        value = self.expect("INT")[1]
        return sign * value

    def parse_uint(self) -> int:
        return self.expect("INT")[1]

    def parse_rational(self) -> Fraction:
        num = self.parse_uint()
        if self.take("/"):
            den = self.parse_uint()
            if den == 0:
                self.fail(("nonzero denominator",))
            return Fraction(num, den)
        return Fraction(num)

    def parse_svar(self) -> Scalar:
        kind, name, pos = self.peek()
        if kind != "NAME" or name not in ("s1", "s2", "s3"):
            self.fail(("s1", "s2", "s3"))
        self.advance()
        base = Scalar.generator(int(name[1]))
        if self.take("^"):
            at = self.peek()[2]
            n = self.parse_uint()
            if n > MAX_EXPONENT:
                raise ParseError("exponent %d at offset %d exceeds the bound %d"
                                 % (n, at, MAX_EXPONENT), at, ())
            return base ** n
        return base

    def parse_smon(self) -> Scalar:
        if self.at("INT"):
            coeff = Scalar.rational(self.parse_rational())
            while self.take("*"):
                coeff = coeff * self.parse_svar()
            return coeff
        mono = self.parse_svar()
        while self.take("*"):
            mono = mono * self.parse_svar()
        return mono

    def _signed_sum(self, term):
        """['-'] term (('+'|'-') term)*, each term read by term()."""
        negate = self.take("-")
        total = term()
        if negate:
            total = -total
        while True:
            if self.take("+"):
                total = total + term()
            elif self.take("-"):
                total = total - term()
            else:
                return total

    def parse_spoly(self) -> Scalar:
        return self._signed_sum(self.parse_smon)

    def parse_coeff(self) -> Scalar:
        """A rational, a bare monomial in s1..s3, or a parenthesized scalar
        polynomial, followed by '*'."""
        if self.at("INT"):
            value = Scalar.rational(self.parse_rational())
        elif self.at("("):
            self.advance()
            value = self.parse_spoly()
            self.expect(")")
        else:
            # s-variable product; '*' both chains variables and ends the
            # coefficient, so peek past it before consuming
            value = self.parse_svar()
            while self.at("*") and self.tokens[self.idx + 1][0] == "NAME" \
                    and self.tokens[self.idx + 1][1] in ("s1", "s2", "s3"):
                self.advance()
                value = value * self.parse_svar()
        self.expect("*")
        return value

    def parse_generator(self):
        kind, name, pos = self.peek()
        if kind != "NAME":
            self.fail(("d1", "d2", "z", "h2"))
        if name == "z":
            self.advance()
            return (1, (0, 0))
        if name == "h2":
            self.advance()
            return (2, (0, 0))
        if name in ("d1", "d2"):
            self.advance()
            self.expect("(")
            a = self.parse_int()
            self.expect(",")
            b = self.parse_int()
            self.expect(")")
            return (int(name[1]), (a, b))
        self.fail(("d1", "d2", "z", "h2"))

    def at_generator(self) -> bool:
        kind, name, _ = self.peek()
        return kind == "NAME" and name in ("d1", "d2", "z", "h2")

    def at_svar(self) -> bool:
        kind, name, _ = self.peek()
        return kind == "NAME" and name in ("s1", "s2", "s3")

    def at_coeff(self) -> bool:
        return self.at("INT") or self.at("(") or self.at_svar()

    def parse_lterm(self) -> LieElt:
        coeff = self.parse_coeff() if self.at_coeff() else ONE
        i, alpha = self.parse_generator()
        return d(i, alpha, coeff)

    def parse_vterm(self, psi: PsiSpec) -> ModuleVector:
        coeff = self.parse_coeff() if self.at_coeff() else ONE
        word = []
        while self.at_generator():
            pos = self.peek()[2]
            i, alpha = self.parse_generator()
            power = 1
            if self.take("^"):
                power = self.parse_uint()
            if len(word) + power > MAX_WORD_LENGTH:
                raise ParseError("a term of more than %d factors at offset %d"
                                 % (MAX_WORD_LENGTH, pos), pos, ())
            word.extend([(i, alpha)] * power)
        kind, name, _ = self.peek()
        if kind != "NAME" or name != "w":
            self.fail(("w",) if word or coeff != ONE else ("d1", "d2", "z", "h2", "w"))
        self.advance()
        return coeff * act_word(word, w_vector(), psi)

    def finish(self):
        if not self.at("END"):
            self.fail(("end of input",))


def _parse_sum(text: str, term):
    """The whole of text as a signed sum of terms, each read by term(parser)."""
    p = _Parser(text)
    value = p._signed_sum(lambda: term(p))
    p.finish()
    return value


def parse_lie(text: str) -> LieElt:
    return _parse_sum(text, _Parser.parse_lterm)


def parse_vector(text: str, psi: PsiSpec = SYMBOLIC) -> ModuleVector:
    return _parse_sum(text, lambda p: p.parse_vterm(psi))


def parse_scalar(text: str) -> Scalar:
    return _parse_sum(text, _Parser.parse_smon)


def parse_int(text: str) -> int:
    """A signed integer in ASCII digits, spaces around allowed."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if digits and DIGITS.issuperset(digits):
        try:
            return int(body)
        except ValueError:  # over Python's bound on the digits of an int
            pass
    raise _expected("an integer in ASCII digits", text)


def parse_rational(text: str) -> Fraction:
    """A signed rational written p/q or as a decimal in ASCII digits, spaces
    around allowed.

    Only digits, a sign, '/' and '.' are read, so exponent notation is
    refused: Fraction would expand 1e10000000 into all of its ten million
    digits.
    """
    body = text.strip()
    if _RATIONAL_CHARS.issuperset(body):
        try:
            return Fraction(body)
        except (ValueError, ZeroDivisionError):
            pass
    raise _expected("a rational p/q or a decimal in ASCII digits", text)


def parse_psi(text: str) -> PsiSpec:
    """Either the word 'symbolic' or three comma-separated nonzero rationals."""
    text = text.strip()
    if text == "symbolic":
        return SYMBOLIC
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("expected 'symbolic' or three comma-separated rationals", 0,
                         ("symbolic", "p1,p2,p3"))
    return PsiSpec([parse_rational(part) for part in parts])
