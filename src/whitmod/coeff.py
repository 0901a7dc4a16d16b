"""Exact coefficient arithmetic.

A Scalar is an element of Q[s1, s2, s3]: a sparse polynomial with Fraction
coefficients in the three generator values that determine a type
homomorphism.  Plain rationals are the constant polynomials.  ZPoly is a
univariate polynomial in z whose coefficients are Scalars, keyed by the
exponent of z.  Everything here is immutable, hashable and exact; nothing
is ever rounded.

exact_int is the one integer check: each constructor of the package
calls it where its value is built, and the from_json readers hand their
data to those constructors.  exact_rational is its rational sibling.
DIGITS is the one digit set: an integer written out, in JSON here or in
the text of textio, is in the ASCII digits 0-9 only, since int() and
str.isdigit would also take other scripts' digits and underscores.

LinearCombination, the sparse dict of nonzero terms with its sums,
scalar multiples, equality and hashing, is the one base of the four value
types Scalar, ZPoly, liecore.LieElt and wmod.ModuleVector, and its
classmethod _raw is their one unchecked builder; add_term and join_signed
beside it are the term accumulator and the signed-sum renderer they all
use.
"""

from __future__ import annotations

from fractions import Fraction


# Largest exponent of s1, s2 or s3 that text and JSON input may give.
# Scalar.__pow__ multiplies once per unit of the exponent and specialize
# raises each type value to it, so an unbounded exponent is unbounded work.
MAX_EXPONENT = 1000

DIGITS = frozenset("0123456789")


class SingularPsi(ValueError):
    """Raised when a specialized type value is zero; the type must be nonsingular."""


def exact_int(value, what: str, minimum: int | None = None) -> int:
    """value when it is an int (at least minimum, if given); else ValueError naming what.

    Nothing is converted: a bool, a float or a digit string is refused.
    """
    if type(value) is not int:
        raise ValueError("%s must be an int, got %r" % (what, value))
    if minimum is not None and value < minimum:
        raise ValueError("%s must be at least %d, got %d" % (what, minimum, value))
    return value


def exact_rational(value, what: str) -> Fraction:
    """value as a Fraction when it is an int or a Fraction; ValueError otherwise."""
    if isinstance(value, Fraction):
        return value
    return Fraction(exact_int(value, what))


def add_term(out: dict, key, c):
    """out[key] += c for a nonzero c, dropping the key when the sum is zero."""
    tot = out.get(key)
    if tot is None:
        out[key] = c
    else:
        tot = tot + c
        if tot:
            out[key] = tot
        else:
            del out[key]


def join_signed(parts) -> str:
    """Join rendered terms with + and -, a leading '-' becoming the sign; '0' if none."""
    if not parts:
        return "0"
    text = parts[0]
    for body in parts[1:]:
        if body.startswith("-"):
            text += " - " + body[1:]
        else:
            text += " + " + body
    return text


class LinearCombination:
    """Finite linear combination: a dict from keys to nonzero coefficients.

    The base of Scalar, ZPoly, LieElt and ModuleVector.  It owns the
    sparse dict and everything that treats it as a vector: negation,
    sums, scalar multiples, equality and hashing.  The constructor takes
    a dict or a list of (key, coefficient) pairs, whose repeated keys add
    up; a subclass names its keys and coefficients through _key and
    _coefficient, which validate each pair before any two are merged.
    Results of arithmetic, and any caller's dict that is already clean,
    are built by _raw, the one builder that skips those checks.  The
    representation is canonical, so == and hash are structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                key = self._key(key)
                c = self._coefficient(coeff)
                if c:
                    add_term(clean, key, c)
        self._terms = clean

    def _key(self, key):
        return key

    @staticmethod
    def _coefficient(value):
        return as_scalar(value)

    @classmethod
    def _raw(cls, terms: dict):
        """A value of cls holding terms, a clean dict, without revalidation."""
        new = object.__new__(cls)
        new._terms = terms
        return new

    def _merged(self, other):
        """self + other for a value of the same kind."""
        merged = dict(self._terms)
        for key, c in other._terms.items():
            add_term(merged, key, c)
        return self._raw(merged)

    def __bool__(self):
        return bool(self._terms)

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._merged(other)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        s = as_scalar(other)
        if not s:
            return self._raw({})
        return self._raw({k: c * s for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class Scalar(LinearCombination):
    """Sparse polynomial in s1, s2, s3 over Q.

    Keys are exponent triples (e1, e2, e3), coefficients nonzero Fractions.
    Arithmetic and equality accept ints and Fractions as constant
    polynomials, and a rational Scalar hashes as its Fraction; the
    product is the ring product.
    """

    __slots__ = ()

    def _key(self, exps):
        if len(exps) != 3:
            raise ValueError("a scalar monomial needs exactly three exponents, got %r" % (exps,))
        return tuple(exact_int(e, "a scalar exponent", 0) for e in exps)

    @staticmethod
    def _coefficient(value) -> Fraction:
        return exact_rational(value, "a scalar coefficient")

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        c = Fraction(p, q)
        return Scalar._raw({(0, 0, 0): c} if c else {})

    @staticmethod
    def generator(j: int) -> "Scalar":
        """The indeterminate s_j, j in {1, 2, 3}."""
        if exact_int(j, "a generator index") not in (1, 2, 3):
            raise ValueError("generator index must be 1, 2 or 3")
        e = [0, 0, 0]
        e[j - 1] = 1
        return Scalar({tuple(e): Fraction(1)})

    def terms(self):
        """Monomials as (exponent-triple, Fraction), highest triple first."""
        return sorted(self._terms.items(), key=lambda t: t[0], reverse=True)

    def is_rational(self) -> bool:
        return not self._terms or set(self._terms) == {(0, 0, 0)}

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("scalar %s is not a plain rational" % self)
        return self._terms[(0, 0, 0)]

    # The operators below stay in this class body, so that wrapping
    # Scalar.__add__ or Scalar.__mul__ counts scalar arithmetic only.
    def __add__(self, other):
        other = _try_scalar(other)
        if other is None:
            return NotImplemented
        return self._merged(other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _try_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return as_scalar(other) + (-self)

    def __mul__(self, other):
        other = _try_scalar(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        # constants are by far the most common case in specialized runs
        if len(a) == 1 and (0, 0, 0) in a:
            ca = a[(0, 0, 0)]
            return Scalar._raw({e: ca * c for e, c in b.items()})
        if len(b) == 1 and (0, 0, 0) in b:
            cb = b[(0, 0, 0)]
            return Scalar._raw({e: c * cb for e, c in a.items()})
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                add_term(out, (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2]), ca * cb)
        return Scalar._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = ONE
        for _ in range(exact_int(n, "a scalar exponent", 0)):
            result = result * self
        return result

    def __eq__(self, other):
        if type(other) is int or isinstance(other, Fraction):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a rational Scalar equals its Fraction, so it hashes as one
        if self.is_rational():
            return hash(self._terms.get((0, 0, 0), 0))
        return LinearCombination.__hash__(self)

    def specialize(self, spec: "PsiSpec") -> "Scalar":
        """Substitute the spec's rational values for s1, s2, s3.

        Requires a specialized spec; substitution into symbolic mode is a
        no-op conceptually but almost always a caller bug, so it raises.
        """
        if spec.is_symbolic():
            raise ValueError("cannot specialize with a symbolic type spec")
        p1, p2, p3 = spec.values
        total = Fraction(0)
        for (e1, e2, e3), c in self._terms.items():
            total += c * p1**e1 * p2**e2 * p3**e3
        return Scalar.rational(total)

    def __str__(self):
        parts = []
        for exps, coeff in self.terms():
            names = []
            for name, e in zip(("s1", "s2", "s3"), exps):
                if e == 1:
                    names.append(name)
                elif e > 1:
                    names.append("%s^%d" % (name, e))
            if not names:
                body = str(coeff)
            elif coeff == 1:
                body = "*".join(names)
            elif coeff == -1:
                body = "-" + "*".join(names)
            else:
                body = str(coeff) + "*" + "*".join(names)
            parts.append(body)
        return join_signed(parts)

    def to_json(self) -> dict:
        return {
            "monomials": [
                {"e": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in self.terms()
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "Scalar":
        pairs = []
        for mono in data["monomials"]:
            den = _json_int(mono["den"])
            if den == 0:
                raise ValueError("a coefficient has the denominator 0")
            pairs.append((mono["e"], Fraction(_json_int(mono["num"]), den)))
        s = Scalar(pairs)
        if any(max(e) > MAX_EXPONENT for e in s._terms):
            raise ValueError("an exponent exceeds the bound %d" % MAX_EXPONENT)
        return s


def _json_int(value) -> int:
    """A JSON coefficient part: an int, or the string of one as to_json
    writes it, an optional '-' and ASCII digits."""
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if not digits or not DIGITS.issuperset(digits):
            raise ValueError("a numerator or denominator string must be ASCII digits "
                             "after an optional '-', got one of length %d" % len(value))
        value = int(value)
    return exact_int(value, "a numerator or denominator")


def _try_scalar(value):
    """value as a Scalar when it is a Scalar, an int or a Fraction, else None.

    An int is taken by exact_int's rule, so a bool is not one.
    """
    if isinstance(value, Scalar):
        return value
    if type(value) is int or isinstance(value, Fraction):
        return Scalar.rational(value)
    return None


def as_scalar(value) -> Scalar:
    """value as a Scalar; anything else, a bool or a float included, is a ValueError."""
    s = _try_scalar(value)
    if s is None:
        raise ValueError("cannot interpret %r as a scalar" % (value,))
    return s


ZERO = Scalar()
ONE = Scalar.rational(1)
MINUS_ONE = Scalar.rational(-1)
S1 = Scalar.generator(1)
S2 = Scalar.generator(2)
S3 = Scalar.generator(3)


def attach_coefficient(coeff: Scalar, body: str, sep: str = "*") -> str:
    """Render coeff*body so the standard grammar can read it back.

    Coefficients of 1 and -1 vanish into the sign, rationals and monic
    monomials print bare, anything else gets parentheses.
    """
    if coeff == ONE:
        return body
    if coeff == MINUS_ONE:
        return "-" + body
    if coeff.is_rational():
        return str(coeff.as_fraction()) + sep + body
    terms = coeff.terms()
    if len(terms) == 1:
        frac = terms[0][1]
        if frac == 1:
            return str(coeff) + sep + body
        if frac == -1:
            return "-" + str(-coeff) + sep + body
    return "(" + str(coeff) + ")" + sep + body


class PsiSpec:
    """Choice of the three type generator values.

    Symbolic mode keeps s1, s2, s3 as indeterminates (never inverted, never
    compared to zero).  Specialized mode pins them to concrete nonzero
    rationals; zero values are rejected because the whole construction
    assumes a nonsingular type.
    """

    __slots__ = ("values",)

    def __init__(self, values=None):
        if values is not None:
            values = tuple(exact_rational(v, "a type value") for v in values)
            if len(values) != 3:
                raise ValueError("a specialized type needs exactly three values")
            if any(v == 0 for v in values):
                raise SingularPsi("type values must all be nonzero, got %s" % (values,))
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("PsiSpec is immutable")

    @staticmethod
    def of(p1, p2, p3) -> "PsiSpec":
        return PsiSpec((p1, p2, p3))

    def is_symbolic(self) -> bool:
        return self.values is None

    def generator_value(self, j: int) -> Scalar:
        """s_j as a Scalar: the indeterminate in symbolic mode, else the pinned rational."""
        if self.values is None:
            return Scalar.generator(j)
        return Scalar.rational(self.values[j - 1])

    def __eq__(self, other):
        if not isinstance(other, PsiSpec):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(("PsiSpec", self.values))

    def __str__(self):
        if self.values is None:
            return "symbolic"
        return ",".join(str(v) for v in self.values)

    def __repr__(self):
        return "PsiSpec(%s)" % self


SYMBOLIC = PsiSpec()


class ZPoly(LinearCombination):
    """Polynomial in z with Scalar coefficients, keyed by the exponent of z.

    ZPoly(coeffs) takes the dense list c0, c1, ... and coeffs gives it
    back without trailing zeros.  The zero polynomial has degree None;
    that keeps degree comparisons honest instead of smuggling in a fake -1.
    Sums and differences take an int, a Fraction or a Scalar on either
    side as a constant polynomial, but equality and hashing are the
    base's: a ZPoly equals only a ZPoly.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(enumerate(coeffs))

    @staticmethod
    def z() -> "ZPoly":
        return ZPoly._raw({1: ONE})

    @property
    def coeffs(self):
        return tuple(self.coeff(r) for r in range(self.degree + 1)) if self._terms else ()

    @property
    def degree(self):
        return max(self._terms) if self._terms else None

    def coeff(self, r: int) -> Scalar:
        return self._terms.get(r, ZERO)

    def leading(self) -> Scalar:
        if not self._terms:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._terms[self.degree]

    def __add__(self, other):
        if not isinstance(other, ZPoly):
            other = ZPoly([other])
        return self._merged(other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ZPoly):
            other = ZPoly([other])
        return self._merged(-other)

    def __rsub__(self, other):
        return ZPoly([other])._merged(-self)

    def __mul__(self, other):
        if not isinstance(other, ZPoly):
            return LinearCombination.__mul__(self, other)
        out = {}
        for i, a in self._terms.items():
            for j, b in other._terms.items():
                add_term(out, i + j, a * b)
        return self._raw(out)

    __rmul__ = __mul__

    def evaluate(self, point) -> Scalar:
        point = as_scalar(point)
        total = ZERO
        for c in reversed(self.coeffs):
            total = total * point + c
        return total

    def specialize(self, spec: "PsiSpec") -> "ZPoly":
        """Substitute the type values of spec into every coefficient."""
        return ZPoly([c.specialize(spec) for c in self.coeffs])

    def monic(self) -> "ZPoly":
        """Divide by the leading coefficient, which must be a nonzero rational."""
        lead = self.leading().as_fraction()
        return self * Scalar.rational(Fraction(1) / lead)

    def divmod_by(self, other: "ZPoly"):
        """Exact polynomial division for rational-coefficient polynomials."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        db = other.degree
        lead = other.leading().as_fraction()
        if not self or self.degree < db:
            return ZPoly(), self
        rem = dict(self._terms)
        quot = {}
        for i in range(self.degree - db, -1, -1):
            top = rem.get(i + db)
            if top is None:
                continue
            factor = Scalar.rational(top.as_fraction() / lead)
            quot[i] = factor
            for j, b in other._terms.items():
                add_term(rem, i + j, -(factor * b))
        return self._raw(quot), self._raw(rem)

    def __str__(self):
        parts = []
        for r, c in sorted(self._terms.items(), reverse=True):
            if r == 0:
                zpart = ""
            elif r == 1:
                zpart = "z"
            else:
                zpart = "z^%d" % r
            if c.is_rational():
                f = c.as_fraction()
                if not zpart:
                    body = str(f)
                elif f == 1:
                    body = zpart
                elif f == -1:
                    body = "-" + zpart
                else:
                    body = "%s*%s" % (f, zpart)
            else:
                body = "(%s)" % c
                if zpart:
                    body += "*" + zpart
            parts.append(body)
        return join_signed(parts)

    def to_json(self) -> dict:
        return {"coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "ZPoly":
        return ZPoly([Scalar.from_json(c) for c in data["coeffs"]])


def poly_gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Monic gcd in Q[z]; both arguments need rational coefficients."""
    while b:
        _, r = a.divmod_by(b)
        a, b = b, r
    if not a:
        return a
    return a.monic()
