"""The derivation algebra of the Laurent torus in n variables.

Basis elements d_i(alpha) for 1 <= i <= n and alpha in Z^n, with

    [d_i(alpha), d_j(beta)] = beta_i d_j(alpha+beta) - alpha_j d_i(alpha+beta).

Weights are plain int tuples ordered lexicographically, which is exactly
Python's tuple comparison.  A weight is positive when it is lex-greater
than the origin, so (1, -7) counts as positive; the triangular pieces of
the algebra are cut out by that sign.
"""

from __future__ import annotations

import operator

from .coeff import (
    ONE, LinearCombination, PsiSpec, SYMBOLIC, Scalar, ZERO, add_term, as_scalar,
    attach_coefficient, exact_int, join_signed,
)


class NotPositive(ValueError):
    """An element expected to lie in the positive part has other weights too."""


class OutOfRange(ValueError):
    """A generator index or weight is outside its legal range."""


Weight = tuple


def weight_cmp(a: Weight, b: Weight) -> int:
    """-1, 0 or 1 as a is lex-smaller, equal or lex-greater than b."""
    if len(a) != len(b):
        raise ValueError("weights of unequal rank: %r vs %r" % (a, b))
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def zero_weight(n: int) -> Weight:
    return (0,) * n

def unit_weight(i: int, n: int) -> Weight:
    """The standard basis weight e_i (1-based index)."""
    if not 1 <= i <= n:
        raise OutOfRange("index %d outside 1..%d" % (i, n))
    return tuple(1 if j == i - 1 else 0 for j in range(n))

def weight_add(a: Weight, b: Weight) -> Weight:
    return tuple(map(operator.add, a, b))

def weight_neg(a: Weight) -> Weight:
    return tuple(-x for x in a)

def is_positive(a: Weight) -> bool:
    return a > zero_weight(len(a))


def triangular_part(a: Weight) -> str:
    """Which triangular piece the weight selects: 'positive', 'zero' or 'negative'."""
    zero = zero_weight(len(a))
    if a > zero:
        return "positive"
    if a < zero:
        return "negative"
    return "zero"


class LieElt(LinearCombination):
    """Finite Scalar-linear combination of the basis derivations.

    Terms are keyed by (i, alpha).  The rank n is fixed per element;
    mixing ranks in arithmetic is an error, and zero elements of
    different ranks are unequal.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        if exact_int(n, "the rank") < 2:
            raise OutOfRange("rank must be at least 2, got %d" % n)
        self.n = n
        super().__init__(terms)

    def _key(self, key):
        i, alpha = key
        i = exact_int(i, "a generator index")
        alpha = tuple(exact_int(x, "a weight component") for x in alpha)
        if len(alpha) != self.n:
            raise OutOfRange("weight %r has rank != %d" % (alpha, self.n))
        if not 1 <= i <= self.n:
            raise OutOfRange("index %d outside 1..%d" % (i, self.n))
        return (i, alpha)

    def _like(self, terms: dict):
        new = super()._like(terms)
        new.n = self.n
        return new

    def terms(self):
        """(i, alpha, coeff) triples sorted by weight then index."""
        return [
            (i, alpha, self._terms[(i, alpha)])
            for (i, alpha) in sorted(self._terms, key=lambda key: (key[1], key[0]))
        ]

    def __add__(self, other):
        if isinstance(other, LieElt) and other.n != self.n:
            raise ValueError("cannot add elements of different rank")
        return super().__add__(other)

    def __eq__(self, other):
        if not isinstance(other, LieElt):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def bracket(self, other: "LieElt") -> "LieElt":
        return bracket(self, other)

    def __str__(self):
        return join_signed([attach_coefficient(coeff, format_generator(i, alpha))
                            for i, alpha, coeff in self.terms()])

    def to_json(self) -> dict:
        return {
            "terms": [
                {"i": i, "alpha": list(alpha), "coeff": coeff.to_json()}
                for i, alpha, coeff in self.terms()
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "LieElt":
        """The element data describes; one without terms has rank 2."""
        pairs = [((t["i"], t["alpha"]), Scalar.from_json(t["coeff"])) for t in data["terms"]]
        ranks = {len(alpha) for (_, alpha), _ in pairs} or {2}
        if len(ranks) > 1:
            raise ValueError("mixed weight ranks in element")
        return LieElt(ranks.pop(), pairs)


def format_generator(i: int, alpha: Weight) -> str:
    if all(x == 0 for x in alpha):
        return "z" if i == 1 else ("h2" if i == 2 else "h%d" % i)
    return "d%d(%s)" % (i, ",".join(str(x) for x in alpha))


def d(i: int, alpha, coeff=1) -> LieElt:
    """The basis derivation d_i(alpha), optionally scaled."""
    alpha = tuple(alpha)
    return LieElt(len(alpha), {(i, alpha): as_scalar(coeff)})


def generator_bracket(f, g) -> dict:
    """[d_i(a), d_j(b)] = b_i d_j(a+b) - a_j d_i(a+b) as {(index, weight): int}.

    f and g are (i, a) and (j, b); the two terms merge when i == j, and
    zero coefficients are left out.  Straightening calls this once per
    swap of two factors, so it is written without loops.
    """
    i, a = f
    j, b = g
    s = weight_add(a, b)
    if i == j:
        c = b[i - 1] - a[i - 1]
        return {(i, s): c} if c else {}
    out = {}
    if b[i - 1]:
        out[(j, s)] = b[i - 1]
    if a[j - 1]:
        out[(i, s)] = -a[j - 1]
    return out


def bracket(x: LieElt, y: LieElt) -> LieElt:
    """Bilinear extension of generator_bracket."""
    if x.n != y.n:
        raise ValueError("cannot bracket elements of different rank")
    out = {}
    for i, a, ca in x.terms():
        for j, b, cb in y.terms():
            c = ca * cb
            for key, scale in generator_bracket((i, a), (j, b)).items():
                add_term(out, key, c * scale)
    return x._like(out)


def psi_eval(x: LieElt, psi: PsiSpec = SYMBOLIC) -> Scalar:
    """Value of the type homomorphism on an element of the positive part.

    Determined by its values on weight (0,1) and (0,2) generators: d_1(0,1)
    and d_2(0,1) give the first two generator values, d_2(0,2) the third,
    d_1(0,2) gives 0, and every weight lex-above (0,2) gives 0.  Only rank
    two is supported because the scalar ring has exactly three generators.
    """
    if x.n != 2:
        raise ValueError("the type homomorphism is only defined for rank 2")
    total = ZERO
    for i, alpha, coeff in x.terms():
        if not is_positive(alpha):
            raise NotPositive("weight %r is not positive" % (alpha,))
        total = total + coeff * _generator_psi(i, alpha, psi)
    return total


def _generator_psi(i: int, alpha: Weight, psi: PsiSpec) -> Scalar:
    if alpha == (0, 1):
        return psi.generator_value(1 if i == 1 else 2)
    if alpha == (0, 2) and i == 2:
        return psi.generator_value(3)
    return ZERO


def bracket_decomposition(i: int, alpha, corrected: bool = True):
    """Express a positive-part generator through brackets of lower terms.

    Returns a list of (scalar, x, y) with d_i(alpha) equal to the sum of
    scalar * [x, y], valid whenever alpha is positive and strictly above
    the base weights (0,...,0,1) and, for i == n, (0,...,0,2).  Every x, y
    is a single positive generator of strictly smaller weight.

    With corrected=False the i == n, alpha_n > 2 case uses the same
    two-term combination as i != n; that combination sums to twice
    d_n(alpha), and is kept only so the discrepancy stays observable.
    """
    alpha = tuple(exact_int(x, "a weight component") for x in alpha)
    n = len(alpha)
    if not 1 <= exact_int(i, "a generator index") <= n:
        raise OutOfRange("index %d outside 1..%d" % (i, n))
    if not is_positive(alpha):
        raise OutOfRange("weight %r is not positive" % (alpha,))
    en = unit_weight(n, n)
    base = {(j, en) for j in range(1, n + 1)}
    if (i, alpha) in base or (i == n and alpha == weight_add(en, en)):
        raise OutOfRange("d_%d(%r) is a base generator, nothing to decompose" % (i, alpha))

    a_n = alpha[n - 1]
    prev = tuple(alpha[:-1]) + (a_n - 1,)
    if a_n > 2:
        if i == n and corrected:
            scale = Scalar.rational(1, a_n - 2)
            return [(scale, d(n, en), d(n, prev))]
        out = []
        if alpha[i - 1]:
            out.append((Scalar.rational(alpha[i - 1], a_n - 2), d(n, en), d(n, prev)))
        out.append((Scalar.rational(-1), d(i, en), d(n, prev)))
        return out

    if alpha == weight_add(en, en):
        # d_i(2 e_n) for i != n is a single bracket of base generators
        return [(ONE, d(n, en), d(i, en))]

    # alpha_n <= 2 otherwise: peel off one unit of the last coordinate using
    # the first strictly-positive earlier coordinate as the pivot.  A positive
    # weight that is not a multiple of e_n always has one.
    pivot = None
    for j in range(n - 1):
        if alpha[j] > 0:
            pivot = j + 1
            break
    if pivot is None:
        raise OutOfRange("no positive pivot coordinate in %r" % (alpha,))
    ap = alpha[pivot - 1]
    out = [(Scalar.rational(1, ap), d(pivot, en), d(i, prev))]
    if i == n:
        out.append((Scalar.rational(1, ap * ap), d(pivot, en), d(pivot, prev)))
    return out


def expand_decomposition(parts, n: int) -> LieElt:
    """Sum scalar * [x, y] back into a single element."""
    total = LieElt(n)
    for scale, x, y in parts:
        total = total + scale * bracket(x, y)
    return total
