"""The derivation algebra of the Laurent torus in two variables.

Basis elements d_i(alpha) for i in {1, 2} and alpha in Z^2, with

    [d_i(alpha), d_j(beta)] = beta_i d_j(alpha+beta) - alpha_j d_i(alpha+beta).

Weights are plain pairs of ints ordered lexicographically, which is
exactly Python's tuple comparison.  A weight is positive when it is
lex-greater than the origin, so (1, -7) counts as positive; the
triangular pieces of the algebra are cut out by that sign.
generator_key is the one check of a generator (i, alpha), for LieElt
and bracket_decomposition alike: an index 1 or 2 and a weight of
exactly two ints.
"""

from __future__ import annotations

from .coeff import (
    ONE, LinearCombination, PsiSpec, SYMBOLIC, Scalar, ZERO, add_term, attach_coefficient,
    exact_int, join_signed,
)


class NotPositive(ValueError):
    """An element expected to lie in the positive part has other weights too."""


class OutOfRange(ValueError):
    """A generator index or weight is outside its legal range."""


Weight = tuple

ZERO_WEIGHT = (0, 0)
EPS2 = (0, 1)
TWO_EPS2 = (0, 2)

# The three generators with nonzero type value, in scan order.
OMEGA = ((1, EPS2), (2, EPS2), (2, TWO_EPS2))


def weight_cmp(a: Weight, b: Weight) -> int:
    """-1, 0 or 1 as a is lex-smaller, equal or lex-greater than b."""
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def weight_add(a: Weight, b: Weight) -> Weight:
    return (a[0] + b[0], a[1] + b[1])

def weight_neg(a: Weight) -> Weight:
    return (-a[0], -a[1])

def is_positive(a: Weight) -> bool:
    return a > ZERO_WEIGHT


def triangular_part(a: Weight) -> str:
    """Which triangular piece the weight selects: 'positive', 'zero' or 'negative'."""
    if a > ZERO_WEIGHT:
        return "positive"
    if a < ZERO_WEIGHT:
        return "negative"
    return "zero"


def generator_key(i, alpha):
    """(i, alpha) as a generator: i an int in {1, 2}, alpha a weight of exactly two ints.

    Anything else raises OutOfRange, or ValueError for a non-int, which
    exact_int never converts.
    """
    alpha = tuple(alpha)
    if len(alpha) != 2:
        raise OutOfRange("a weight needs exactly two ints, got %d" % len(alpha))
    alpha = (exact_int(alpha[0], "a weight component"), exact_int(alpha[1], "a weight component"))
    if exact_int(i, "a generator index") not in (1, 2):
        raise OutOfRange("generator index must be 1 or 2, got %d" % i)
    return (i, alpha)


class LieElt(LinearCombination):
    """Finite Scalar-linear combination of the basis derivations, keyed by (i, alpha)."""

    __slots__ = ()

    def _key(self, key):
        return generator_key(*key)

    def terms(self):
        """(i, alpha, coeff) triples sorted by weight then index."""
        return [
            (i, alpha, self._terms[(i, alpha)])
            for (i, alpha) in sorted(self._terms, key=lambda key: (key[1], key[0]))
        ]

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
        return LieElt([((t["i"], t["alpha"]), Scalar.from_json(t["coeff"]))
                       for t in data["terms"]])


def format_generator(i: int, alpha: Weight) -> str:
    if alpha == ZERO_WEIGHT:
        return "z" if i == 1 else "h2"
    return "d%d(%s)" % (i, ",".join(str(x) for x in alpha))


def d(i: int, alpha, coeff=1) -> LieElt:
    """The basis derivation d_i(alpha), optionally scaled."""
    return LieElt([((i, alpha), coeff)])


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
    out = {}
    for i, a, ca in x.terms():
        for j, b, cb in y.terms():
            c = ca * cb
            for key, scale in generator_bracket((i, a), (j, b)).items():
                add_term(out, key, c * scale)
    return x._raw(out)


def psi_eval(x: LieElt, psi: PsiSpec = SYMBOLIC) -> Scalar:
    """Value of the type homomorphism on an element of the positive part.

    Determined by its values on weight (0,1) and (0,2) generators: d_1(0,1)
    and d_2(0,1) give the first two generator values, d_2(0,2) the third,
    d_1(0,2) gives 0, and every weight lex-above (0,2) gives 0.
    """
    total = ZERO
    for i, alpha, coeff in x.terms():
        if not is_positive(alpha):
            raise NotPositive("weight %r is not positive" % (alpha,))
        total = total + coeff * _generator_psi(i, alpha, psi)
    return total


def _generator_psi(i: int, alpha: Weight, psi: PsiSpec) -> Scalar:
    if alpha == EPS2:
        return psi.generator_value(1 if i == 1 else 2)
    if alpha == TWO_EPS2 and i == 2:
        return psi.generator_value(3)
    return ZERO


def bracket_decomposition(i: int, alpha, corrected: bool = True):
    """Express a positive-part generator through brackets of lower terms.

    Returns a list of (scalar, x, y) with d_i(alpha) equal to the sum of
    scalar * [x, y], valid whenever alpha is positive and d_i(alpha) is
    none of the base generators d_1(0,1), d_2(0,1) and d_2(0,2).  Every
    x, y is a single positive generator of strictly smaller weight.

    With corrected=False the i == 2, alpha_2 > 2 case uses the same
    two-term combination as i == 1; that combination sums to twice
    d_2(alpha), and is kept only so the discrepancy stays observable.
    """
    i, alpha = generator_key(i, alpha)
    if not is_positive(alpha):
        raise OutOfRange("weight %r is not positive" % (alpha,))
    if (i, alpha) in OMEGA:
        raise OutOfRange("d_%d(%r) is a base generator, nothing to decompose" % (i, alpha))

    a1, a2 = alpha
    prev = (a1, a2 - 1)
    if a2 > 2:
        if i == 2 and corrected:
            scale = Scalar.rational(1, a2 - 2)
            return [(scale, d(2, EPS2), d(2, prev))]
        out = []
        if alpha[i - 1]:
            out.append((Scalar.rational(alpha[i - 1], a2 - 2), d(2, EPS2), d(2, prev)))
        out.append((Scalar.rational(-1), d(i, EPS2), d(2, prev)))
        return out

    if alpha == TWO_EPS2:
        # d_1(0,2) is a single bracket of base generators
        return [(ONE, d(2, EPS2), d(1, EPS2))]

    # Otherwise a2 <= 2 and alpha is positive, so a1 > 0: peel off one unit
    # of the second coordinate with d_1(0,1) as the pivot.
    out = [(Scalar.rational(1, a1), d(1, EPS2), d(i, prev))]
    if i == 2:
        out.append((Scalar.rational(1, a1 * a1), d(1, EPS2), d(1, prev)))
    return out


def expand_decomposition(parts) -> LieElt:
    """Sum scalar * [x, y] back into a single element."""
    total = LieElt()
    for scale, x, y in parts:
        total = total + scale * bracket(x, y)
    return total
