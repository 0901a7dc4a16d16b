"""The universal Whittaker module and its basis action.

Basis vectors are x_{lambda,mu,k} z^r w: a product of weight-negative
d_1 factors prescribed by lambda, weight-negative d_2 factors prescribed
by mu, k copies of h2 = d_2(0,0) and r copies of z = d_1(0,0), applied to
the cyclic vector w.  A ModuleVector is a finite Scalar-combination of
those, built on coeff.LinearCombination like Scalar, ZPoly and LieElt;
by_triple and from_triples regroup its terms into {triple: ZPoly} and
back, through the unchecked builder _raw.
BasisMonomial.of is the one checked builder of a monomial from caller
data, for basis_vector and from_json alike; the engine builds the
NamedTuple directly from data that is already clean.

act straightens into this basis by PBW left-multiplication (de Graaf,
Lie Algebras: Theory and Algorithms, 2000).  A word is a tuple of
(i, alpha) factors; the canonical position order is

    d_1-negatives (weights non-increasing), d_2-negatives (same),
    h2 factors, z factors, positive factors,

and a basis word is a sorted word without positive factors.  One factor
x times a basis word m is computed recursively:

    x . w        = psi(x) w if x is positive, else the word (x)
    x . (f rest) = (x f rest)                    if x <= f,
                 = f . (x . rest) + [x, f] . rest otherwise.

x . rest and [x, f] . rest are one factor shorter.  The only call on a
word as long as its parent's is f . w2 with w2 a full-length result of
x . rest, and that call must be an immediate prepend (f <= w2[0]); the
engine checks that in O(1) and raises NonDescent if it ever fails, so the
total factor count drops at every other call and the recursion ends.
act applies each generator of a Lie element to each monomial of a
vector through this recursion, and straighten_word is act_word on w.

z^r w is a Whittaker vector, so u w -> u z^r w is a module map and
x . (m z^r w) is x . (m w) with z^r appended to every word (the proof is
in act).  act therefore groups the monomials of a vector by z-free word
m, in a dict local to the call, and straightens each m once for all its
z-powers, holding one image at a time; nothing outlives the call.  The
one memo of images across calls is the slice table of the solver
(solver._SliceOperators), bounded by one slice and type.
"""

from __future__ import annotations

from typing import NamedTuple

from .coeff import (
    ONE, LinearCombination, PsiSpec, SYMBOLIC, Scalar, ZERO, ZPoly, add_term, as_scalar,
    attach_coefficient, exact_int, join_signed,
)
from .liecore import (
    ZERO_WEIGHT,
    LieElt,
    _generator_psi,
    d,
    generator_bracket,
    is_positive,
    weight_neg,
)
from .orders import EMPTY, Partition, Triple, triple_key, triple_max


# Longest word, in factors with h2 and z included, that text and JSON
# input may give.  Straightening recurses once per factor (a word of n
# factors takes about n + 12 frames), and Python's default limit of 1000
# frames overflowed at 1200 factors; the margin leaves room for callers.
MAX_WORD_LENGTH = 500


class ZeroVector(ValueError):
    """An operation that needs a nonzero vector got the zero vector."""


class NonDescent(RuntimeError):
    """Straightening failed to descend or left a positive factor; engine bug guard."""


class BasisMonomial(NamedTuple):
    lam: Partition
    mu: Partition
    k: int
    r: int

    @property
    def triple(self) -> Triple:
        return Triple(self.lam, self.mu, self.k)

    def __str__(self):
        parts = []
        for entry in self.lam:
            parts.append("d1(%d,%d)" % (-entry[0], -entry[1]))
        for entry in self.mu:
            parts.append("d2(%d,%d)" % (-entry[0], -entry[1]))
        if self.k == 1:
            parts.append("h2")
        elif self.k > 1:
            parts.append("h2^%d" % self.k)
        if self.r == 1:
            parts.append("z")
        elif self.r > 1:
            parts.append("z^%d" % self.r)
        parts.append("w")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "lambda": self.lam.to_json(),
            "mu": self.mu.to_json(),
            "k": self.k,
            "r": self.r,
        }

    @staticmethod
    def of(lam=EMPTY, mu=EMPTY, k=0, r=0) -> "BasisMonomial":
        """The monomial built from caller data, its partitions and exponents checked."""
        return BasisMonomial(Partition(lam), Partition(mu),
                             exact_int(k, "k", 0), exact_int(r, "r", 0))

    @staticmethod
    def from_json(data) -> "BasisMonomial":
        mono = BasisMonomial.of(data["lambda"], data["mu"], data["k"], data["r"])
        length = len(mono.lam) + len(mono.mu) + mono.k + mono.r
        if length > MAX_WORD_LENGTH:
            raise ValueError("a monomial of %d factors exceeds the word bound %d"
                             % (length, MAX_WORD_LENGTH))
        return mono


def _monomial_key(m: BasisMonomial) -> tuple:
    """Canonical order of basis monomials: the triple order, then r."""
    return (triple_key(m.triple), m.r)


class ModuleVector(LinearCombination):
    """Finite Scalar-linear combination of basis monomials."""

    __slots__ = ()

    def terms(self):
        """(monomial, coeff) pairs in canonical ascending order."""
        return [(m, self._terms[m]) for m in sorted(self._terms, key=_monomial_key)]

    def coeff(self, mono: BasisMonomial) -> Scalar:
        return self._terms.get(mono, ZERO)

    def support_triples(self):
        """Distinct triples appearing in the vector."""
        return {m.triple for m in self._terms}

    def by_triple(self):
        """The vector regrouped as {triple: nonzero z-polynomial}."""
        grouped = {}
        for mono, c in self._terms.items():
            grouped.setdefault(mono.triple, {})[mono.r] = c
        return {t: ZPoly._raw(rs) for t, rs in grouped.items()}

    @staticmethod
    def from_triples(polys) -> "ModuleVector":
        """The vector sum of poly(z) x_t w over a {triple: z-polynomial} dict."""
        terms = {}
        for t, poly in polys.items():
            for r, c in poly._terms.items():
                terms[BasisMonomial(t.lam, t.mu, t.k, r)] = c
        return ModuleVector._raw(terms)

    def __len__(self):
        return len(self._terms)

    def specialize(self, psi: PsiSpec) -> "ModuleVector":
        return ModuleVector({m: c.specialize(psi) for m, c in self._terms.items()})

    def __str__(self):
        return join_signed([attach_coefficient(coeff, str(mono), sep=" * ")
                            for mono, coeff in self.terms()])

    def to_json(self) -> dict:
        return {
            "terms": [
                dict(m.to_json(), coeff=c.to_json()) for m, c in self.terms()
            ]
        }

    @staticmethod
    def from_json(data) -> "ModuleVector":
        return ModuleVector([(BasisMonomial.from_json(t), Scalar.from_json(t["coeff"]))
                             for t in data["terms"]])


def basis_vector(lam=EMPTY, mu=EMPTY, k: int = 0, r: int = 0, coeff=1) -> ModuleVector:
    return ModuleVector({BasisMonomial.of(lam, mu, k, r): as_scalar(coeff)})


def w_vector() -> ModuleVector:
    return basis_vector()


# factor classes in canonical position order
_NEG1, _NEG2, _H, _Z, _POS = range(5)


def _factor_class(factor) -> int:
    i, alpha = factor
    if alpha > ZERO_WEIGHT:
        return _POS
    if alpha == ZERO_WEIGHT:
        return _Z if i == 1 else _H
    return _NEG1 if i == 1 else _NEG2


def _factor_cmp(f, g) -> int:
    """Canonical position comparison; > 0 when f belongs to the right of g."""
    cf, cg = _factor_class(f), _factor_class(g)
    if cf != cg:
        return -1 if cf < cg else 1
    if cf in (_NEG1, _NEG2):
        # negatives run with non-increasing weights
        if f[1] > g[1]:
            return -1
        if f[1] < g[1]:
            return 1
    return 0


def _monomial_of_sorted(word) -> BasisMonomial:
    lam, mu, k, r = [], [], 0, 0
    for factor in word:
        cls = _factor_class(factor)
        if cls == _NEG1:
            lam.append(weight_neg(factor[1]))
        elif cls == _NEG2:
            mu.append(weight_neg(factor[1]))
        elif cls == _H:
            k += 1
        elif cls == _Z:
            r += 1
        else:
            raise NonDescent("positive factor survived straightening: %r" % (factor,))
    return BasisMonomial(Partition(lam), Partition(mu), k, r)


def _mul(a: Scalar, b: Scalar) -> Scalar:
    """a * b, skipping the product when either factor is ONE."""
    if a is ONE:
        return b
    if b is ONE:
        return a
    return a * b


def _times(x, word, coeff: Scalar, psi: PsiSpec, out: dict):
    """Add coeff * (x . word w) to out, a dict from basis words to Scalars."""
    if not word:
        if _factor_class(x) == _POS:
            value = _generator_psi(x[0], x[1], psi)
            if value:
                add_term(out, (), _mul(coeff, value))
        else:
            add_term(out, (x,), coeff)
        return
    f = word[0]
    if _factor_cmp(x, f) <= 0:
        add_term(out, (x,) + word, coeff)
        return
    rest = word[1:]
    moved = {}
    _times(x, rest, ONE, psi, moved)
    for w2, c in moved.items():
        c = _mul(coeff, c)
        if len(w2) < len(word):
            _times(f, w2, c, psi, out)
        elif _factor_cmp(f, w2[0]) <= 0:
            add_term(out, (f,) + w2, c)
        else:
            raise NonDescent("%r . %r does not prepend after moving %r" % (f, w2, x))
    for g, cb in generator_bracket(x, f).items():
        _times(g, rest, _mul(coeff, Scalar.rational(cb)), psi, out)


def _monomial_word(mono: BasisMonomial):
    """The z-free word of a monomial: its lambda, mu and h2 factors, without z^r."""
    word = [(1, weight_neg(e)) for e in mono.lam]
    word += [(2, weight_neg(e)) for e in mono.mu]
    word += [(2, ZERO_WEIGHT)] * mono.k
    return tuple(word)


def act(x: LieElt, v: ModuleVector, psi: PsiSpec = SYMBOLIC) -> ModuleVector:
    """Action of a Lie element on a module vector, fully straightened.

    The monomials of v are grouped by z-free word, and each word is
    straightened once, with x's coefficients folded in, for all its
    z-powers.  This is sound because z^r w is a Whittaker vector: a positive
    d_j(b) has d_j(b) z = (z - b1) d_j(b), and psi vanishes on it unless
    b1 = 0, so d_j(b) z^r w = (z - b1)^r psi(d_j(b)) w = psi(d_j(b)) z^r w.
    By the universal property of W_psi, u w -> u z^r w is then a well
    defined module map, so x . (m z^r w) is x . (m w) with z^r appended to
    every word.  Appending keeps each word sorted: an image word holds no
    positive factor, and z sorts after every other factor.  Pushed through
    each z instead, a factor with b1 != 0, which brackets with z to a
    multiple of itself, would take about 2^r calls of _times.
    """
    powers = {}  # z-free word -> [(r, coefficient)] of its monomials in v
    for mono, cv in v._terms.items():
        powers.setdefault(_monomial_word(mono), []).append((mono.r, cv))
    words = {}
    for word, terms in powers.items():
        image = {}  # x . (word w), x's coefficients folded in
        for g, cx in x._terms.items():
            # ONE itself lets _mul skip the products
            _times(g, word, ONE if cx == ONE else cx, psi, image)
        for r, cv in terms:
            zs = ((1, ZERO_WEIGHT),) * r
            for wd, cm in image.items():
                add_term(words, wd + zs, _mul(cv, cm))
    return ModuleVector._raw({_monomial_of_sorted(wd): c for wd, c in words.items()})


def act_word(word, v: ModuleVector, psi: PsiSpec = SYMBOLIC) -> ModuleVector:
    """Apply a word of (i, alpha) factors, rightmost factor first."""
    for i, alpha in reversed(list(word)):
        v = act(d(i, alpha), v, psi)
    return v


def straighten_word(word, psi: PsiSpec = SYMBOLIC) -> ModuleVector:
    """Normal-order a word of (i, alpha) factors applied to w."""
    return act_word(word, w_vector(), psi)


def degree_of(v: ModuleVector):
    """(leading triple, leading z-polynomial) under the triple order."""
    if not v:
        raise ZeroVector("the zero vector has no degree")
    polys = v.by_triple()
    top = triple_max(polys)
    return top, polys[top]


def in_filtration(v: ModuleVector, t: Triple) -> bool:
    """Whether every triple of v lies strictly below t; the zero vector always does."""
    top = triple_key(t)
    return all(triple_key(s) < top for s in v.support_triples())


class WhittakerCheck(NamedTuple):
    passed: bool
    witness: tuple | None  # (i, alpha, defect vector) when refuted

    def __bool__(self):
        return self.passed


def weight_box(max_first: int, max_abs_second: int):
    """All lex-positive weights (a1, a2) with 0 <= a1 <= max_first, |a2| <= max_abs_second."""
    out = []
    for a1 in range(0, max_first + 1):
        lo = 1 if a1 == 0 else -max_abs_second
        for a2 in range(lo, max_abs_second + 1):
            out.append((a1, a2))
    return out


def is_whittaker(v: ModuleVector, psi: PsiSpec = SYMBOLIC, box=None) -> WhittakerCheck:
    """Test whether every positive generator acts on v by its type value.

    Checks the defect act(d_i(alpha), v) - psi(d_i(alpha)) * v over the
    sample box only, so a refutation is exact but a pass is evidence, not
    proof.  The default box is weight_box(M1 + 3, M2 + 3), with M1 and M2
    the totals over the support of v of its weight sums' first and
    absolute second components; no bound is proven that makes it cover
    every positive generator.  A refutation returns the first witness in
    scan order: alpha ascending lex, then i.
    """
    if box is None:
        sums = [m.triple.weight_sum() for m in v._terms]
        box = weight_box(sum(s[0] for s in sums) + 3, sum(abs(s[1]) for s in sums) + 3)
    for alpha in sorted(box):
        if not is_positive(alpha):
            raise ValueError("sample box weights must be lex-positive, got %r" % (alpha,))
        for i in (1, 2):
            gen = d(i, alpha)
            defect = act(gen, v, psi) - _generator_psi(i, alpha, psi) * v
            if defect:
                return WhittakerCheck(False, (i, alpha, defect))
    return WhittakerCheck(True, None)
