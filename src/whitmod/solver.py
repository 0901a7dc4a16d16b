"""Desk-scale classification machinery on top of the module action.

This module bundles the computations that sit above raw straightening:

* ``whittaker_space`` solves, over a finite truncated slice of the basis,
  the exact linear system expressing "every positive generator acts by
  its type value", and returns a basis of the solution space.
* ``reduce_to_whittaker`` drives an arbitrary nonzero vector down the
  degree filtration to a plain z-polynomial times w, recording every
  operator application in a replayable transcript, the tuple of its
  ``ReductionStep``s.  Each step applies the rule of ``RULES`` that
  ``_rule_at`` picks by one case split on the degree triple and the
  next-lower weight level.
* ``quotient_act`` / ``simplicity_probe`` work in the quotient where z
  acts by a fixed rational a; the probe certifies that a vector still
  generates the cyclic vector.
* ``submodule_generator`` searches a truncated slice of the submodule
  generated by given vectors for the monic polynomial generating its
  Whittaker ideal.
* ``verify_lemma`` checks the filtration congruences that power the
  reduction, rule by rule.  ``RULES`` holds each rule once, under an
  opaque string identifier ("3.5" through "3.11.3"); these are the
  names the command line front end accepts and are kept stable.  Each
  rule has one statement: a function giving, at a ``RuleContext``, its
  operator, target triple, z-polynomial and leading coefficient, which
  the reduction and the verification both read; a ``LemmaInstance`` of
  a reduction rule is accepted exactly where ``_rule_at`` names that
  rule.  Three rules carry errata notes on their printed statement; the
  printed coefficients of 3.11.2 (not evaluable) and 3.11.3 (the wrong
  type value) disagree with exact computation, and only ``stated`` mode
  checks them.  The engine's value is authoritative and the
  discrepancy is reported, never silently absorbed.

Everything is exact: coefficients are rationals or integer-coefficient
polynomials in the three type values, and all comparisons are equality.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .coeff import (
    ONE,
    Scalar,
    ZPoly,
    PsiSpec,
    SYMBOLIC,
    SingularPsi,
    add_term,
    exact_int,
    exact_rational,
    poly_gcd,
)
from .liecore import (
    EPS2,
    OMEGA,
    TWO_EPS2,
    Weight,
    weight_add,
    d,
    psi_eval,
)
from .orders import (
    Partition,
    EMPTY,
    Triple,
    TRIPLE_MIN,
    triple_prec,
    triple_max,
)
from .wmod import (
    BasisMonomial,
    ModuleVector,
    ZeroVector,
    NonDescent,
    _monomial_key,
    act,
    in_filtration,
    weight_box,
)


class NonTermination(RuntimeError):
    """The reduction loop exceeded its step cap (an engine bug)."""


class ProbeFailed(RuntimeError):
    """A quotient reduction collapsed to zero; the probe found nothing."""


class HypothesisViolated(ValueError):
    """An instance does not satisfy the hypotheses of its rule."""


# ---------------------------------------------------------------------------
# truncations


class Truncation:
    """A finite slice of the module basis.

    ``cap`` bounds the combined weight sum of the two partitions (lex
    comparison), ``entries`` is the pool of allowed partition entries,
    ``kmax`` and ``rmax`` cap the h2 and z exponents.  ``lmax`` bounds
    the combined number of partition entries; it is required whenever
    cap[0] > 0, because an entry like (0,1) could otherwise repeat
    forever without the weight sum ever exceeding the cap
    lexicographically.
    """

    def __init__(self, cap, entries, kmax, rmax, lmax=None):
        cap = tuple(exact_int(c, "a cap component") for c in cap)
        if len(cap) != 2 or cap < (0, 0):
            raise ValueError("the weight-sum cap must be two ints, lex-nonnegative, got %r"
                             % (cap,))
        if cap[0] > 0 and lmax is None:
            raise ValueError(
                "an entry-count bound (lmax) is required when the cap allows "
                "positive first components"
            )
        self.cap = cap
        self.entries = Partition(entries).support()
        self._pool = frozenset(self.entries)
        self.kmax = exact_int(kmax, "kmax", 0)
        self.rmax = exact_int(rmax, "rmax", 0)
        self.lmax = None if lmax is None else exact_int(lmax, "lmax", 0)

    def _key(self):
        return (self.cap, self.entries, self.kmax, self.rmax, self.lmax)

    def __eq__(self, other):
        if not isinstance(other, Truncation):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Truncation(cap=%r, entries=%r, kmax=%d, rmax=%d, lmax=%r)" % (
            self.cap, self.entries, self.kmax, self.rmax, self.lmax)

    def _partitions(self, base_total, base_count):
        """All pool partitions p with base_total + |p| <= cap (and count bound)."""
        out = []
        pool = self.entries
        lmax = self.lmax

        def rec(start, chosen, total):
            out.append(Partition(chosen))
            if lmax is not None and base_count + len(chosen) >= lmax:
                return
            for j in range(start, len(pool)):
                t2 = weight_add(total, pool[j])
                if t2 > self.cap:
                    # pool is lex-ascending and sums are translation
                    # monotone, so later entries overshoot as well
                    break
                rec(j, chosen + [pool[j]], t2)

        rec(0, [], base_total)
        return out

    def basis(self):
        """All basis monomials inside the slice, canonically ordered."""
        monos = []
        for lam in self._partitions((0, 0), 0):
            for mu in self._partitions(lam.weight_sum(), len(lam)):
                for k in range(self.kmax + 1):
                    for r in range(self.rmax + 1):
                        monos.append(BasisMonomial(lam, mu, k, r))
        monos.sort(key=_monomial_key)
        return monos

    def contains(self, mono: BasisMonomial) -> bool:
        if mono.k > self.kmax or mono.r > self.rmax:
            return False
        pool = self._pool
        for e in tuple(mono.lam) + tuple(mono.mu):
            if e not in pool:
                return False
        if self.lmax is not None and len(mono.lam) + len(mono.mu) > self.lmax:
            return False
        total = weight_add(mono.lam.weight_sum(), mono.mu.weight_sum())
        return total <= self.cap

    def contains_vector(self, v: ModuleVector) -> bool:
        return all(self.contains(mono) for mono in v._terms)

    def induced_box(self):
        """The positive weights of the slice span's raising operators.

        First components of a monomial's entries total at most cap[0];
        second components are bounded through lmax (or through cap[1]
        when only (0, m) entries fit).  The margin of 3 is no proven
        bound for the span.  It covers the (0,1)- and (0,2)-shifts of
        single entries that the congruence rules name, so the box holds
        every operator whittaker_space applies (see _rule_operators).
        """
        usable = [e for e in self.entries if e <= self.cap]
        m1 = self.cap[0]
        if self.lmax is not None:
            worst = max((abs(e[1]) for e in usable), default=0)
            m2 = self.lmax * worst
        else:
            m2 = max(self.cap[1], 0)
        box = weight_box(m1 + 3, m2 + 3)
        if not any(e[0] > 0 for e in usable):
            # no slice monomial carries a positive first component, so
            # operators at (a1 > 0, *) have identically zero defect
            box = [a for a in box if a[0] == 0]
        return box

    def to_json(self) -> dict:
        data = {
            "cap": list(self.cap),
            "entries": [list(e) for e in self.entries],
            "kmax": self.kmax,
            "rmax": self.rmax,
        }
        if self.lmax is not None:
            data["lmax"] = self.lmax
        return data

    @staticmethod
    def from_json(data) -> "Truncation":
        return Truncation(data["cap"], data["entries"], data["kmax"], data["rmax"],
                          data.get("lmax"))


# ---------------------------------------------------------------------------
# exact linear algebra


def _primitive(row):
    """A new row: row's entries scaled to coprime ints.

    The entries may be ints or Fractions; the zero row stays empty.
    """
    den = lcm(*(v.denominator for v in row.values()))
    out = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*out.values())
    if g > 1:
        for c in out:
            out[c] //= g
    return out


def _eliminate(row, lead, prow):
    """Clear column lead of the int row in place, with the int pivot row prow.

    Fraction-free (Bareiss 1968): row becomes (b row - a prow) / gcd(a, b)
    for a = row[lead], b = prow[lead], then its content is divided out.
    That is a nonzero multiple of the Fraction step row - (a/b) prow, so
    the rows an elimination reaches are the same up to scale.
    """
    a = row.pop(lead)
    b = prow[lead]
    g = gcd(a, b)
    a //= g
    b //= g
    if b != 1:
        for c in row:
            row[c] *= b
    for c, v in prow.items():
        if c == lead:
            continue
        nv = row.get(c, 0) - a * v
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


class _SparseEchelon:
    """Sparse exact rows in echelon form, one per pivot column.

    Rows come in as dicts column -> int or Fraction and are held as
    primitive int rows, each with its smallest column as pivot;
    elimination is fraction-free (see _eliminate).
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def insert(self, row):
        """Reduce row against the pivots.

        Returns the new pivot row normalized to 1 at its pivot, with
        Fraction entries, or None if row depends on the rows already
        held.  The argument is left unchanged.
        """
        pivots = self.pivots
        row = _primitive(row)
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                top = row[lead]
                return {c: Fraction(v, top) for c, v in row.items()}
            _eliminate(row, lead, prow)
        return None

    def nullspace(self, ncols):
        """Basis of the nullspace over columns 0..ncols-1.

        One dict of Fractions per free column, normalized so the free
        coordinate is 1.  Back substitution reduces the held rows in
        place, so this is the last call on the echelon.
        """
        pivots = self.pivots
        for lead in sorted(pivots, reverse=True):
            prow = pivots[lead]
            for other, orow in pivots.items():
                if other < lead and lead in orow:
                    _eliminate(orow, lead, prow)
        basis = []
        for col in range(ncols):
            if col in pivots:
                continue
            vec = {col: Fraction(1)}
            for lead, prow in pivots.items():
                v = prow.get(col)
                if v:
                    vec[lead] = Fraction(-v, prow[lead])
            basis.append(vec)
        return basis


def _exact(s: Scalar):
    """A rational Scalar as an int when it is integral, else as a Fraction."""
    q = s.as_fraction()
    return q.numerator if q.denominator == 1 else q


class _SliceOperators:
    """The operators a slice computation applies, with their images.

    ``monos`` is the slice basis in canonical order and ``index`` maps a
    monomial to its column.  ``ops`` holds the operators: first the
    ``raising`` ones d_i(alpha) for alpha in the induced box, then the
    lowering d_i(-e) for e in the entry pool, then h2 and z.  The slice
    span applies all of them; whittaker_space applies only the raising
    ones that a rule names.

    ``image(o, j)`` is ops[o] applied to monos[j] as a pair of rows
    {column: coefficient}: the part inside the slice, and the part
    outside it.  Monomials outside the slice get distinct columns from
    len(monos) on, drawn from a counter, so threads filling one table
    never give two monomials the same column.  Coefficients are ints
    when integral and Fractions otherwise.  Each image is computed once,
    on first use, and kept for the life of the table.

    This table is the only memo of module images that outlives a call to act.
    Tables come from _slice_table, which keeps the last one, so
    back-to-back calls on one slice and type share it: at most
    len(ops) * len(monos) images are held (after whittaker_space alone,
    only those of the operators it applies), and they are released when
    a call on another slice or type replaces the table.
    """

    def __init__(self, trunc: Truncation, spec: PsiSpec):
        self.monos = trunc.basis()
        self.index = {m: j for j, m in enumerate(self.monos)}
        self.ops = [d(i, alpha) for alpha in trunc.induced_box() for i in (1, 2)]
        self.raising = len(self.ops)
        self.ops += [d(i, (-e[0], -e[1])) for e in trunc.entries for i in (1, 2)]
        self.ops += [d(2, (0, 0)), d(1, (0, 0))]
        self._spec = spec
        self._outer = {}
        self._fresh = itertools.count(len(self.monos))
        self._images = [[None] * len(self.monos) for _ in self.ops]

    def image(self, o, j):
        img = self._images[o][j]
        if img is None:
            inside, outside = {}, {}
            index, outer = self.index, self._outer
            v = ModuleVector._raw({self.monos[j]: ONE})
            for m, c in act(self.ops[o], v, self._spec)._terms.items():
                col = index.get(m)
                if col is not None:
                    inside[col] = _exact(c)
                else:
                    col = outer.setdefault(m, next(self._fresh))
                    outside[col] = _exact(c)
            img = self._images[o][j] = (inside, outside)
        return img

    def apply(self, o, row):
        """ops[o] applied to the slice vector row {column: coefficient}.

        Returns the image inside the slice, or None when the part outside
        does not cancel exactly.
        """
        # the cached images are read inline, not through image(): this
        # loop runs for every term of every candidate
        images = self._images[o]
        terms = []
        for j, c in row.items():
            img = images[j]
            terms.append((img if img is not None else self.image(o, j), c))
        leaving = {}
        for (_, outside), c in terms:
            for col, v in outside.items():
                leaving[col] = leaving.get(col, 0) + c * v
        if any(leaving.values()):
            return None
        out = {}
        for (inside, _), c in terms:
            for col, v in inside.items():
                out[col] = out.get(col, 0) + c * v
        return {col: v for col, v in out.items() if v}


@functools.lru_cache(maxsize=1)
def _slice_table(trunc: Truncation, spec: PsiSpec) -> _SliceOperators:
    """The image table of the slice under the type, kept until the next
    call asks for another slice or type."""
    return _SliceOperators(trunc, spec)


def whittaker_space(trunc: Truncation, spec: PsiSpec):
    """Basis of the truncated space of vectors on which every positive
    generator acts by its type value.

    Assembles the defect of every operator that a rule names at the
    slice (_rule_operators) against every slice basis vector and returns
    the exact nullspace, one ModuleVector per free column, in canonical
    basis order.  Always contains the pure z-polynomial vectors z^r w;
    containing nothing else is the desk-scale content of the
    classification.

    Those operators suffice.  They are positive, so every Whittaker
    vector lies in the nullspace, and they annihilate the part in C[z]w
    of any slice vector.  What is left of a vector outside C[z]w has its
    degree above TRIPLE_MIN, and the operator _rule_at names there does
    not annihilate it (verify_lemma and the reduction's NonDescent guard
    check those congruences).  So the nullspace is C[z]w within the
    slice, as over any larger set of positive operators.

    The defect rows are eliminated sparsest first (Markowitz's ordering
    in its simplest form), which keeps fill-in low.  The reduced echelon
    form is canonical, so the basis does not depend on the row order.
    """
    if spec.is_symbolic():
        raise SingularPsi("whittaker_space needs a specialized nonsingular type")
    table = _slice_table(trunc, spec)
    # the box holds every operator a rule names (see induced_box)
    box = {x.terms()[0][:2]: o for o, x in enumerate(table.ops[:table.raising])}
    named = sorted(box[key] for key in _rule_operators(table.monos))
    values = [_exact(psi_eval(table.ops[o], spec)) for o in named]
    # rows[(o, col)][j]: coefficient of the table's column col in
    # (x - psi(x)) monos[j] for x = ops[o]
    rows = {}
    for j in range(len(table.monos)):
        for o, value in zip(named, values):
            for part in table.image(o, j):
                for col, c in part.items():
                    rows.setdefault((o, col), {})[j] = c
            if value:
                add_term(rows.setdefault((o, j), {}), j, -value)
    echelon = _SparseEchelon()
    for row in sorted(rows.values(), key=len):
        echelon.insert(row)
    space = []
    for vec in echelon.nullspace(len(table.monos)):
        terms = {}
        for col, q in vec.items():
            terms[table.monos[col]] = Scalar.rational(q)
        space.append(ModuleVector._raw(terms))
    return space


# ---------------------------------------------------------------------------
# reduction to a Whittaker polynomial


class ReductionStep(NamedTuple):
    """One recorded application of (D - psi(D))^exponent."""

    rule: str
    i: int
    alpha: Weight
    psi_value: Scalar
    exponent: int
    degree_after: Triple

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "op": {"i": self.i, "alpha": list(self.alpha)},
            "psi": self.psi_value.to_json(),
            "exponent": self.exponent,
            "degree_after": self.degree_after.to_json(),
        }


class ReductionTranscript(tuple):
    """The ReductionSteps of one reduction run, in order, replayable."""

    __slots__ = ()

    @property
    def steps(self):
        """The steps as a plain tuple."""
        return tuple(self)

    def replay(self, v: ModuleVector, psi: PsiSpec = SYMBOLIC, a=None) -> ModuleVector:
        """Re-apply the recorded operators to v and return the result.

        With ``a`` set, every intermediate is projected through z -> a,
        matching a quotient-mode run.
        """
        cur = quotient_project(v, a) if a is not None else v
        for step in self:
            cur = _apply_step(cur, d(step.i, step.alpha), step.psi_value, step.exponent, psi, a)
        return cur

    def to_json(self) -> dict:
        return {"steps": [s.to_json() for s in self]}


def _apply_step(v: ModuleVector, gen, pv: Scalar, exponent: int, psi: PsiSpec, a):
    """(gen - pv)^exponent applied to v; with a set, each factor's result
    is projected through z -> a."""
    for _ in range(exponent):
        v = act(gen, v, psi) - pv * v
        if a is not None:
            v = quotient_project(v, a)
    return v


def _measure_of(top: Triple):
    """The strictly descending reduction measure of a degree triple.

    Components: weight sum (lex), k, length of mu, total multiplicity of
    the positive-first-component lambda entries, length of lambda.
    """
    lam, mu, k = top
    pos = sum(lam.multiplicity(b) for b in lam.positive_support())
    return (top.weight_sum(), k, len(mu), pos, len(lam))


def _step_choice(ctx):
    """The rule that lowers the degree of ctx: (ident, i, alpha, exponent).

    _rule_at names the rule.  Rule 3.7 is applied k times at once, every
    other rule once.
    """
    ident = _rule_at(ctx)
    if ident is None:
        raise NonDescent("no reduction rule applies at degree %s" % (ctx.deg,))
    statement = RULES[ident].statement(ctx)
    return ident, statement.i, statement.alpha, (ctx.deg.k if ident == "3.7" else 1)


def _run_reduction(v: ModuleVector, psi: PsiSpec, a=None, max_steps=10000):
    """Shared descent loop; a=None runs in the module, else in the quotient.

    Returns the final z-polynomial and the transcript.
    """
    if a is not None:
        v = quotient_project(v, a)
    if not v:
        raise ZeroVector("cannot reduce the zero vector")
    steps = []
    cur = v
    ctx = RuleContext(cur)
    while ctx.deg != TRIPLE_MIN:
        if len(steps) >= max_steps:
            raise NonTermination("reduction exceeded %d steps" % max_steps)
        rule, i, alpha, expo = _step_choice(ctx)
        gen = d(i, alpha)
        pv = psi_eval(gen, psi)
        before = _measure_of(ctx.deg)
        cur = _apply_step(cur, gen, pv, expo, psi, a)
        if not cur:
            if a is not None:
                raise ProbeFailed("quotient reduction collapsed to zero at rule %s" % rule)
            raise NonDescent("reduction produced zero at rule %s" % rule)
        ctx = RuleContext(cur)
        after = _measure_of(ctx.deg)
        if not after < before:
            raise NonDescent(
                "measure failed to drop at rule %s: %r -> %r" % (rule, before, after))
        steps.append(ReductionStep(rule, i, alpha, pv, expo, ctx.deg))
    return ctx.lead_poly, ReductionTranscript(steps)


def reduce_to_whittaker(v: ModuleVector, spec: PsiSpec = SYMBOLIC, max_steps=10000):
    """Drive v down to a nonzero polynomial f with f(z)w in the orbit of v.

    Returns (f, transcript).  Raises ZeroVector on zero input,
    NonTermination past the step cap, and NonDescent if no rule applies
    or an application ever fails to lower the degree measure (both
    signal engine bugs, since the congruence rules guarantee descent).
    """
    return _run_reduction(v, spec, None, max_steps)


# ---------------------------------------------------------------------------
# the quotient where z acts by a


def quotient_project(v: ModuleVector, a) -> ModuleVector:
    """Image of v under z -> a, an int or Fraction: each z-exponent becomes the factor a^r."""
    a = exact_rational(a, "the value a of z")
    terms = {}
    for mono, c in v._terms.items():
        if mono.r:
            c = c * Scalar.rational(a ** mono.r)
            mono = BasisMonomial(mono.lam, mono.mu, mono.k, 0)
        if c:
            add_term(terms, mono, c)
    return ModuleVector._raw(terms)


def quotient_act(x, v: ModuleVector, a, spec: PsiSpec = SYMBOLIC) -> ModuleVector:
    """Action in the quotient: project, act, project again."""
    return quotient_project(act(x, quotient_project(v, a), spec), a)


def simplicity_probe(v: ModuleVector, a, spec: PsiSpec) -> Scalar:
    """Reduce v inside the quotient; return the scalar c with c*w in its orbit.

    A nonzero return is the desk-scale simplicity evidence.  Raises
    ZeroVector if v projects to zero and ProbeFailed if the reduction
    ever collapses (which the classification says must not happen).
    """
    if spec.is_symbolic():
        raise SingularPsi("simplicity_probe needs a specialized nonsingular type")
    poly, _ = _run_reduction(v, spec, a=a)
    return poly.coeff(0)


# ---------------------------------------------------------------------------
# submodule generators


def _slice_span(seeds, trunc: Truncation, spec: PsiSpec):
    """Echelonized spanning set of the operator closure inside the slice.

    The spin-up of Parker's Meat-Axe (1984) over the slice's image
    table: breadth-first from the in-slice seeds, each kept raw row is
    mapped by every operator and the images that add a new direction
    are kept in turn.  Images leaving the slice are dropped, so the
    result is sound but only slice-complete.  Returns the new echelon
    rows, normalized, as vectors in the order they were found.
    """
    table = _slice_table(trunc, spec)
    monos = table.monos
    ops = range(len(table.ops))
    # the raw images stay sparse, while the echelon rows (kept only to
    # detect new directions) fill in
    echelon = _SparseEchelon()
    queue = []
    spanned = []
    candidates = [{table.index[m]: _exact(c) for m, c in vec._terms.items()}
                  for vec in seeds if vec and trunc.contains_vector(vec)]
    while True:
        for row in candidates:
            if not row:
                continue
            new = echelon.insert(row)
            if new is not None:
                queue.append(row)
                spanned.append(ModuleVector._raw({monos[c]: Scalar.rational(q)
                                                  for c, q in new.items()}))
        if not queue:
            return spanned
        cur = queue.pop()
        candidates = [table.apply(o, cur) for o in ops]


def submodule_generator(gens, trunc: Truncation, spec: PsiSpec) -> ZPoly:
    """Monic generator of the Whittaker ideal of the submodule the
    generators span, computed relative to the truncated slice.

    Each generator is reduced to a polynomial and the monic gcd taken;
    then the slice span of the submodule is searched for elements whose
    coordinate remainders modulo the current gcd reduce to polynomials
    of smaller degree, until a full pass brings no improvement.
    """
    if spec.is_symbolic():
        raise SingularPsi("submodule_generator needs a specialized nonsingular type")
    gens = [g.specialize(spec) for g in gens]
    if not gens:
        raise ValueError("at least one generator is required")
    g = None
    for u in gens:
        if not u:
            raise ZeroVector("generators must be nonzero")
        f, _ = reduce_to_whittaker(u, spec)
        g = f if g is None else poly_gcd(g, f)
    g = g.monic()
    if g.degree == 0:
        return g
    span = _slice_span(gens, trunc, spec)
    improved = True
    while improved:
        improved = False
        for vec in span:
            polys = vec.by_triple()
            remainders = {}
            for t, poly in polys.items():
                _, rem = poly.divmod_by(g)
                if rem:
                    remainders[t] = rem
            if not remainders:
                continue
            v2 = ModuleVector.from_triples(remainders)
            f2, _ = reduce_to_whittaker(v2, spec)
            g2 = poly_gcd(g, f2).monic()
            if g2 != g:
                g = g2
                improved = True
                if g.degree == 0:
                    return g
    return g


# ---------------------------------------------------------------------------
# the congruence rule registry


class RuleContext:
    """The degree data of a nonzero vector that the congruence rules read.

    ``polys`` is the vector regrouped by triple; ``deg`` its degree
    triple, ``lead_poly`` the z-polynomial there and ``level`` the
    weight sum N of ``deg``; ``lower_top`` the largest triple at weight
    level N - (0,1), or None when that level is empty.
    """

    def __init__(self, v: ModuleVector):
        self.polys = v.by_triple()
        self.deg = triple_max(self.polys)
        self.lead_poly = self.polys[self.deg]
        self.level = self.deg.weight_sum()
        low = weight_add(self.level, (0, -1))
        lower = [t for t in self.polys if t.weight_sum() == low]
        self.lower_top = triple_max(lower) if lower else None


class Statement(NamedTuple):
    """What a rule states at a context: with D = d_i(alpha), (D - psi(D)) u w
    is congruent to coefficient * poly(z) x_target w modulo everything below
    target.  The coefficient is (rational, type-value index or None), as
    exact computation gives it."""

    i: int
    alpha: Weight
    target: Triple
    poly: ZPoly
    coefficient: tuple


class Rule(NamedTuple):
    """A registered congruence rule: its statement as a function of a context,
    the errata of its printed form, and the map from the computed coefficient
    to the printed one (None where that cannot be evaluated)."""

    statement: object
    errata: tuple = ()
    printed: object = lambda coefficient: coefficient


def _rule_at(ctx):
    """The ident of the one reduction rule that lowers ctx's degree, or
    None at TRIPLE_MIN.

    Partition entries are lex-positive, so first components are >= 0: a
    least mu entry whose first component is not positive has first
    component 0, as 3.8.2 requires, and at the level (0, n) that the
    last branches reach every entry has first component 0, so the least
    lower mu entry does too, as 3.11.2 requires.
    """
    lam, mu, k = ctx.deg
    if k > 0:
        return "3.7"
    if mu:
        return "3.8.1" if mu[0][0] > 0 else "3.8.2"
    if lam.positive_support():
        return "3.9"
    if not lam:
        return None
    lower = ctx.lower_top
    if lower is None:
        return "3.10"
    if lower.k > 0:
        return "3.11.1"
    return "3.11.2" if lower.mu else "3.11.3"


# One statement per rule.  Partitions hold their entries sorted, so p[0]
# is the least entry of a nonempty p.


def _omega(ctx):
    return Statement(*OMEGA[ctx.omega_index], ctx.deg, ctx.lead_poly, (0, None))


def _lower_k(ctx):
    lam, mu, k = ctx.deg
    return Statement(2, TWO_EPS2, Triple(lam, mu, k - 1), ctx.lead_poly, (-2 * k, 3))


def _mu_positive_first(ctx):
    lam, mu, _ = ctx.deg
    beta = mu[0]
    return Statement(1, weight_add(beta, TWO_EPS2), Triple(lam, mu.remove_one(beta), 0),
                     ctx.lead_poly, (-beta[0] * mu.multiplicity(beta), 3))


def _mu_zero_first(ctx):
    lam, mu, _ = ctx.deg
    beta = mu[0]
    return Statement(2, weight_add(beta, TWO_EPS2), Triple(lam, mu.remove_one(beta), 0),
                     ctx.lead_poly, (-2 * (beta[1] + 1) * mu.multiplicity(beta), 3))


def _lam_positive_first(ctx):
    lam = ctx.deg.lam
    alpha = min(lam.positive_support())
    return Statement(2, weight_add(alpha, TWO_EPS2), Triple(lam.remove_one(alpha), EMPTY, 0),
                     ctx.lead_poly, (-alpha[0] * lam.multiplicity(alpha), 3))


def _lam_least(ctx):
    lam = ctx.deg.lam
    alpha = lam[0]
    return Statement(2, weight_add(alpha, EPS2), Triple(lam.remove_one(alpha), EMPTY, 0),
                     ctx.lead_poly, (-alpha[1] * lam.multiplicity(alpha), 1))


def _lower_level_k(ctx):
    lam, mu, k = lower = ctx.lower_top
    return Statement(1, EPS2, Triple(lam, mu, k - 1), ctx.polys[lower], (-k, 1))


def _lower_level_mu(ctx):
    lam, mu, _ = lower = ctx.lower_top
    eta = mu[0]
    return Statement(1, weight_add(eta, EPS2), Triple(lam, mu.remove_one(eta), 0),
                     ctx.polys[lower], (-(eta[1] + 1) * mu.multiplicity(eta), 1))


RULES = {
    "3.5": Rule(_omega),
    "3.7": Rule(_lower_k),
    "3.8.1": Rule(
        _mu_positive_first,
        ("the derivation's final display carries the opposite sign; the statement's "
         "sign agrees with exact computation and is the one checked here",)),
    "3.8.2": Rule(_mu_zero_first),
    "3.9": Rule(_lam_positive_first),
    "3.10": Rule(_lam_least),
    "3.11.1": Rule(_lower_level_k),
    "3.11.2": Rule(
        _lower_level_mu,
        ("the printed coefficient uses the weight beta itself as a scalar and cannot "
         "be evaluated; exact computation gives -(beta_2 + 1) times the multiplicity "
         "times the type value of d1((0,1))",),
        lambda coefficient: None),
    # 3.11.3 states what 3.10 does, at a nonempty lower level
    "3.11.3": Rule(
        _lam_least,
        ("the printed coefficient carries the type value of d2((0,1)); exact "
         "computation gives the value of d1((0,1)), matching the parallel "
         "empty-lower-level rule",),
        lambda coefficient: (coefficient[0], 2)),
}


def _rule_operators(monos):
    """The operators (i, alpha) that RULES name at the vectors spanned by monos.

    A statement reads the degree triple and the largest triple one level
    below it, and any two triples of monos, the second one level below
    the first, are that data for their sum.  For a slice basis the set is
    therefore exactly:

    * d2(TWO_EPS2) when some k is positive (3.7);
    * for each entry e of a monomial, d2(e + TWO_EPS2) (3.8.2, 3.9), and
      d1(e + TWO_EPS2) when e[0] > 0 (3.8.1), else d2(e + EPS2) (3.10,
      3.11.3);
    * when monomials lie at levels (0, n) and (0, n - 1) for some n:
      d1(EPS2) when some k is positive (3.11.1), and d1(e + EPS2) for
      each entry e of the lower level (3.11.2).

    The slice is closed under taking an entry out of a monomial, so each
    entry is the least of a one-entry lambda or mu there.
    """
    levels = {}
    for m in monos:
        levels.setdefault(m.triple.weight_sum(), set()).update(m.lam, m.mu)
    raised = any(m.k for m in monos)
    named = {(2, TWO_EPS2)} if raised else set()
    for e in set().union(*levels.values()):
        named.add((2, weight_add(e, TWO_EPS2)))
        named.add((1, weight_add(e, TWO_EPS2)) if e[0] > 0 else (2, weight_add(e, EPS2)))
    for a, n in levels:
        below = levels.get((a, n - 1))
        if a == 0 and below is not None:
            if raised:
                named.add((1, EPS2))
            named.update((1, weight_add(e, EPS2)) for e in below)
    return named


class LemmaInstance(RuleContext):
    """A vector and its rule context, checked against one rule's hypotheses.

    The constructor raises HypothesisViolated when the hypotheses fail:
    a reduction rule holds exactly where _rule_at names it.  Rule "3.5"
    is no reduction rule (its leading coefficient is zero) and needs a
    vector on one basis triple; it also carries omega_index, choosing
    the operator out of the three generators with nonzero type value.
    """

    def __init__(self, ident, uw: ModuleVector, omega_index=None):
        if ident not in RULES:
            raise ValueError("unknown rule %r; known: %s" % (ident, sorted(RULES)))
        if not uw:
            raise HypothesisViolated("rule %s: the zero vector is not an instance" % ident)
        if omega_index is not None and ident != "3.5":
            raise ValueError("omega_index is only meaningful for rule 3.5")
        super().__init__(uw)
        self.ident = ident
        self.uw = uw
        self.omega_index = omega_index
        if ident == "3.5":
            if len(self.polys) != 1:
                raise HypothesisViolated(
                    "rule 3.5: needs a vector supported on a single basis triple")
            if omega_index not in (0, 1, 2):
                raise HypothesisViolated(
                    "rule 3.5: needs an operator choice omega_index in {0, 1, 2}")
        else:
            applies = _rule_at(self)
            if applies != ident:
                raise HypothesisViolated("rule %s does not apply at degree %s; %s does" % (
                    ident, self.deg, "no rule" if applies is None else "rule " + applies))

    def __repr__(self):
        return "LemmaInstance(%r, deg=%s)" % (self.ident, self.deg)

    def to_json(self) -> dict:
        data = {
            "lemma": self.ident,
            "uw": self.uw.to_json(),
            "deg": self.deg.to_json(),
            "N": list(self.level),
        }
        if self.omega_index is not None:
            data["omega_index"] = self.omega_index
        return data


class VerifyReport(NamedTuple):
    """Outcome of checking one instance against its rule.

    ``computed`` is the defect's component at the target triple (the
    engine's exact leading term); ``printed`` the rule's own leading
    term, or None when the printed form cannot be evaluated; ``match``
    whether they agree exactly; ``filtration_ok`` whether the rest of
    the defect lies strictly below the target.
    """

    ident: str
    instance: LemmaInstance
    match: bool
    filtration_ok: bool
    computed: ModuleVector
    printed: object
    errata: tuple

    @property
    def passed(self) -> bool:
        return self.match and self.filtration_ok

    def to_json(self) -> dict:
        return {
            "lemma": self.ident,
            "instance": self.instance.to_json(),
            "match": self.match,
            "filtration_ok": self.filtration_ok,
            "computed": self.computed.to_json(),
            "printed": None if self.printed is None else self.printed.to_json(),
            "errata": list(self.errata),
        }


def verify_lemma(inst: LemmaInstance, spec: PsiSpec = SYMBOLIC,
                 stated: bool = False) -> VerifyReport:
    """Check one instance: exact defect against the rule's leading term.

    With ``stated`` the printed coefficient is used verbatim, so rules
    whose printed form disagrees with exact computation fail; by default
    the computation-backed coefficient is checked and the discrepancies
    are reported through the errata field.
    """
    rule = RULES[inst.ident]
    i, alpha, target, poly, coefficient = rule.statement(inst)
    gen = d(i, alpha)
    pv = psi_eval(gen, spec)
    uw = inst.uw if spec.is_symbolic() else inst.uw.specialize(spec)
    defect = act(gen, uw, spec) - pv * uw
    computed_poly = defect.by_triple().get(target, ZPoly())
    computed = ModuleVector.from_triples({target: computed_poly})
    errata = rule.errata
    if stated:
        coefficient = rule.printed(coefficient)
    if coefficient is None:
        printed, match = None, False
        filtration_ok = in_filtration(defect, target)
        errata = errata + ("the stated coefficient is not evaluable",)
    else:
        q, j = coefficient
        c = Scalar.rational(q)
        if j is not None:
            c = c * spec.generator_value(j)
        if not spec.is_symbolic():
            poly = poly.specialize(spec)
        poly = poly * c
        printed = ModuleVector.from_triples({target: poly})
        match = computed_poly == poly
        filtration_ok = in_filtration(defect - printed, target)
    return VerifyReport(inst.ident, inst, match, filtration_ok, computed, printed, errata)


# ---------------------------------------------------------------------------
# random instances for the verification harness


_ZERO_FIRST = ((0, 1), (0, 2), (0, 3))
_MIXED = ((1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 1))


def _rand_fraction(rng, nonzero=False):
    num = rng.randint(-3, 3)
    if nonzero:
        while num == 0:
            num = rng.randint(-3, 3)
    return Fraction(num, rng.choice((1, 1, 1, 2)))


def _rand_poly(rng, maxdeg=2) -> ZPoly:
    deg = rng.randint(0, maxdeg)
    coeffs = [Scalar.rational(_rand_fraction(rng)) for _ in range(deg)]
    coeffs.append(Scalar.rational(_rand_fraction(rng, nonzero=True)))
    return ZPoly(coeffs)


def _rand_partition(rng, pool, maxlen=2, minlen=0) -> Partition:
    return Partition([rng.choice(pool) for _ in range(rng.randint(minlen, maxlen))])


def _int_partition(rng, total) -> Partition:
    parts = []
    while total > 0:
        p = rng.randint(1, total)
        parts.append((0, p))
        total -= p
    return Partition(parts)


def _sprinkle(rng, parts, top, keep=None, tries=6):
    """Add junk terms strictly below top (and passing the keep filter)."""
    pool = _ZERO_FIRST + _MIXED
    for _ in range(rng.randint(0, tries)):
        t = Triple(_rand_partition(rng, pool),
                   _rand_partition(rng, pool, maxlen=1),
                   rng.randint(0, 2))
        if t in parts or not triple_prec(t, top):
            continue
        if keep is not None and not keep(t):
            continue
        parts[t] = _rand_poly(rng)


def _add_same_level(rng, parts, top, n):
    """Add up to two pure-lambda triples of weight sum (0, n) below top."""
    for _ in range(rng.randint(0, 2)):
        t = Triple(_int_partition(rng, n), EMPTY, 0)
        if t not in parts and triple_prec(t, top):
            parts[t] = _rand_poly(rng)


def random_instance(ident, rng) -> LemmaInstance:
    """A random valid instance of the rule, junk terms included."""
    if ident == "3.5":
        t = Triple(_rand_partition(rng, _ZERO_FIRST + _MIXED),
                   _rand_partition(rng, _ZERO_FIRST + _MIXED, maxlen=1),
                   rng.randint(0, 2))
        return LemmaInstance("3.5", ModuleVector.from_triples({t: _rand_poly(rng)}),
                             omega_index=rng.randrange(3))

    if ident == "3.7":
        top = Triple(_rand_partition(rng, _ZERO_FIRST + _MIXED),
                     _rand_partition(rng, _ZERO_FIRST + _MIXED, maxlen=1),
                     rng.randint(1, 3))
        parts = {top: _rand_poly(rng)}
        _sprinkle(rng, parts, top)
        return LemmaInstance("3.7", ModuleVector.from_triples(parts))

    if ident in ("3.8.1", "3.8.2"):
        alpha = rng.choice(_MIXED if ident == "3.8.1" else _ZERO_FIRST)
        extras = [e for e in _ZERO_FIRST + _MIXED if e >= alpha]
        mu = Partition([alpha] * rng.randint(1, 2)
                       + [rng.choice(extras) for _ in range(rng.randint(0, 2))])
        top = Triple(_rand_partition(rng, _ZERO_FIRST + _MIXED), mu, 0)
        parts = {top: _rand_poly(rng)}
        _sprinkle(rng, parts, top)
        return LemmaInstance(ident, ModuleVector.from_triples(parts))

    if ident == "3.9":
        alpha = rng.choice(_MIXED)
        later = [e for e in _MIXED if e >= alpha]
        lam = Partition([alpha] * rng.randint(1, 2)
                        + [rng.choice(later) for _ in range(rng.randint(0, 1))]
                        + [rng.choice(_ZERO_FIRST) for _ in range(rng.randint(0, 2))])
        top = Triple(lam, EMPTY, 0)
        parts = {top: _rand_poly(rng)}
        _sprinkle(rng, parts, top)
        return LemmaInstance("3.9", ModuleVector.from_triples(parts))

    # the pure-lambda endgames: deg = (lam', 0, 0) with level (0, n)
    lam = _rand_partition(rng, _ZERO_FIRST, maxlen=3, minlen=1)
    if ident == "3.11.2" and lam.weight_sum()[1] < 2:
        # the lower level must fit a nonempty mu part
        lam = lam.add_one((0, 1))
    top = Triple(lam, EMPTY, 0)
    n = lam.weight_sum()[1]
    parts = {top: _rand_poly(rng)}

    def below_lower(t):
        return t.weight_sum() < (0, n - 1)

    if ident == "3.10":
        # same-level company is allowed, the next level down must be empty
        _add_same_level(rng, parts, top, n)
        _sprinkle(rng, parts, top, keep=below_lower)
        return LemmaInstance("3.10", ModuleVector.from_triples(parts))

    if ident not in ("3.11.1", "3.11.2", "3.11.3"):
        raise ValueError("unknown rule %r" % (ident,))

    if ident == "3.11.1":
        split = rng.randint(0, n - 1)
        lower = Triple(_int_partition(rng, split), _int_partition(rng, n - 1 - split),
                       rng.randint(1, 2))
    elif ident == "3.11.2":
        eta_total = rng.randint(1, n - 1)
        lower = Triple(_int_partition(rng, n - 1 - eta_total),
                       _int_partition(rng, eta_total), 0)
    else:
        lower = Triple(_int_partition(rng, n - 1), EMPTY, 0)
    parts[lower] = _rand_poly(rng)
    _add_same_level(rng, parts, top, n)
    _sprinkle(rng, parts, top,
              keep=lambda t: below_lower(t) or
              (t.weight_sum() == (0, n - 1) and triple_prec(t, lower)))
    return LemmaInstance(ident, ModuleVector.from_triples(parts))
