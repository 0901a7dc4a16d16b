import random
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from whitmod.coeff import SYMBOLIC, PsiSpec, Scalar, SingularPsi, ZPoly
from whitmod.liecore import d, psi_eval
from whitmod.orders import EMPTY, Partition, Triple, TRIPLE_MIN
from whitmod.solver import (
    RULES,
    HypothesisViolated,
    LemmaInstance,
    ReductionTranscript,
    RuleContext,
    Truncation,
    _SparseEchelon,
    _rule_at,
    _rule_operators,
    _slice_span,
    _slice_table,
    quotient_act,
    quotient_project,
    random_instance,
    reduce_to_whittaker,
    simplicity_probe,
    submodule_generator,
    verify_lemma,
    whittaker_space,
)
from whitmod.wmod import (
    ModuleVector,
    ZeroVector,
    act,
    act_word,
    basis_vector,
    is_whittaker,
    w_vector,
    weight_box,
)

S1, S2, S3 = (Scalar.generator(j) for j in (1, 2, 3))
PSI123 = PsiSpec.of(1, 2, 3)
SMALL = Truncation((0, 2), [(0, 1), (0, 2)], kmax=1, rmax=2)
SUBMOD = Truncation((0, 3), [(0, 1), (0, 2)], kmax=2, rmax=6)


def zminus(a):
    return basis_vector(r=1) - a * w_vector()


# ---------------------------------------------------------------------------
# truncations


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation((0, 2), [(0, 0)], 1, 1)
    with pytest.raises(ValueError):
        Truncation((0, 2), [(-1, 1)], 1, 1)
    with pytest.raises(ValueError):
        Truncation((0, 2), [(0, 1)], -1, 0)
    # a cap allowing positive first components needs an entry-count bound
    with pytest.raises(ValueError):
        Truncation((1, 0), [(0, 1), (1, -1)], 1, 1)
    Truncation((1, 0), [(0, 1), (1, -1)], 1, 1, lmax=3)


def test_truncation_basis():
    monos = SMALL.basis()
    assert len(monos) == len(set(monos))
    for mono in monos:
        assert SMALL.contains(mono)
        assert mono.k <= 1 and mono.r <= 2
    lams = {mono.lam for mono in monos}
    assert Partition([(0, 1), (0, 1)]) in lams
    assert Partition([(0, 2)]) in lams
    # weight cap is lexicographic on the combined sum
    assert all(
        (mono.lam.weight_sum()[1] + mono.mu.weight_sum()[1]) <= 2 for mono in monos
    )
    assert not SMALL.contains_vector(basis_vector([(0, 3)]))
    assert SMALL.contains_vector(basis_vector([(0, 1)], [(0, 1)], k=1, r=2))


def test_truncation_box_restricts_to_zero_first():
    # no pool entry carries a positive first component, so the defect of
    # any (a1 > 0) operator vanishes identically and the box drops them
    assert all(a[0] == 0 for a in SMALL.induced_box())
    wide = Truncation((1, 2), [(0, 1), (1, -1)], 1, 1, lmax=2)
    assert any(a[0] > 0 for a in wide.induced_box())


def test_truncation_json_round_trip():
    assert Truncation.from_json(SMALL.to_json()) == SMALL
    wide = Truncation((1, 2), [(0, 1), (1, -1)], 1, 1, lmax=2)
    assert Truncation.from_json(wide.to_json()) == wide


# ---------------------------------------------------------------------------
# sparse exact elimination


def _reference_insert(pivots, row):
    """Reference: the library's former Fraction insert.

    Returns a copy of the normalized new pivot row, or None."""
    row = dict(row)
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            inv = Fraction(1) / row[lead]
            pivots[lead] = {c: v * inv for c, v in row.items()}
            return dict(pivots[lead])
        f = row.pop(lead)
        for c, v in prow.items():
            if c == lead:
                continue
            nv = row.get(c, Fraction(0)) - f * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
    return None


def _rref_nullspace(rows, ncols):
    """Reference: the library's former elimination, rows in the given order.

    Returns what each insert returned, and the nullspace basis."""
    pivots = {}
    inserted = [_reference_insert(pivots, row) for row in rows]
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for other, orow in pivots.items():
            if other >= lead or lead not in orow:
                continue
            f = orow.pop(lead)
            for c, v in prow.items():
                if c == lead:
                    continue
                nv = orow.get(c, Fraction(0)) - f * v
                if nv:
                    orow[c] = nv
                else:
                    orow.pop(c, None)
    basis = []
    for col in range(ncols):
        if col in pivots:
            continue
        vec = {col: Fraction(1)}
        for lead, prow in pivots.items():
            v = prow.get(col)
            if v:
                vec[lead] = -v
        basis.append(vec)
    return inserted, basis


def _dense_rank(rows, ncols):
    """Rank by textbook dense elimination, independent of both sparse codes."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / mat[rank][col]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


_entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


@st.composite
def sparse_matrices(draw):
    """(ncols, rows, shuffled rows): random rows plus zero, duplicate and
    dependent ones, up to 30 x 15."""
    ncols = draw(st.integers(1, 15))
    row = st.dictionaries(st.integers(0, ncols - 1), _entries, max_size=min(ncols, 5))
    rows = [{c: q for c, q in r.items() if q} for r in draw(st.lists(row, max_size=18))]
    for _ in range(draw(st.integers(0, 12))):
        if not rows:
            rows.append({})
            continue
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(_entries), draw(_entries)
        comb = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in set(a) | set(b)}
        rows.append({c: q for c, q in comb.items() if q})
    # some rows carry their integral entries as ints, as the slice span's do
    rows = [{c: int(q) if q.denominator == 1 else q for c, q in r.items()}
            if draw(st.booleans()) else r for r in rows]
    return ncols, rows, draw(st.permutations(rows))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(sparse_matrices())
def test_sparse_echelon_matches_reference(matrix):
    ncols, rows, shuffled = matrix
    _, expected = _rref_nullspace(rows, ncols)
    for order in (sorted(rows, key=len), shuffled):
        given_rows = [dict(row) for row in order]
        inserted, _ = _rref_nullspace(order, ncols)
        echelon = _SparseEchelon()
        # the slice span keeps exactly these returned rows
        assert [echelon.insert(row) for row in order] == inserted
        assert echelon.nullspace(ncols) == expected
        assert order == given_rows
    # exact certificate: a basis of the nullspace, with free coordinates 1
    assert len(expected) == ncols - _dense_rank(rows, ncols)
    free = [max(vec) for vec in expected]
    assert len(set(free)) == len(free)
    for vec, col in zip(expected, free):
        assert vec[col] == 1
        assert not set(vec) & (set(free) - {col})
        for row in rows:
            assert sum(q * vec.get(c, 0) for c, q in row.items()) == 0


def test_sparse_echelon_insert():
    echelon = _SparseEchelon()
    row = {2: Fraction(3), 4: Fraction(-1)}
    assert echelon.insert(row) == {2: Fraction(1), 4: Fraction(-1, 3)}
    assert row == {2: Fraction(3), 4: Fraction(-1)}
    assert echelon.insert({2: Fraction(-6), 4: Fraction(2)}) is None
    assert echelon.insert({}) is None
    assert echelon.insert({2: Fraction(1), 3: Fraction(1)}) == {3: Fraction(1), 4: Fraction(1, 3)}
    assert echelon.nullspace(5) == [
        {0: Fraction(1)}, {1: Fraction(1)}, {4: Fraction(1), 2: Fraction(1, 3), 3: Fraction(-1, 3)}]


def test_sparse_echelon_never_holds_its_argument():
    # an already primitive int row is a copy away from being held as is;
    # the slice span queues the very dict it inserts
    echelon = _SparseEchelon()
    first = {0: 1, 2: -3}
    assert echelon.insert(first) == {0: Fraction(1), 2: Fraction(-3)}
    second = {0: 2, 1: 5}
    assert echelon.insert(second) == {1: Fraction(1), 2: Fraction(6, 5)}
    assert echelon.insert({1: 5, 2: 6}) is None
    assert echelon.nullspace(3) == [{2: Fraction(1), 0: Fraction(3), 1: Fraction(-6, 5)}]
    assert first == {0: 1, 2: -3}
    assert second == {0: 2, 1: 5}


# ---------------------------------------------------------------------------
# the truncated space of Whittaker vectors


def test_whittaker_space_is_the_z_line():
    space = whittaker_space(SMALL, PSI123)
    assert len(space) == SMALL.rmax + 1
    for v in space:
        assert is_whittaker(v, PSI123)
        for mono, _ in v.terms():
            assert mono.lam == EMPTY and mono.mu == EMPTY and mono.k == 0


# a slice whose entries have positive first components, (1,.) ones included
POSITIVE_FIRST = Truncation((1, 0), [(0, 1), (1, -1), (1, 0), (1, 1)], kmax=1, rmax=1, lmax=3)


def _reference_whittaker_spaces(trunc, spec, boxes):
    """Reference: for each box, the nullspace over the slice of the defect
    rows of every d_i(alpha) with alpha in the box.

    The rows come from the public act (through _ReferenceImages, shared
    by the boxes) and are eliminated over Fractions by _rref_nullspace."""
    monos = trunc.basis()
    images = _ReferenceImages(spec)
    numbers = [images.number(m) for m in monos]
    spaces = []
    for box in boxes:
        rows = {}
        for alpha in box:
            for i in (1, 2):
                value = psi_eval(d(i, alpha), spec).as_fraction()
                for j, n in enumerate(numbers):
                    defect = images.act((i, alpha), {n: Fraction(1)})
                    defect[n] = defect.get(n, 0) - value
                    for n2, q in defect.items():
                        if q:
                            rows.setdefault((i, alpha, n2), {})[j] = q
        _, basis = _rref_nullspace(sorted(rows.values(), key=len), len(monos))
        spaces.append([ModuleVector({monos[c]: q for c, q in vec.items()}) for vec in basis])
    return spaces


@pytest.mark.parametrize("spec", [PSI123, PsiSpec.of(-2, 1, -3)], ids=str)
def test_whittaker_space_of_a_positive_first_slice(spec):
    assert len(POSITIVE_FIRST.basis()) == 72
    space = whittaker_space(POSITIVE_FIRST, spec)
    assert set(space) == {w_vector(), basis_vector(r=1)}
    # the rule operators find what the whole box finds, and three more
    # steps of operators in every direction find nothing more
    box = POSITIVE_FIRST.induced_box()
    wider = weight_box(max(a for a, _ in box) + 3, max(abs(b) for _, b in box) + 3)
    assert _reference_whittaker_spaces(POSITIVE_FIRST, spec, [box, wider]) == [space, space]


ZERO_FIRST_POOL = [(0, 1), (0, 2)]
POSITIVE_FIRST_POOL = [(1, -1), (1, 0), (1, 1)]


def _drawn_positive_first_slice(rng):
    """A slice with cap[0] in {1, 2}, an lmax, and entries drawn from both pools.

    A draw is drawn again unless some monomial of its basis holds a
    positive-first entry, and when it has more than 80 monomials, which
    keeps each reference classification over the whole induced box under
    about 0.6 s (2-CPU Xeon, Python 3.11); whittaker_space itself takes
    under 0.1 s.
    """
    while True:
        entries = (rng.sample(ZERO_FIRST_POOL, rng.randint(1, 2))
                   + rng.sample(POSITIVE_FIRST_POOL, rng.randint(1, 3)))
        trunc = Truncation((rng.randint(1, 2), rng.randint(-1, 2)), entries,
                           kmax=rng.randint(0, 1), rmax=rng.randint(0, 2), lmax=rng.randint(2, 3))
        basis = trunc.basis()
        if len(basis) <= 80 and any(a > 0 for m in basis for a, _ in m.lam + m.mu):
            return trunc


def _drawn_type(rng):
    return PsiSpec([Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4))
                    for _ in range(3)])


@pytest.mark.parametrize("seed", range(16))
def test_whittaker_space_of_drawn_positive_first_slices(seed):
    rng = random.Random(seed)
    trunc = _drawn_positive_first_slice(rng)
    spec = _drawn_type(rng)
    space = whittaker_space(trunc, spec)
    assert set(space) == {basis_vector(r=r) for r in range(trunc.rmax + 1)}
    assert _reference_whittaker_spaces(trunc, spec, [trunc.induced_box()]) == [space]


def _named_at_slice_vectors(trunc):
    """The (i, alpha) that RULES state, and the rules that state them, at
    each triple of the slice alone and together with each triple of the
    slice one weight level below it."""
    levels = {}
    for m in trunc.basis():
        levels.setdefault(m.triple.weight_sum(), set()).add(m.triple)
    named, idents = set(), set()
    for (a, n), triples in levels.items():
        below = levels.get((a, n - 1), set())
        for t in triples:
            for company in [{}] + [{u: ZPoly([1])} for u in below]:
                ctx = RuleContext(ModuleVector.from_triples({t: ZPoly([1]), **company}))
                ident = _rule_at(ctx)
                if ident is not None:
                    statement = RULES[ident].statement(ctx)
                    named.add((statement.i, statement.alpha))
                    idents.add(ident)
    return named, idents


def test_rule_operators_are_what_the_rules_name():
    # zero-first slices with and without the entry (0,1) (so with and
    # without adjacent levels), an lmax of 0, and the drawn positive-first
    # slices; kmax is 0 in some of them
    slices = [SMALL, SLICE_B, Truncation((0, 6), [(0, 2), (0, 3)], kmax=1, rmax=0),
              Truncation((0, 6), [(0, 2)], kmax=1, rmax=1),
              Truncation((1, 0), [(0, 1), (1, -1)], kmax=1, rmax=1, lmax=0), POSITIVE_FIRST]
    slices += [_drawn_positive_first_slice(random.Random(seed)) for seed in range(16)]
    seen = set()
    for trunc in slices:
        named, idents = _named_at_slice_vectors(trunc)
        assert _rule_operators(trunc.basis()) == named, trunc
        assert named <= {(i, alpha) for alpha in trunc.induced_box() for i in (1, 2)}
        seen |= idents
    assert seen == set(RULES) - {"3.5"}


def test_whittaker_space_needs_specialized_type():
    with pytest.raises(SingularPsi):
        whittaker_space(SMALL, SYMBOLIC)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_whittaker_vector_is_a_fixed_point():
    poly, transcript = reduce_to_whittaker(zminus(2))
    assert len(transcript) == 0
    assert poly == ZPoly([Scalar.rational(-2), Scalar.rational(1)])


def test_reduce_single_lambda_entry():
    # one (0,1) entry falls to rule 3.10 with coefficient -1 * psi1
    poly, transcript = reduce_to_whittaker(basis_vector([(0, 1)]))
    assert poly == ZPoly([-S1])
    (step,) = transcript.steps
    assert step.rule == "3.10"
    assert (step.i, step.alpha) == (2, (0, 2))
    assert step.degree_after == TRIPLE_MIN


def test_reduce_single_mu_entry():
    # one (0,1) entry in mu falls to rule 3.8.2 with coefficient -4 * psi3
    poly, transcript = reduce_to_whittaker(basis_vector(mu=[(0, 1)]))
    assert poly == ZPoly([Scalar.rational(-4) * S3])
    (step,) = transcript.steps
    assert step.rule == "3.8.2"
    assert (step.i, step.alpha) == (2, (0, 3))


def test_reduce_h_power():
    # h2 w falls to rule 3.7 in a single exponent-1 application
    poly, transcript = reduce_to_whittaker(basis_vector(k=1))
    assert poly == ZPoly([Scalar.rational(-2) * S3])
    (step,) = transcript.steps
    assert step.rule == "3.7" and step.exponent == 1
    # h2^2 w uses one exponent-2 application
    poly2, transcript2 = reduce_to_whittaker(basis_vector(k=2))
    (step2,) = transcript2.steps
    assert step2.exponent == 2
    assert poly2 == ZPoly([Scalar.rational(8) * S3 * S3])


def test_reduce_rejects_zero():
    with pytest.raises(ZeroVector):
        reduce_to_whittaker(w_vector() - w_vector())


WORD_POOL = [
    (1, (0, -1)),
    (1, (0, -2)),
    (1, (-1, 1)),
    (2, (0, -1)),
    (2, (0, -2)),
    (2, (-1, 0)),
    (2, (0, 0)),
    (1, (0, 0)),
]


def test_reduce_random_words_terminate_and_replay():
    rng = random.Random(0xBEEF)
    for trial in range(15):
        word = [rng.choice(WORD_POOL) for _ in range(rng.randint(1, 4))]
        v = act_word(word, w_vector(), PSI123)
        if not v:
            continue
        poly, transcript = reduce_to_whittaker(v, PSI123)
        assert poly.degree is not None, (trial, word)
        expected = sum(
            (c * basis_vector(r=r) for r, c in enumerate(poly.coeffs) if c),
            w_vector() - w_vector(),
        )
        assert transcript.replay(v, PSI123) == expected, (trial, word)


def test_reduce_symbolic_word():
    v = act_word([(1, (0, -2)), (2, (-1, 0))], w_vector())
    poly, transcript = reduce_to_whittaker(v)
    assert poly.degree is not None
    assert transcript.replay(v) == sum(
        (c * basis_vector(r=r) for r, c in enumerate(poly.coeffs) if c),
        w_vector() - w_vector(),
    )


def test_transcript_json():
    _, transcript = reduce_to_whittaker(basis_vector([(0, 1)], k=1))
    data = transcript.to_json()
    assert len(data["steps"]) == len(transcript)
    for entry in data["steps"]:
        assert {"rule", "op", "psi", "exponent", "degree_after"} <= set(entry)


# ---------------------------------------------------------------------------
# the quotient where z acts by a


def test_quotient_project():
    assert quotient_project(zminus(2), 2) == w_vector() - w_vector()
    assert quotient_project(zminus(2), 3) == w_vector()
    v = basis_vector([(0, 1)], r=2)
    assert quotient_project(v, Fraction(1, 2)) == Fraction(1, 4) * basis_vector([(0, 1)])


def test_quotient_act_matches_projected_action():
    v = basis_vector([(0, 1)], r=1)
    x = d(2, (0, -1))
    a = 2
    direct = quotient_act(x, v, a, PSI123)
    assert direct == quotient_project(act(x, quotient_project(v, a), PSI123), a)
    for mono, _ in direct.terms():
        assert mono.r == 0


def test_simplicity_probe_values():
    assert simplicity_probe(basis_vector([(0, 1)]), 2, PSI123) == Scalar.rational(-1)
    assert simplicity_probe(basis_vector(k=1), 2, PSI123) == Scalar.rational(-6)
    with pytest.raises(ZeroVector):
        simplicity_probe(zminus(2), 2, PSI123)
    with pytest.raises(SingularPsi):
        simplicity_probe(w_vector(), 2, SYMBOLIC)


def test_simplicity_probe_random_nonzero():
    rng = random.Random(0x51)
    for _ in range(10):
        word = [rng.choice(WORD_POOL) for _ in range(rng.randint(1, 3))]
        v = act_word(word, w_vector(), PSI123)
        if not quotient_project(v, 2):
            continue
        assert simplicity_probe(v, 2, PSI123)


# ---------------------------------------------------------------------------
# submodule generators


class _ReferenceImages:
    """The public act's images of basis monomials under one type, memoised.

    Monomials are numbered as they are met, and vectors are held as
    {number: Fraction}."""

    def __init__(self, spec):
        self.spec = spec
        self.monos = []
        self.numbers = {}
        self.images = {}

    def number(self, m):
        n = self.numbers.get(m)
        if n is None:
            n = self.numbers[m] = len(self.monos)
            self.monos.append(m)
        return n

    def act(self, op, vec):
        """d(*op) applied to vec, by linearity over the memoised images."""
        out = {}
        for n, q in vec.items():
            image = self.images.get((op, n))
            if image is None:
                v = act(d(*op), ModuleVector({self.monos[n]: 1}), self.spec)
                image = self.images[(op, n)] = [(self.number(m), c.as_fraction())
                                                for m, c in v._terms.items()]
            for n2, q2 in image:
                out[n2] = out.get(n2, 0) + q * q2
        return {n: q for n, q in out.items() if q}


# type -> its _ReferenceImages
_REFERENCE_IMAGES = {}


def _reference_slice_span(seeds, trunc, spec):
    """Reference: the library's former _slice_span.

    It acts on whole vectors with the public act (by linearity, through
    _ReferenceImages), tests slice membership with the truncation and
    eliminates over Fractions."""
    monos = trunc.basis()
    index = {m: j for j, m in enumerate(monos)}
    ops = [(i, alpha) for alpha in trunc.induced_box() for i in (1, 2)]
    ops += [(i, (-e[0], -e[1])) for e in trunc.entries for i in (1, 2)]
    ops += [(2, (0, 0)), (1, (0, 0))]
    images = _REFERENCE_IMAGES.setdefault(spec, _ReferenceImages(spec))
    columns = {}  # monomial number -> slice column, or None outside the slice

    def column(n):
        if n not in columns:
            m = images.monos[n]
            columns[n] = index[m] if trunc.contains(m) else None
        return columns[n]

    pivots = {}
    queue = []
    spanned = []
    candidates = [{images.number(m): c.as_fraction() for m, c in vec._terms.items()}
                  for vec in seeds]
    while True:
        for vec in candidates:
            row = {column(n): q for n, q in vec.items()}
            if not row or None in row:
                continue
            row = _reference_insert(pivots, row)
            if row is not None:
                queue.append(vec)
                spanned.append(ModuleVector({monos[c]: q for c, q in row.items()}))
        if not queue:
            return spanned
        cur = queue.pop()
        candidates = [images.act(op, cur) for op in ops]


SPAN_SLICES = [SMALL, Truncation((1, 1), [(0, 1), (1, -1), (1, 0)], kmax=1, rmax=1, lmax=2)]
SPAN_TYPES = [PSI123, PsiSpec.of(-1, 3, -2),
              PsiSpec.of(Fraction(1, 2), Fraction(-2, 3), 3), PsiSpec.of(2, Fraction(5, 4), -1)]
span_seeds = st.lists(
    st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=2),
              st.lists(st.sampled_from(WORD_POOL), max_size=2)),
    min_size=1, max_size=2)


@settings(derandomize=True, database=None, deadline=None, max_examples=27)
@given(st.lists(span_seeds, min_size=4, max_size=4), st.sampled_from(SPAN_SLICES),
       st.sampled_from(SPAN_TYPES))
def test_slice_span_matches_reference(seed_lists, trunc, spec):
    # each seed is a word applied to a small z-polynomial times w; the
    # seed sets of one example run on one image table, and at least one
    # set must reach into the slice
    compared = 0
    for seed_data in seed_lists:
        seeds = [act_word(word, sum((basis_vector(r=r, coeff=c) for r, c in enumerate(coeffs)),
                                    ModuleVector()), spec)
                 for coeffs, word in seed_data]
        if any(v and trunc.contains_vector(v) for v in seeds):
            assert _slice_span(seeds, trunc, spec) == _reference_slice_span(seeds, trunc, spec)
            compared += 1
    assume(compared)


SLICE_B = Truncation((0, 3), [(0, 1), (0, 3)], kmax=1, rmax=1)
SPAN_SEEDS = [zminus(2), act(d(1, (0, -1)), zminus(2), PSI123)]


def _fresh(fn, *args):
    """fn(*args) on a newly built slice table."""
    _slice_table.cache_clear()
    return fn(*args)


def test_interleaved_slice_calls_match_fresh_tables():
    # slice A with type 1, B with 1, A with 2, then A (built anew) with 1
    a_again = Truncation((0, 2), [(0, 2), (0, 1), (0, 1)], kmax=1, rmax=2)
    calls = [(SMALL, PSI123), (SLICE_B, PSI123), (SMALL, PsiSpec.of(-1, 3, -2)),
             (a_again, PSI123)]
    _slice_table.cache_clear()
    got = []
    for k, (trunc, spec) in enumerate(calls):
        table = _slice_table(trunc, spec)
        if k % 2:
            span = _slice_span(SPAN_SEEDS, trunc, spec)
            space = whittaker_space(trunc, spec)
        else:
            space = whittaker_space(trunc, spec)
            span = _slice_span(SPAN_SEEDS, trunc, spec)
        # both calls ran on the table of this slice and type
        assert _slice_table(trunc, spec) is table
        got.append((space, span))
    assert got == [(_fresh(whittaker_space, trunc, spec),
                    _fresh(_slice_span, SPAN_SEEDS, trunc, spec)) for trunc, spec in calls]


def test_truncation_hash_agrees_with_equality():
    same = [Truncation((0, 2), [(0, 1), (0, 2)], 1, 2),
            Truncation([0, 2], [(0, 2), (0, 1), [0, 1]], 1, 2)]
    assert same[0] == same[1] and hash(same[0]) == hash(same[1])
    assert len({SMALL, *same}) == 1
    others = [Truncation((0, 2), [(0, 1)], 1, 2), Truncation((0, 2), [(0, 1), (0, 2)], 0, 2),
              Truncation((0, 2), [(0, 1), (0, 2)], 1, 2, lmax=3), SLICE_B]
    assert len({SMALL, *others}) == 1 + len(others)


def test_two_threads_fill_one_table(monkeypatch):
    seed_sets = [SPAN_SEEDS[:1], SPAN_SEEDS[1:]]
    expected = [_fresh(_slice_span, seeds, SMALL, PSI123) for seeds in seed_sets]
    _slice_table.cache_clear()
    table = _slice_table(SMALL, PSI123)
    # hashing a monomial yields the interpreter to the other thread, so the
    # threads also switch between numbering a new monomial and storing it
    partition_hash = Partition.__hash__

    def yielding_hash(p):
        time.sleep(0)
        return partition_hash(p)

    monkeypatch.setattr(Partition, "__hash__", yielding_hash)
    start = threading.Barrier(2)
    results = [None, None]

    def run(k):
        start.wait()
        results[k] = _slice_span(seed_sets[k], SMALL, PSI123)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results == expected
    assert _slice_table(SMALL, PSI123) is table
    # no two monomials outside the slice share a column
    assert len(set(table._outer.values())) == len(table._outer)


def test_submodule_generator_principal():
    g = submodule_generator([zminus(2)], SUBMOD, PSI123)
    assert g == ZPoly([Scalar.rational(-2), Scalar.rational(1)])


def test_submodule_generator_coprime_pair():
    g = submodule_generator([zminus(1), zminus(2)], SUBMOD, PSI123)
    assert g == ZPoly([Scalar.rational(1)])


def test_submodule_generator_sees_through_operators():
    moved = act(d(1, (0, -1)), zminus(2), PSI123)
    g = submodule_generator([moved], SUBMOD, PSI123)
    assert g == ZPoly([Scalar.rational(-2), Scalar.rational(1)])


def test_submodule_generator_discovers_smaller_ideal():
    # h2 (z - 2) w - w generates everything even though its own reduction
    # polynomial is not constant; the span pass must find the improvement
    gen = act(d(2, (0, 0)), zminus(2), PSI123) - w_vector()
    g = submodule_generator([gen], SUBMOD, PSI123)
    assert g == ZPoly([Scalar.rational(1)])


def test_submodule_generator_guards():
    with pytest.raises(SingularPsi):
        submodule_generator([w_vector()], SUBMOD, SYMBOLIC)
    with pytest.raises(ValueError):
        submodule_generator([], SUBMOD, PSI123)
    with pytest.raises(ZeroVector):
        submodule_generator([w_vector() - w_vector()], SUBMOD, PSI123)


# ---------------------------------------------------------------------------
# the congruence rule registry


def test_rule_registry_idents():
    assert set(RULES) == {"3.5", "3.7", "3.8.1", "3.8.2", "3.9", "3.10", "3.11.1", "3.11.2", "3.11.3"}


def test_instance_hypothesis_checks():
    with pytest.raises(HypothesisViolated):
        LemmaInstance("3.7", w_vector())  # k = 0
    with pytest.raises(HypothesisViolated):
        LemmaInstance("3.8.1", basis_vector(mu=[(0, 1)]))  # mu min not positive-first
    with pytest.raises(HypothesisViolated):
        LemmaInstance("3.10", basis_vector([(0, 1)]) + basis_vector(k=1))
    with pytest.raises(ValueError):
        LemmaInstance("9.99", w_vector())
    with pytest.raises(HypothesisViolated):
        LemmaInstance("3.5", w_vector() + basis_vector(k=1), omega_index=0)
    with pytest.raises(ValueError):
        LemmaInstance("3.7", basis_vector(k=1), omega_index=1)


def test_structured_instances_satisfy_no_other_rule():
    # random_instance reaches all eight reduction rules, the 3.11.x
    # endgames included, which short random words may never hit
    rng = random.Random(0x0E1)
    idents = sorted(set(RULES) - {"3.5"})
    for ident in idents:
        for _ in range(20):
            uw = random_instance(ident, rng).uw
            for other in idents:
                if other != ident:
                    with pytest.raises(HypothesisViolated):
                        LemmaInstance(other, uw)


def test_every_rule_verifies_on_random_instances():
    rng = random.Random(0xF1D0)
    for ident in sorted(RULES):
        for _ in range(6):
            inst = random_instance(ident, rng)
            report = verify_lemma(inst)
            assert report.passed, (ident, report)
            assert report.filtration_ok


def test_every_rule_verifies_specialized():
    rng = random.Random(0x1234)
    for ident in sorted(RULES):
        inst = random_instance(ident, rng)
        report = verify_lemma(inst, PSI123)
        assert report.passed, (ident, report)


def test_errata_reported():
    rng = random.Random(0xE44)
    assert RULES["3.8.1"].errata and RULES["3.11.2"].errata and RULES["3.11.3"].errata
    report = verify_lemma(random_instance("3.8.1", rng))
    assert report.errata
    report = verify_lemma(random_instance("3.11.2", rng))
    assert report.passed and report.errata


def test_stated_mode_flags_the_two_bad_rules():
    rng = random.Random(0x0DD)
    # 3.11.2: the printed coefficient is not even evaluable
    report = verify_lemma(random_instance("3.11.2", rng), stated=True)
    assert not report.match and report.printed is None
    assert any("not evaluable" in e for e in report.errata)
    # 3.11.3: the printed coefficient picks the wrong type generator, so
    # the residual against it sits at the target triple itself
    report = verify_lemma(random_instance("3.11.3", rng), stated=True)
    assert not report.match
    assert not report.filtration_ok
    # every other printed coefficient, 3.8.1's included (only its
    # derivation display is off), is the computed one
    for ident in sorted(set(RULES) - {"3.11.2", "3.11.3"}):
        for _ in range(3):
            report = verify_lemma(random_instance(ident, rng), stated=True)
            assert report.passed, (ident, report)


reduction_words = st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(reduction_words, min_size=1, max_size=2), st.sampled_from([SYMBOLIC, PSI123]))
def test_exactly_one_reduction_rule_applies(word_list, psi):
    v = w_vector() - w_vector()
    for word in word_list:
        v = v + act_word(word, w_vector(), psi)
    assume(v)
    assume(RuleContext(v).deg != TRIPLE_MIN)
    holding = []
    for ident in RULES:
        if ident == "3.5":
            continue
        try:
            holding.append(LemmaInstance(ident, v))
        except HypothesisViolated:
            pass
    assert len(holding) == 1, holding
    # the congruence is checked by exact computation, apart from the
    # classifier that accepted the instance
    assert verify_lemma(holding[0], psi).passed
    _, transcript = reduce_to_whittaker(v, psi)
    assert transcript.steps[0].rule == holding[0].ident


def test_omega_rule_has_zero_leading_term():
    rng = random.Random(0x3A)
    for omega_index in (0, 1, 2):
        inst = random_instance("3.5", rng)
        inst = LemmaInstance("3.5", inst.uw, omega_index=omega_index)
        report = verify_lemma(inst)
        assert report.passed
        assert not report.computed  # the defect drops strictly below the degree


def test_verify_report_json():
    rng = random.Random(0x77)
    report = verify_lemma(random_instance("3.7", rng))
    data = report.to_json()
    assert data["lemma"] == "3.7"
    assert data["match"] is True and data["filtration_ok"] is True
    assert "instance" in data and data["instance"]["lemma"] == "3.7"
