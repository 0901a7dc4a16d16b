import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitmod import wmod
from whitmod.cli import main
from whitmod.coeff import ONE, SYMBOLIC, PsiSpec, Scalar, ZPoly
from whitmod.liecore import bracket, d, psi_eval
from whitmod.orders import EMPTY, Partition, Triple, triple_prec
from whitmod.wmod import (
    BasisMonomial,
    ModuleVector,
    NonDescent,
    ZeroVector,
    act,
    act_word,
    basis_vector,
    degree_of,
    in_filtration,
    is_whittaker,
    straighten_word,
    w_vector,
)

S1, S2, S3 = (Scalar.generator(j) for j in (1, 2, 3))
PSI123 = PsiSpec.of(1, 2, 3)

# Factors with positive, zero, negative and mixed-sign weights.
FACTOR_POOL = [
    (i, a)
    for i in (1, 2)
    for a in ((1, -2), (2, 1), (-1, 1), (1, -1), (0, 2), (0, 1), (0, 0), (0, -1), (-1, 0))
]
factors = st.sampled_from(FACTOR_POOL)
words = st.lists(factors, max_size=5)
types = st.sampled_from([SYMBOLIC, PSI123, PsiSpec.of(-1, 3, 2)])
# derandomized, so that every run checks the same examples
deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=500)


# Test-only reference for the straightening engine: a stack rewriter
# that swaps the first adjacent inversion of a word, paying the bracket,
# or lets a rightmost positive factor act on w through the type, and
# asserts that (factor count, inversion count) drops at every rewrite.
# It shares no straightening code with the engine: brackets come from
# liecore.bracket, type values from psi_eval and the position order from
# _ref_position.


def _ref_position(factor):
    i, alpha = factor
    if alpha > (0, 0):
        return (4,)
    if alpha == (0, 0):
        return (3,) if i == 1 else (2,)
    # negatives sit first, d1 before d2, weights non-increasing
    return (i - 1, tuple(-a for a in alpha))


def _ref_inversions(word):
    keys = [_ref_position(f) for f in word]
    return sum(1 for p in range(len(keys)) for q in range(p + 1, len(keys)) if keys[p] > keys[q])


def _ref_basis_vector(word, coeff):
    lam = [tuple(-a for a in alpha) for i, alpha in word if alpha < (0, 0) and i == 1]
    mu = [tuple(-a for a in alpha) for i, alpha in word if alpha < (0, 0) and i == 2]
    k = word.count((2, (0, 0)))
    r = word.count((1, (0, 0)))
    assert len(lam) + len(mu) + k + r == len(word), word
    return basis_vector(lam, mu, k, r, coeff)


def reference_straighten(word, psi=SYMBOLIC):
    out = ModuleVector()
    stack = [(ONE, tuple(word))]
    while stack:
        coeff, wd = stack.pop()
        measure = (len(wd), _ref_inversions(wd))
        pos = next((p for p in range(len(wd) - 1)
                    if _ref_position(wd[p]) > _ref_position(wd[p + 1])), None)
        if pos is not None:
            a, b = wd[pos], wd[pos + 1]
            children = [(coeff, wd[:pos] + (b, a) + wd[pos + 2:])]
            children += [(coeff * c, wd[:pos] + ((i, g),) + wd[pos + 2:])
                         for i, g, c in bracket(d(*a), d(*b)).terms()]
        elif wd and wd[-1][1] > (0, 0):
            value = psi_eval(d(*wd[-1]), psi)
            children = [(coeff * value, wd[:-1])] if value else []
        else:
            out = out + _ref_basis_vector(wd, coeff)
            continue
        for child in children:
            assert (len(child[1]), _ref_inversions(child[1])) < measure, (wd, child)
            stack.append(child)
    return out


def test_basis_vector_shape():
    v = basis_vector([(0, 1)], [(0, 2)], k=1, r=2, coeff=3)
    ((mono, c),) = list(v.terms())
    assert mono == BasisMonomial(Partition([(0, 1)]), Partition([(0, 2)]), 1, 2)
    assert c == Scalar.rational(3)
    with pytest.raises(ValueError):
        basis_vector(k=-1)
    with pytest.raises(ValueError):
        basis_vector(r=-2)


def test_vector_arithmetic():
    w = w_vector()
    v = basis_vector([(0, 1)])
    assert (w + v) - v == w
    assert w - w == ModuleVector()
    assert not (w - w)
    assert len(w + v) == 2
    assert 2 * v == v + v
    assert -v == v * -1
    assert (S1 * w).coeff(next(iter(w.terms()))[0]) == S1


def test_positive_generators_on_w():
    w = w_vector()
    assert act(d(1, (0, 1)), w) == S1 * w
    assert act(d(2, (0, 1)), w) == S2 * w
    assert act(d(2, (0, 2)), w) == S3 * w
    # every other positive generator kills w
    assert not act(d(1, (0, 2)), w)
    assert not act(d(1, (0, 3)), w)
    assert not act(d(2, (0, 3)), w)
    assert not act(d(1, (1, -1)), w)
    assert not act(d(2, (2, 0)), w)


def test_zero_component_type_rejected():
    from whitmod.coeff import SingularPsi

    with pytest.raises(SingularPsi):
        PsiSpec.of(1, 0, 3)


def test_h_and_z_build_monomials():
    w = w_vector()
    z = d(1, (0, 0))
    h2 = d(2, (0, 0))
    assert act(z, w) == basis_vector(r=1)
    assert act(z, act(z, w)) == basis_vector(r=2)
    assert act(h2, w) == basis_vector(k=1)
    # canonical order puts h before z, so acting with z first still lands
    # on the same straightened monomial
    assert act(h2, act(z, w)) == act_word([(2, (0, 0)), (1, (0, 0))], w)
    assert act(h2, act(z, w)).coeff(BasisMonomial(EMPTY, EMPTY, 1, 1)) == Scalar.rational(1)


def test_z_shift_through_negative_factor():
    # z x = x z - x for x = d1((-1, 0)): shifting z past a factor of
    # weight (-1, 0) costs one lower-order copy
    lam = Partition([(1, 0)])
    x = d(1, (-1, 0))
    # x z w is already normally ordered, so no correction appears
    assert act(x, basis_vector(r=1)) == basis_vector(lam, r=1)
    # z x w needs the swap and picks one up
    assert straighten_word([(1, (0, 0)), (1, (-1, 0))]) == basis_vector(lam, r=1) - basis_vector(lam)
    assert act(d(1, (0, 0)), basis_vector(lam)) == basis_vector(lam, r=1) - basis_vector(lam)


def test_act_is_linear():
    v = basis_vector([(0, 1)]) + 2 * w_vector()
    x = d(1, (0, 1))
    assert act(x, v) == act(x, basis_vector([(0, 1)])) + 2 * act(x, w_vector())


@deterministic
@given(factors, factors, words, types)
def test_action_respects_bracket(x, y, word, psi):
    v = act_word(word, w_vector(), psi)
    x, y = d(*x), d(*y)
    lhs = act(x, act(y, v, psi), psi) - act(y, act(x, v, psi), psi)
    assert lhs == act(bracket(x, y), v, psi)


@deterministic
@given(words, types)
def test_straightening_matches_reference(word, psi):
    expected = reference_straighten(word, psi)
    assert straighten_word(word, psi) == expected
    assert act_word(word, w_vector(), psi) == expected


# act straightens each z-free word once and appends z^r to its image;
# these check that shortcut against the reference, which pushes x
# through every z of the word.
ENTRY_POOL = [(0, 1), (0, 2), (1, -1), (1, 0)]
entries = st.lists(st.sampled_from(ENTRY_POOL), max_size=2)
coefficients = st.sampled_from([1, -1, 2, Fraction(-1, 3), S1, S2 - 1])
operators = st.one_of(
    factors.map(lambda f: d(*f)),
    st.tuples(factors, factors, coefficients, coefficients).map(
        lambda t: d(*t[0], coeff=t[2]) + d(*t[1], coeff=t[3])),
)


def _reference_act(x, v, psi):
    """act(x, v) summed term by term from reference_straighten."""
    out = ModuleVector()
    for mono, cv in v.terms():
        word = ([(1, (-a, -b)) for a, b in mono.lam] + [(2, (-a, -b)) for a, b in mono.mu]
                + [(2, (0, 0))] * mono.k + [(1, (0, 0))] * mono.r)
        for i, alpha, cx in x.terms():
            out = out + (cv * cx) * reference_straighten([(i, alpha)] + word, psi)
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(operators, entries, entries, st.integers(0, 1),
       st.lists(st.tuples(st.integers(0, 4), coefficients), min_size=1, max_size=3),
       st.integers(0, 4), types)
def test_act_over_z_powers_matches_reference(x, lam, mu, k, powers, r2, psi):
    v = sum((basis_vector(lam, mu, k, r, c) for r, c in powers), ModuleVector())
    v = v + basis_vector(lam, mu, k + 1, r2, 3)  # a second triple
    assert act(x, v, psi) == _reference_act(x, v, psi)


def test_z_powers_share_one_straightening(monkeypatch):
    calls = []
    times = wmod._times

    def counted(*args):
        calls.append(args)
        return times(*args)

    monkeypatch.setattr(wmod, "_times", counted)
    x = d(1, (1, 0)) + d(2, (0, 1), coeff=2)
    lam, mu = [(1, -1)], [(0, 1)]
    m_w = basis_vector(lam, mu, 1)
    polynomial = m_w + basis_vector(lam, mu, 1, 1, 2) + basis_vector(lam, mu, 1, 3, 3)
    counts = []
    for v in (m_w, polynomial):
        calls.clear()
        assert act(x, v, PSI123) == _reference_act(x, v, PSI123)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_long_z_run_is_one_straightening(capsys):
    # a positive factor with first weight component nonzero brackets with
    # z to a multiple of itself, so pushing it through each z of z^r
    # would take about 2^r calls of _times
    start = time.perf_counter()
    assert not act(d(2, (1, 0)), basis_vector(mu=[(0, 1)], r=400), PSI123)
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    assert main(["act", "d1(1,0)", "z^400 w", "--psi", "1,2,3"]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out == "0\n"


def test_descent_guard(monkeypatch, capsys):
    # an order that inverts every pair of distinct factors leaves the
    # recursion no prepend to end on
    monkeypatch.setattr(wmod, "_factor_cmp", lambda f, g: 0 if f == g else 1)
    with pytest.raises(NonDescent):
        act(d(1, (0, -1)), basis_vector(mu=[(0, 1)]))
    assert main(["nf", "d1(0,-1) d2(0,-1) w"]) == 4
    assert "internal invariant violation" in capsys.readouterr().err


def test_act_word_order():
    w = w_vector()
    word = [(2, (0, -1)), (1, (0, 1))]
    # rightmost factor applies first
    assert act_word(word, w) == act(d(2, (0, -1)), act(d(1, (0, 1)), w))


def test_specialize_commutes_with_act():
    v = act_word([(1, (-1, 2)), (2, (0, -2))], w_vector())
    x = d(2, (0, 2))
    assert act(x, v, SYMBOLIC).specialize(PSI123) == act(x, v.specialize(PSI123), PSI123)


def test_degree_of():
    lam = Partition([(0, 1)])
    v = basis_vector(lam, r=2) + 3 * basis_vector(lam) + basis_vector(r=5)
    top, poly = degree_of(v)
    assert top == Triple(lam, EMPTY, 0)
    assert poly == ZPoly([Scalar.rational(3), Scalar.rational(0), Scalar.rational(1)])
    with pytest.raises(ZeroVector):
        degree_of(ModuleVector())


def test_in_filtration():
    lam = Partition([(0, 1)])
    v = w_vector() + basis_vector(r=3)
    assert in_filtration(v, Triple(lam, EMPTY, 0))
    assert not in_filtration(basis_vector(lam), Triple(lam, EMPTY, 0))
    assert in_filtration(ModuleVector(), Triple(EMPTY, EMPTY, 0))


def test_is_whittaker():
    w = w_vector()
    assert is_whittaker(w)
    assert is_whittaker(w, PSI123)
    check = is_whittaker(basis_vector([(0, 1)]))
    assert not check
    i, alpha, defect = check.witness
    assert defect
    assert is_whittaker(5 * w, PSI123)


def test_z_powers_of_w_are_whittaker():
    # every type-supported generator has first weight component zero, so
    # the z-shift d_i(alpha) z^r = (z - a1)^r d_i(alpha) is invisible on
    # z^r w and the whole line C[z] w consists of Whittaker vectors
    for r in range(4):
        assert is_whittaker(basis_vector(r=r))
        assert is_whittaker(basis_vector(r=r), PSI123)


def test_hw_is_not_whittaker():
    # [d1((0,1)), h2] = -d1((0,1)) leaves a -s1 w defect on h2 w
    check = is_whittaker(basis_vector(k=1))
    assert not check
    i, alpha, defect = check.witness
    assert (i, alpha) == (1, (0, 1))
    assert defect == -(S1 * w_vector())


def test_monomial_json_round_trip():
    mono = BasisMonomial(Partition([(0, 1), (1, -2)]), Partition([(0, 2)]), 2, 1)
    assert BasisMonomial.from_json(mono.to_json()) == mono


def test_vector_json_round_trip():
    v = act_word([(1, (-1, 2)), (2, (0, -2))], w_vector()) + S3 * w_vector()
    assert ModuleVector.from_json(v.to_json()) == v


def test_nonzero_vectors_have_comparable_triples():
    rng = random.Random(0x88)
    pool = [(1, (-1, 0)), (2, (0, -1)), (2, (0, 0)), (1, (0, 0)), (1, (0, 1))]
    for _ in range(20):
        word = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        v = act_word(word, w_vector())
        if not v:
            continue
        top, poly = degree_of(v)
        assert poly.degree is not None
        for t in v.support_triples():
            assert t == top or triple_prec(t, top)
