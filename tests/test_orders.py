import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitmod.orders import (
    EMPTY,
    TRIPLE_MIN,
    Partition,
    Triple,
    partition_lt,
    partition_prec,
    triple_max,
    triple_prec,
    triple_preceq,
)
from whitmod.solver import Truncation
from whitmod.wmod import BasisMonomial, ModuleVector

# ---------------------------------------------------------------------------
# reference: the orders as pairwise comparators, written out from their
# definitions; the library realises them as sort keys


def diff_support(lam, mu):
    """Weights where the two multiplicities differ, lex-ascending."""
    weights = set(lam.support()) | set(mu.support())
    return tuple(sorted(a for a in weights if lam.multiplicity(a) != mu.multiplicity(a)))


def ref_partition_lt(lam, mu):
    diff = diff_support(lam, mu)
    if not diff:
        return False
    alpha = diff[0]
    return lam.multiplicity(alpha) < mu.multiplicity(alpha)


def ref_partition_prec(lam, mu):
    diff = tuple(a for a in diff_support(lam, mu) if a[0] > 0)
    if diff:
        alpha = diff[0]
        return lam.multiplicity(alpha) < mu.multiplicity(alpha)
    return ref_partition_lt(lam, mu)


def ref_triple_prec(t, u):
    a, b = t.weight_sum(), u.weight_sum()
    if a != b:
        return a < b
    if t.k != u.k:
        return t.k < u.k
    if t.mu != u.mu:
        return ref_partition_lt(t.mu, u.mu)
    return ref_partition_prec(t.lam, u.lam)


def ref_monomial_cmp(a, b):
    ta, tb = a.triple, b.triple
    if ta != tb:
        return -1 if ref_triple_prec(ta, tb) else 1
    if a.r != b.r:
        return -1 if a.r < b.r else 1
    return 0


REF_MONOMIAL_KEY = functools.cmp_to_key(ref_monomial_cmp)


POOL = [(0, 1), (0, 2), (0, 3), (1, -2), (1, 0), (1, 1), (2, -1)]


def rand_partition(rng, max_len=4):
    return Partition(rng.choices(POOL, k=rng.randint(0, max_len)))


def rand_triple(rng):
    return Triple(rand_partition(rng), rand_partition(rng), rng.randint(0, 3))


def test_partition_basics():
    p = Partition([(1, -2), (0, 1), (0, 1)])
    assert tuple(p) == ((0, 1), (0, 1), (1, -2))  # stored sorted
    assert len(p) == 3
    assert p.multiplicity((0, 1)) == 2
    assert p.support() == ((0, 1), (1, -2))
    assert p.positive_support() == ((1, -2),)
    assert p.weight_sum() == (1, 0)
    assert p.remove_one((0, 1)) == Partition([(0, 1), (1, -2)])
    assert p.add_one((0, 2)).multiplicity((0, 2)) == 1
    assert not EMPTY and bool(p)


def test_partition_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        Partition([(0, 0)])
    with pytest.raises(ValueError):
        Partition([(-1, 5)])
    # lex positivity, not coordinatewise: (1, -7) is fine
    Partition([(1, -7)])


def test_partition_remove_missing():
    with pytest.raises(ValueError):
        Partition([(0, 1)]).remove_one((0, 2))


def test_partition_lt_hand_cases():
    a = Partition([(0, 1), (0, 1)])
    b = Partition([(0, 2)])
    # equal weight sums; they disagree first at (0,1), where b has fewer
    assert diff_support(a, b) == ((0, 1), (0, 2))
    assert partition_lt(b, a)
    assert not partition_lt(a, b)
    assert partition_lt(EMPTY, a)
    assert not partition_lt(a, a)


def test_partition_prec_positive_first():
    a = Partition([(1, -1)])
    b = Partition([(0, 5), (0, 9)])
    # (1,-1) is the only positive-first-coordinate disagreement; b misses it
    assert partition_prec(b, a)
    assert not partition_prec(a, b)
    # agreeing on the positive part falls back to the plain order
    c = Partition([(1, 2), (0, 1)])
    e = Partition([(1, 2), (0, 2)])
    assert partition_prec(e, c) == partition_lt(e, c)
    assert partition_prec(e, c)


def test_orders_are_strict_and_total():
    rng = random.Random(0x07D)
    for _ in range(300):
        a, b = rand_partition(rng), rand_partition(rng)
        for lt in (partition_lt, partition_prec):
            assert not lt(a, a)
            if a == b:
                assert not lt(a, b) and not lt(b, a)
            else:
                assert lt(a, b) != lt(b, a)


def test_orders_transitive():
    rng = random.Random(0x7A4)
    for _ in range(300):
        a, b, c = (rand_partition(rng) for _ in range(3))
        for lt in (partition_lt, partition_prec):
            if lt(a, b) and lt(b, c):
                assert lt(a, c)


def test_triple_prec_layers():
    lam = Partition([(0, 1)])
    # weight sum decides first
    assert triple_prec(Triple(lam, EMPTY, 5), Triple(lam, lam, 0))
    # then k
    assert triple_prec(Triple(lam, EMPTY, 1), Triple(lam, EMPTY, 2))
    # then mu under the plain order
    two = Partition([(0, 2)])
    pair = Partition([(0, 1), (0, 1)])
    assert triple_prec(Triple(pair, two, 0), Triple(two, pair, 0))
    # then lambda under the positive-first order
    assert triple_prec(
        Triple(Partition([(0, 2), (0, 2)]), EMPTY, 0),
        Triple(Partition([(0, 1), (0, 3)]), EMPTY, 0),
    ) == partition_prec(Partition([(0, 2), (0, 2)]), Partition([(0, 1), (0, 3)]))


def test_triple_min_is_least():
    rng = random.Random(0x5EED)
    for _ in range(200):
        t = rand_triple(rng)
        assert triple_preceq(TRIPLE_MIN, t)
        if t != TRIPLE_MIN:
            assert triple_prec(TRIPLE_MIN, t)


def test_triple_prec_total_on_distinct():
    rng = random.Random(0xF00)
    for _ in range(300):
        t, u = rand_triple(rng), rand_triple(rng)
        if t == u:
            assert not triple_prec(t, u) and not triple_prec(u, t)
        else:
            assert triple_prec(t, u) != triple_prec(u, t)


def test_triple_max():
    rng = random.Random(0xBEE)
    triples = [rand_triple(rng) for _ in range(40)]
    top = triple_max(triples)
    assert all(triple_preceq(t, top) for t in triples)
    with pytest.raises(ValueError):
        triple_max([])
    with pytest.raises(ValueError):
        triple_prec(Triple(EMPTY, EMPTY, -1), TRIPLE_MIN)


def test_json_round_trips():
    p = Partition([(0, 1), (1, -2), (1, -2)])
    assert Partition(p.to_json()) == p
    t = Triple(p, Partition([(0, 3)]), 2)
    assert Triple.from_json(t.to_json()) == t


# lex-positive weights of both signs in the second coordinate
weights = st.one_of(
    st.tuples(st.just(0), st.integers(1, 3)),
    st.tuples(st.integers(1, 2), st.integers(-3, 3)),
)
partitions = st.lists(weights, max_size=4).map(Partition)
triples = st.builds(Triple, partitions, partitions, st.integers(0, 2))
monomials = st.builds(BasisMonomial, partitions, partitions, st.integers(0, 2), st.integers(0, 2))
deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=500)


@deterministic
@given(partitions, partitions)
def test_partition_keys_match_the_reference(a, b):
    assert partition_lt(a, b) == ref_partition_lt(a, b)
    assert partition_prec(a, b) == ref_partition_prec(a, b)


@deterministic
@given(triples, triples)
def test_triple_key_matches_the_reference(t, u):
    assert triple_prec(t, u) == ref_triple_prec(t, u)
    assert triple_preceq(t, u) == (t == u or ref_triple_prec(t, u))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(monomials, max_size=12))
def test_terms_order_matches_the_reference(monos):
    v = ModuleVector({m: 1 for m in monos})
    assert [m for m, _ in v.terms()] == sorted(set(monos), key=REF_MONOMIAL_KEY)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(weights, min_size=1, max_size=4), st.integers(1, 2), st.integers(-2, 4),
       st.integers(1, 3))
def test_basis_order_matches_the_reference(entries, cap0, cap1, lmax):
    trunc = Truncation((cap0, cap1), entries, kmax=1, rmax=1, lmax=lmax)
    basis = trunc.basis()
    assert basis == sorted(basis, key=REF_MONOMIAL_KEY)
