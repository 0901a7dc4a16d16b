import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from whitmod.coeff import (
    Scalar,
    PsiSpec,
    SYMBOLIC,
    SingularPsi,
    ZPoly,
    poly_gcd,
    ZERO,
    ONE,
    S1,
    S2,
    S3,
)
from whitmod.wmod import BasisMonomial, ModuleVector


def test_scalar_basic_arithmetic():
    a = S1 + S2
    b = S1 - S2
    assert a * b == S1 * S1 - S2 * S2
    assert (a + b) == 2 * S1
    assert a - a == ZERO
    assert not ZERO
    assert ONE * a == a


def test_scalar_rational_and_fraction():
    half = Scalar.rational(Fraction(1, 2))
    assert (half + half).as_fraction() == 1
    assert (3 * half).as_fraction() == Fraction(3, 2)
    assert half.is_rational()
    assert not (S1 + half).is_rational()
    with pytest.raises(ValueError):
        (S1 + half).as_fraction()


def test_scalar_power():
    assert S2 ** 3 == S2 * S2 * S2
    assert (S1 + ONE) ** 2 == S1 * S1 + 2 * S1 + ONE
    assert S3 ** 0 == ONE


def test_scalar_str_forms():
    assert str(S1) == "s1"
    assert str(-2 * S3) == "-2*s3"
    assert str(S1 * S1 - ONE) == "s1^2 - 1"
    assert str(ZERO) == "0"
    assert str(Scalar.rational(Fraction(-3, 2))) == "-3/2"


def test_scalar_specialize():
    spec = PsiSpec.of(1, 2, 3)
    v = (S1 * S2 + S3 * S3 - ONE).specialize(spec)
    assert v.as_fraction() == 1 * 2 + 9 - 1
    with pytest.raises(ValueError):
        S1.specialize(SYMBOLIC)


def test_scalar_json_round_trip():
    rng = random.Random(0x5CA1A)
    for _ in range(40):
        s = ZERO
        for _ in range(rng.randint(0, 4)):
            term = Scalar.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for j in (1, 2, 3):
                term = term * Scalar.generator(j) ** rng.randint(0, 2)
            s = s + term
        assert Scalar.from_json(s.to_json()) == s


def test_psi_spec_validation():
    with pytest.raises(SingularPsi):
        PsiSpec.of(0, 1, 1)
    with pytest.raises(SingularPsi):
        PsiSpec.of(1, 1, 0)
    spec = PsiSpec.of(Fraction(1, 2), -3, 5)
    assert not spec.is_symbolic()
    assert spec.generator_value(1).as_fraction() == Fraction(1, 2)
    assert SYMBOLIC.is_symbolic()
    assert SYMBOLIC.generator_value(2) == S2
    assert str(SYMBOLIC) == "symbolic"


@pytest.mark.parametrize("call, error, message", [
    (lambda: PsiSpec((1, 2)), ValueError, "exactly three values"),
    (lambda: ZPoly().leading(), ValueError, "no leading coefficient"),
    (lambda: ZPoly([1]).divmod_by(ZPoly()), ZeroDivisionError, "zero polynomial"),
], ids=["psi-arity", "zero-poly-leading", "zero-poly-divisor"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_zpoly_shape():
    p = ZPoly([1, 0, 2])
    assert p.degree == 2
    assert p.coeff(1) == ZERO
    assert p.coeff(5) == ZERO
    assert ZPoly([0, 0]).degree is None
    assert not ZPoly()
    assert ZPoly.z().degree == 1


def test_zpoly_arithmetic():
    z = ZPoly.z()
    p = (z - 1) * (z - 2)
    assert p == z * z - 3 * z + 2
    assert p.evaluate(1) == ZERO
    assert p.evaluate(2) == ZERO
    assert p.evaluate(3).as_fraction() == 2
    q, r = p.divmod_by(z - 1)
    assert q == z - 2 and not r


@pytest.mark.parametrize("c", [3, Fraction(-1, 2), Scalar.rational(1), S1 - ONE],
                         ids=["int", "Fraction", "Scalar", "symbolic"])
def test_zpoly_takes_a_constant_on_either_side(c):
    z = ZPoly.z()
    const = ZPoly([c])
    assert c + z == z + c == const + z
    assert c - z == const - z == -(z - c)
    assert z - c == z - const


def test_zpoly_divmod_random():
    rng = random.Random(0xD17)
    z = ZPoly.z()
    for _ in range(30):
        a = ZPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(rng.randint(1, 5))])
        b = ZPoly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 3))]
                  + [Fraction(rng.choice((1, 2, -1)))])
        q, r = a.divmod_by(b)
        assert q * b + r == a
        assert r.degree is None or r.degree < b.degree


def test_poly_gcd():
    z = ZPoly.z()
    a = (z - 1) * (z - 2)
    b = (z - 1) * (z + 3)
    assert poly_gcd(a, b) == z - 1
    assert poly_gcd(a, z + 5).degree == 0
    assert poly_gcd(ZPoly(), a) == a.monic()


def test_zpoly_monic_requires_rational_lead():
    p = ZPoly([ONE, S1])
    with pytest.raises(ValueError):
        p.monic()
    assert (2 * ZPoly.z()).monic() == ZPoly.z()


def test_zpoly_specialize():
    spec = PsiSpec.of(1, 2, 3)
    p = ZPoly([S1, S3])
    q = p.specialize(spec)
    assert q.coeff(0).as_fraction() == 1
    assert q.coeff(1).as_fraction() == 3


def test_zpoly_json_round_trip():
    p = ZPoly([S1 - ONE, ZERO, 3 * S2])
    assert ZPoly.from_json(p.to_json()) == p
    assert ZPoly.from_json(ZPoly().to_json()) == ZPoly()


# Sparse ZPoly against dense lists of Fractions: many drawn coefficients
# are zero, so the lists have interior zeros, and the empty and all-zero
# lists give the zero polynomial.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
RATIONALS = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-9, max_value=9, max_denominator=4))
DENSE = st.lists(RATIONALS, max_size=6)


def _stripped(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _value(coeffs, x):
    return sum((c * x ** i for i, c in enumerate(coeffs)), Fraction(0))


@PROPERTY
@given(DENSE, DENSE, RATIONALS)
def test_zpoly_ring_operations_agree_with_evaluation(ca, cb, x):
    a, b = ZPoly(ca), ZPoly(cb)
    va, vb = _value(ca, x), _value(cb, x)
    for poly, value in ((a, va), (a + b, va + vb), (a - b, va - vb), (a * b, va * vb)):
        assert poly.evaluate(x).as_fraction() == value


@PROPERTY
@given(DENSE, DENSE)
def test_zpoly_division_identity(ca, cb):
    assume(any(cb))
    a, b = ZPoly(ca), ZPoly(cb)
    q, r = a.divmod_by(b)
    assert q * b + r == a
    assert r.degree is None or r.degree < b.degree


@PROPERTY
@given(DENSE)
def test_zpoly_dense_coeffs_and_json(ca):
    a = ZPoly(ca)
    dense = _stripped(ca)
    assert [c.as_fraction() for c in a.coeffs] == dense
    assert a.degree == (len(dense) - 1 if dense else None)
    assert bool(a) == bool(dense)
    assert ZPoly.from_json(json.loads(json.dumps(a.to_json()))) == a


def _values_near(q):
    """Values of each type that the package may compare with the rational q."""
    out = [q, Scalar.rational(q), q * S1 - S3, ZPoly([q]), ZPoly([0, q])]
    if q.denominator == 1:
        out.append(int(q))
    return out


@PROPERTY
@given(st.one_of(RATIONALS, st.integers(-9, 9).map(Fraction)), RATIONALS)
def test_equal_values_hash_equal(p, q):
    values = _values_near(p) + _values_near(q)
    for a in values:
        for b in values:
            assert (a == b) == (b == a), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)


ENTRIES = [(0, 1), (0, 2), (1, -1)]
MONOMIALS = st.builds(
    BasisMonomial.of,
    st.lists(st.sampled_from(ENTRIES), max_size=2),
    st.lists(st.sampled_from(ENTRIES), max_size=1),
    st.integers(0, 2),
    st.integers(0, 3),
)
COEFFICIENTS = st.one_of(RATIONALS, RATIONALS.map(lambda q: q * S1 - S3))


@PROPERTY
@given(st.lists(st.tuples(MONOMIALS, COEFFICIENTS), max_size=8))
def test_vector_triple_round_trip(pairs):
    v = ModuleVector(pairs)
    polys = v.by_triple()
    assert all(polys.values())
    for mono, c in v.terms():
        assert polys[mono.triple].coeff(mono.r) == c
    assert ModuleVector.from_triples(polys) == v
