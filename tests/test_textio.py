import random
from fractions import Fraction

import pytest

from whitmod.coeff import SYMBOLIC, PsiSpec, Scalar, SingularPsi
from whitmod.liecore import LieElt, d
from whitmod.textio import ParseError, parse_lie, parse_psi, parse_scalar, parse_vector
from whitmod.wmod import act_word, basis_vector, w_vector

S1, S2, S3 = (Scalar.generator(j) for j in (1, 2, 3))
PSI123 = PsiSpec.of(1, 2, 3)


def test_parse_lie_hand_cases():
    assert parse_lie("z") == d(1, (0, 0))
    assert parse_lie("h2") == d(2, (0, 0))
    assert parse_lie("-z") == -d(1, (0, 0))
    assert parse_lie("2 * d1(0,1) - d2(3,-4)") == 2 * d(1, (0, 1)) - d(2, (3, -4))
    assert parse_lie("1/2 * z") == d(1, (0, 0), Scalar.rational(1, 2))
    assert parse_lie("(s1 + 2*s2^2) * d1(-1,0)") == d(1, (-1, 0), S1 + 2 * S2 * S2)
    assert parse_lie("s1*s2 * z") == d(1, (0, 0), S1 * S2)
    assert parse_lie("d1( 0 , 1 )+d1(0,1)") == 2 * d(1, (0, 1))


def test_parse_vector_hand_cases():
    assert parse_vector("w") == w_vector()
    assert parse_vector("z^2 w - w") == basis_vector(r=2) - w_vector()
    assert parse_vector("d1(-1,0) h2 w") == act_word([(1, (-1, 0)), (2, (0, 0))], w_vector())
    assert parse_vector("3/2 * z w") == Scalar.rational(3, 2) * basis_vector(r=1)
    assert parse_vector("(s3 - 1) * w") == (S3 - Scalar.rational(1)) * w_vector()


def test_parse_vector_positive_factors_use_type():
    assert parse_vector("d1(0,1) w") == S1 * w_vector()
    assert parse_vector("d2(0,2) w") == S3 * w_vector()
    assert parse_vector("d1(0,2) w") == 0 * w_vector()
    assert parse_vector("d1(0,1) w", PSI123) == w_vector()
    assert parse_vector("d2(0,1) w", PSI123) == 2 * w_vector()


def test_parse_scalar():
    assert parse_scalar("3/4") == Scalar.rational(3, 4)
    assert parse_scalar("s1^2*s3 - 2") == S1 * S1 * S3 - Scalar.rational(2)
    assert parse_scalar("-s2 + s2") == Scalar.rational(0)


def test_parse_psi():
    assert parse_psi("symbolic") is SYMBOLIC
    assert parse_psi("1,2,3") == PSI123
    assert parse_psi("2/3, -1, 5") == PsiSpec.of(Fraction(2, 3), -1, 5)
    with pytest.raises(ParseError):
        parse_psi("1,2")
    with pytest.raises(SingularPsi):
        parse_psi("1,0,3")


def test_parse_errors_carry_position_and_expectations():
    with pytest.raises(ParseError) as info:
        parse_lie("d1(0")
    assert info.value.pos >= 0
    assert info.value.expected
    with pytest.raises(ParseError) as info:
        parse_vector("d1(0,1)")
    assert "w" in info.value.expected
    with pytest.raises(ParseError):
        parse_lie("z +")
    with pytest.raises(ParseError):
        parse_lie("q")
    with pytest.raises(ParseError):
        parse_vector("w w")
    with pytest.raises(ParseError):
        parse_scalar("s4")


def rand_scalar(rng, symbolic=True):
    total = Scalar.rational(rng.randint(-4, 4))
    if symbolic:
        for _ in range(rng.randint(0, 2)):
            mon = Scalar.rational(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2)):
                mon = mon * Scalar.generator(rng.randint(1, 3))
            total = total + (mon if rng.random() < 0.5 else -mon)
    return total


def test_lie_round_trips():
    rng = random.Random(0x1E7)
    pool = [(1, (0, 1)), (2, (0, 2)), (1, (-1, 3)), (2, (4, -2)), (1, (0, 0)), (2, (0, 0))]
    for _ in range(40):
        total = LieElt()
        for i, alpha in rng.sample(pool, rng.randint(1, 4)):
            total = total + d(i, alpha, rand_scalar(rng))
        if not total:
            continue
        assert parse_lie(str(total)) == total


def test_vector_round_trips():
    rng = random.Random(0x0E7)
    pool = [(1, (-1, 0)), (2, (0, -2)), (2, (0, 0)), (1, (0, 0)), (1, (0, 1))]
    for _ in range(40):
        word = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        v = rand_scalar(rng) * act_word(word, w_vector())
        if not v:
            continue
        assert parse_vector(str(v)) == v


def test_scalar_round_trips():
    rng = random.Random(0x5CA)
    for _ in range(40):
        s = rand_scalar(rng)
        if not s:
            continue
        assert parse_scalar(str(s)) == s
