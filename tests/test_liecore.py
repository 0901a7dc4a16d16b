import random

import pytest

from whitmod.coeff import SYMBOLIC, PsiSpec, Scalar, ZERO, S1, S2, S3
from whitmod.liecore import (
    NotPositive,
    OutOfRange,
    weight_cmp,
    weight_add,
    is_positive,
    triangular_part,
    d,
    bracket,
    psi_eval,
    bracket_decomposition,
    expand_decomposition,
    LieElt,
)


def test_weight_order_is_lexicographic():
    assert weight_cmp((0, 1), (0, 2)) < 0
    assert weight_cmp((1, -5), (0, 99)) > 0
    assert weight_cmp((2, 3), (2, 3)) == 0
    assert is_positive((0, 1))
    assert is_positive((1, -7))
    assert not is_positive((0, 0))
    assert not is_positive((0, -1))
    assert not is_positive((-1, 5))


def test_triangular_part():
    assert triangular_part((0, 3)) == "positive"
    assert triangular_part((-1, 2)) == "negative"
    assert triangular_part((0, 0)) == "zero"


def test_bracket_hand_cases():
    # [d_i(a), d_j(b)] = b_i d_j(a+b) - a_j d_i(a+b)
    # b_1 = 0 kills the d_2 term here, leaving -a_2 d_1((0,0)) = -z
    assert bracket(d(1, (0, 1)), d(2, (0, -1))) == -d(1, (0, 0))
    assert bracket(d(1, (1, 1)), d(1, (-1, -1))) == -2 * d(1, (0, 0))
    assert bracket(d(2, (0, 2)), d(2, (0, -1))) == -3 * d(2, (0, 1))
    # generators at the same weight with the same index commute only
    # when the relevant coordinate vanishes
    assert bracket(d(1, (0, 2)), d(1, (0, 3))) == ZERO * d(1, (0, 5))
    assert bracket(d(2, (0, 2)), d(2, (0, 3))) == d(2, (0, 5))
    assert bracket(d(2, (1, 0)), d(1, (0, 1))) == d(1, (1, 1)) - d(2, (1, 1))


def test_bracket_not_central_z():
    # z = d1((0,0)) is not central: [d_i(a), z] = -a_1 d_i(a)
    z = d(1, (0, 0))
    assert bracket(d(1, (1, 2)), z) == -d(1, (1, 2))
    assert not bracket(d(1, (0, 2)), z)
    h2 = d(2, (0, 0))
    assert bracket(d(2, (0, 3)), h2) == -3 * d(2, (0, 3))


def _random_homogeneous(rng, bound=4):
    i = rng.randint(1, 2)
    alpha = (rng.randint(-bound, bound), rng.randint(-bound, bound))
    c = rng.randint(-3, 3) or 1
    return c * d(i, alpha)


def test_antisymmetry_and_jacobi_seeded():
    rng = random.Random(0xAB5)
    for _ in range(300):
        x = _random_homogeneous(rng)
        y = _random_homogeneous(rng)
        w = _random_homogeneous(rng)
        assert bracket(x, y) == -bracket(y, x)
        jac = (bracket(x, bracket(y, w)) + bracket(y, bracket(w, x))
               + bracket(w, bracket(x, y)))
        assert not jac


def test_psi_eval_support():
    assert psi_eval(d(1, (0, 1))) == S1
    assert psi_eval(d(2, (0, 1))) == S2
    assert psi_eval(d(2, (0, 2))) == S3
    assert not psi_eval(d(1, (0, 2)))
    assert not psi_eval(d(1, (0, 3)))
    assert not psi_eval(d(2, (0, 5)))
    assert not psi_eval(d(1, (1, -3)))
    assert not psi_eval(d(2, (2, 0)))
    spec = PsiSpec.of(1, 2, 3)
    assert psi_eval(d(2, (0, 2)) + 2 * d(1, (0, 1)), spec).as_fraction() == 5


def test_psi_eval_rejects_non_positive():
    with pytest.raises(NotPositive):
        psi_eval(d(1, (0, -1)))
    with pytest.raises(NotPositive):
        psi_eval(d(2, (0, 0)))


def test_decomposition_small_weight_pivot():
    # weights with second component at most 2 go through the pivot form
    parts = bracket_decomposition(1, (1, 1))
    assert expand_decomposition(parts) == d(1, (1, 1))
    parts = bracket_decomposition(2, (2, 2))
    assert expand_decomposition(parts) == d(2, (2, 2))


def test_decomposition_two_eps_case():
    parts = bracket_decomposition(1, (0, 2))
    assert expand_decomposition(parts) == d(1, (0, 2))


def test_decomposition_rejects_bad_weights():
    with pytest.raises(OutOfRange):
        bracket_decomposition(1, (0, -3))
    with pytest.raises(OutOfRange):
        bracket_decomposition(3, (0, 3))
    with pytest.raises(OutOfRange):
        bracket_decomposition(2, (0, 2))  # base generator, nothing below it


GENERATOR_BUILDERS = {
    "d": lambda i, alpha: d(i, alpha),
    "LieElt": lambda i, alpha: LieElt({(i, alpha): 1}),
    "LieElt.from_json": lambda i, alpha: LieElt.from_json(
        {"terms": [{"i": i, "alpha": list(alpha), "coeff": Scalar.rational(1).to_json()}]}),
    "bracket_decomposition": lambda i, alpha: bracket_decomposition(i, alpha),
}


@pytest.mark.parametrize("key", [(1, ()), (1, (1,)), (1, (1, 0, 3)), (0, (1, 3)), (3, (1, 3))],
                         ids=["weight-0", "weight-1", "weight-3", "index-0", "index-3"])
@pytest.mark.parametrize("builder", GENERATOR_BUILDERS)
def test_a_generator_is_an_index_1_or_2_and_a_pair(builder, key):
    with pytest.raises(OutOfRange):
        GENERATOR_BUILDERS[builder](*key)


def test_decomposition_every_box_weight():
    """Round trip over all lex-positive weights above (0,2) in the box."""
    for a1 in range(-5, 6):
        for a2 in range(-5, 6):
            alpha = (a1, a2)
            if not is_positive(alpha) or weight_cmp(alpha, (0, 2)) <= 0:
                continue
            for i in (1, 2):
                parts = bracket_decomposition(i, alpha)
                assert expand_decomposition(parts) == d(i, alpha), (i, alpha)


def test_decomposition_uncorrected_doubles_diagonal():
    """The two-term printed form gives twice the generator when i = n."""
    for alpha in [(0, 3), (0, 4), (1, 3), (2, 5)]:
        if alpha[1] <= 2:
            continue
        parts = bracket_decomposition(2, alpha, corrected=False)
        assert expand_decomposition(parts) == 2 * d(2, alpha), alpha
        # the off-diagonal index is unaffected by the flag
        parts = bracket_decomposition(1, alpha, corrected=False)
        assert expand_decomposition(parts) == d(1, alpha), alpha


def test_lie_json_round_trip():
    x = 2 * d(1, (0, 1)) - d(2, (3, -4)) * Scalar.generator(2)
    assert LieElt.from_json(x.to_json()) == x


def test_lie_str():
    assert str(d(1, (0, 0))) == "z"
    assert str(d(2, (0, 0))) == "h2"
    assert str(-d(1, (2, -1))) == "-d1(2,-1)"
