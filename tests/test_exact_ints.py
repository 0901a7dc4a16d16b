"""Every integer field is checked once, by the constructor of its value.

A float, a bool or a digit string in any integer field is refused with
ValueError, never rounded or converted; the rationals of a type, of the
quotient, of a Scalar's coefficients and of the coefficients and scalar
multiples of operators and vectors accept only ints and Fractions.
Lists and tuples of ints build equal values.
"""

from fractions import Fraction

import pytest

from whitmod.coeff import S1, PsiSpec, Scalar, ZPoly, exact_int
from whitmod.liecore import LieElt, bracket_decomposition, d
from whitmod.orders import Partition, Triple
from whitmod.solver import Truncation, quotient_project
from whitmod.wmod import basis_vector, w_vector

NOT_INTS = {"float": 1.5, "bool": True, "string": "1"}


def _triple_json(k=0, entry=(0, 1)):
    return {"lambda": [list(entry)], "mu": [], "k": k}


def _slice_json(**fields):
    data = {"cap": [0, 2], "entries": [[0, 1]], "kmax": 1, "rmax": 1, "lmax": 2}
    data.update(fields)
    return data


# one row per integer or rational field: a builder that puts x into it
FIELDS = {
    "Partition-first": lambda x: Partition([(x, 1)]),
    "Partition-second": lambda x: Partition([(1, x)]),
    "d-i": lambda x: d(x, (0, 1)),
    "d-alpha": lambda x: d(1, (0, x)),
    "LieElt-i": lambda x: LieElt({(x, (0, 1)): 1}),
    "LieElt-alpha": lambda x: LieElt({(1, (x, 1)): 1}),
    "bracket_decomposition-i": lambda x: bracket_decomposition(x, (0, 3)),
    "bracket_decomposition-alpha": lambda x: bracket_decomposition(1, (x, 3)),
    "Scalar-exponent": lambda x: Scalar({(0, x, 0): 1}),
    "basis_vector-lambda": lambda x: basis_vector([(0, x)]),
    "basis_vector-mu": lambda x: basis_vector(mu=[(x, 0)]),
    "basis_vector-k": lambda x: basis_vector(k=x),
    "basis_vector-r": lambda x: basis_vector(r=x),
    "Truncation-cap": lambda x: Truncation((0, x), [(0, 1)], 1, 1),
    "Truncation-entry": lambda x: Truncation((0, 2), [(0, x)], 1, 1),
    "Truncation-kmax": lambda x: Truncation((0, 2), [(0, 1)], x, 1),
    "Truncation-rmax": lambda x: Truncation((0, 2), [(0, 1)], 1, x),
    "Truncation-lmax": lambda x: Truncation((0, 2), [(0, 1)], 1, 1, lmax=x),
    "Triple.from_json-k": lambda x: Triple.from_json(_triple_json(k=x)),
    "Triple.from_json-entry": lambda x: Triple.from_json(_triple_json(entry=(0, x))),
    "Truncation.from_json-cap": lambda x: Truncation.from_json(_slice_json(cap=[0, x])),
    "Truncation.from_json-entry": lambda x: Truncation.from_json(_slice_json(entries=[[0, x]])),
    "Truncation.from_json-kmax": lambda x: Truncation.from_json(_slice_json(kmax=x)),
    "Truncation.from_json-rmax": lambda x: Truncation.from_json(_slice_json(rmax=x)),
    "Truncation.from_json-lmax": lambda x: Truncation.from_json(_slice_json(lmax=x)),
    "PsiSpec": lambda x: PsiSpec.of(1, x, 1),
    "Scalar-coefficient": lambda x: Scalar({(0, 0, 0): x}),
    "quotient-a": lambda x: quotient_project(basis_vector(r=1), x),
    "d-coeff": lambda x: d(1, (0, 1), coeff=x),
    "scalar-multiple": lambda x: x * basis_vector(k=1),
    "basis_vector-coeff": lambda x: basis_vector(coeff=x),
    "Scalar.generator": lambda x: Scalar.generator(x),
    "ZPoly-multiple": lambda x: ZPoly.z() * x,
    "Scalar-power": lambda x: S1 ** x,
}


@pytest.mark.parametrize("kind", NOT_INTS)
@pytest.mark.parametrize("field", FIELDS)
def test_integer_fields_refuse_non_ints(field, kind):
    with pytest.raises(ValueError):
        FIELDS[field](NOT_INTS[kind])


@pytest.mark.parametrize("value", [7, -7, 0, 10 ** 40])
def test_exact_int_returns_its_int(value):
    assert exact_int(value, "x") is value


@pytest.mark.parametrize("value", [1.0, 1.5, True, False, "1", None, Fraction(2), [1]])
def test_exact_int_refuses_everything_else(value):
    with pytest.raises(ValueError, match="the field"):
        exact_int(value, "the field")


@pytest.mark.parametrize("field", ["basis_vector-k", "basis_vector-r", "Truncation-kmax",
                                   "Truncation-rmax", "Truncation-lmax", "Triple.from_json-k",
                                   "Truncation.from_json-lmax", "Scalar-power"])
def test_counts_refuse_negative_ints(field):
    with pytest.raises(ValueError):
        FIELDS[field](-1)


SAME_VALUES = {
    "Partition": (lambda: Partition([[0, 1], [1, -1]]), lambda: Partition(((1, -1), (0, 1)))),
    "d": (lambda: d(1, [0, 1]), lambda: d(1, (0, 1))),
    "LieElt": (lambda: LieElt([((1, [0, 1]), 2)]), lambda: LieElt({(1, (0, 1)): 2})),
    "Scalar": (lambda: Scalar([([0, 1, 0], 3)]), lambda: Scalar({(0, 1, 0): 3})),
    "bracket_decomposition": (lambda: bracket_decomposition(1, [0, 3]),
                              lambda: bracket_decomposition(1, (0, 3))),
    "basis_vector": (lambda: basis_vector([[0, 1]], [[1, -1]], 1, 2),
                     lambda: basis_vector(((0, 1),), ((1, -1),), 1, 2)),
    "Truncation": (lambda: Truncation([1, 0], [[0, 1], [1, -1]], 1, 1, 3),
                   lambda: Truncation((1, 0), ((1, -1), (0, 1)), 1, 1, 3)),
    "PsiSpec": (lambda: PsiSpec([1, Fraction(1, 2), -3]),
                lambda: PsiSpec((1, Fraction(1, 2), -3))),
}


@pytest.mark.parametrize("name", SAME_VALUES)
def test_lists_and_tuples_build_equal_values(name):
    from_lists, from_tuples = SAME_VALUES[name]
    assert from_lists() == from_tuples()


def test_nothing_is_rounded():
    # each of these once built a value from the integer part of a float
    assert quotient_project(basis_vector(r=1), Fraction(1, 2)) == Fraction(1, 2) * w_vector()
    with pytest.raises(ValueError):
        Truncation((0, 2.5), [(0, 1)], 1.9, 0)
    with pytest.raises(ValueError):
        PsiSpec.of(0.1, 1, 1)
