"""str and repr of the value types, and the linear-combination behaviour they share."""

from fractions import Fraction

import pytest

from whitmod.coeff import S1, S2, S3, Scalar, ZPoly
from whitmod.liecore import LieElt, d
from whitmod.orders import Partition, Triple
from whitmod.wmod import BasisMonomial, ModuleVector, basis_vector, w_vector

P0 = Partition()
P1 = Partition([(0, 1)])
P3 = Partition([(1, -2), (0, 2), (0, 1)])

TEXT = [
    (P0, "[]", "Partition([])"),
    (P1, "[(0,1)]", "Partition([(0,1)])"),
    (P3, "[(0,1), (0,2), (1,-2)]", "Partition([(0,1), (0,2), (1,-2)])"),
    (Triple(P3, P1, 2), "([(0,1), (0,2), (1,-2)], [(0,1)], 2)",
     "Triple(lam=Partition([(0,1), (0,2), (1,-2)]), mu=Partition([(0,1)]), k=2)"),
    (BasisMonomial(P1, P3, 2, 3), "d1(0,-1) d2(0,-1) d2(0,-2) d2(-1,2) h2^2 z^3 w",
     "BasisMonomial(lam=Partition([(0,1)]), mu=Partition([(0,1), (0,2), (1,-2)]), k=2, r=3)"),
    (Scalar.rational(-3, 4), "-3/4", "Scalar(-3/4)"),
    (S1 * S1 * 3 - S2 * Fraction(1, 2) + 1, "3*s1^2 - 1/2*s2 + 1",
     "Scalar(3*s1^2 - 1/2*s2 + 1)"),
    (ZPoly([1, S1, 2 - S3]), "(-s3 + 2)*z^2 + (s1)*z + 1", "ZPoly((-s3 + 2)*z^2 + (s1)*z + 1)"),
    (LieElt(), "0", "LieElt(0)"),
    (d(1, (0, 1)) + d(2, (-1, 2), -2) + d(2, (0, 0), S1 * S2) + d(1, (0, 0)),
     "-2*d2(-1,2) + z + s1*s2*h2 + d1(0,1)", "LieElt(-2*d2(-1,2) + z + s1*s2*h2 + d1(0,1))"),
    (ModuleVector(), "0", "ModuleVector(0)"),
    (basis_vector(P1, P3, 1, 2, -S1) + w_vector() * Fraction(2, 3)
     + basis_vector([(0, 2)], (), 0, 1, S1 + S2),
     "2/3 * w + (s1 + s2) * d1(0,-2) z w - s1 * d1(0,-1) d2(0,-1) d2(0,-2) d2(-1,2) h2 z^2 w",
     "ModuleVector(2/3 * w + (s1 + s2) * d1(0,-2) z w"
     " - s1 * d1(0,-1) d2(0,-1) d2(0,-2) d2(-1,2) h2 z^2 w)"),
]


@pytest.mark.parametrize("value,text,rep", TEXT, ids=[rep for _, _, rep in TEXT])
def test_str_and_repr(value, text, rep):
    assert str(value) == text
    assert repr(value) == rep


@pytest.mark.parametrize("x", [
    S1 + 2,
    d(2, (1, -1), S3),
    basis_vector([(0, 1)], (), 1, 0, S2),
    ZPoly([1, S1, 0, 2]),
], ids=["scalar", "lie", "vector", "zpoly"])
def test_arithmetic_keeps_the_class(x):
    for y in (-x, x + x, x - x, 0 * x):
        assert type(y) is type(x)
