"""Partitions of lex-positive weights and the orders that drive reduction.

A Partition is a finite multiset of lex-positive rank-two weights: a
tuple subclass holding its entries non-decreasing (tuple comparison is the
lex order, so plain sorting does the right thing).  Entries like (1, -2)
are legal: positivity is lexicographic, not coordinatewise.  The
constructor is the one check of entries and the one reader of their
JSON: each is a list or tuple of exactly two ints, never rounded.  A
Partition equals a plain tuple of the same entries; the orders below go
through sort keys only.  Partitions sit in the keys of module vectors,
whose linear-combination base is coeff.LinearCombination, the base of
all four value types.

Two total orders on partitions are provided.  partition_lt compares
multiplicities at the lex-least weight where they differ; partition_prec
does the same but looks first only at weights whose first coordinate is
positive, falling back to partition_lt when the partitions agree on all
of those.  Basis triples (lambda, mu, k) are ordered by total weight,
then k, then mu under partition_lt, then lambda under partition_prec.

Each order is realised as a sort key compared as a plain tuple.  The key
of a partition is its negated entries in stored order: the first position
where two keys differ holds the lex-least weight whose multiplicities
differ, and the partition with fewer copies there has the larger entry
next (or none), hence the smaller key.  partition_prec_key puts the key of
the positive-first entries before that of the zero-first ones, which are
all lex-below them; triple_key strings the layers of the triple order
together.
"""

from __future__ import annotations

from typing import NamedTuple

from .coeff import exact_int
from .liecore import ZERO_WEIGHT, Weight, weight_add


class Partition(tuple):
    """A multiset of lex-positive weights: the tuple of its entries, sorted."""

    __slots__ = ()

    def __new__(cls, entries=()):
        clean = []
        for entry in entries:
            if len(entry) != 2:
                raise ValueError("a partition entry needs exactly two integers, got %r" % (entry,))
            entry = (exact_int(entry[0], "a partition entry"),
                     exact_int(entry[1], "a partition entry"))
            if entry <= (0, 0):
                raise ValueError("partition entries must be lex-positive, got %r" % (entry,))
            clean.append(entry)
        clean.sort()
        return super().__new__(cls, clean)

    def weight_sum(self) -> Weight:
        total = ZERO_WEIGHT
        for entry in self:
            total = weight_add(total, entry)
        return total

    def multiplicity(self, alpha) -> int:
        return self.count(tuple(alpha))

    def support(self):
        """Distinct entries, lex-ascending."""
        return tuple(sorted(set(self)))

    def positive_support(self):
        """Distinct entries whose first coordinate is positive."""
        return tuple(sorted(e for e in set(self) if e[0] > 0))

    def remove_one(self, alpha) -> "Partition":
        """Partition with one copy of alpha removed; alpha must occur."""
        alpha = tuple(alpha)
        entries = list(self)
        try:
            entries.remove(alpha)
        except ValueError:
            raise ValueError("%r does not occur in %s" % (alpha, self)) from None
        return Partition(entries)

    def add_one(self, alpha) -> "Partition":
        return Partition(self + (tuple(alpha),))

    def __str__(self):
        if not self:
            return "[]"
        return "[" + ", ".join("(%d,%d)" % e for e in self) + "]"

    def __repr__(self):
        # a tuple on the right of % is its argument list, so wrap it
        return "Partition(%s)" % (self,)

    def to_json(self) -> list:
        return [list(e) for e in self]


EMPTY = Partition()


def partition_lt_key(p: Partition) -> tuple:
    """Sort key of partition_lt: the negated entries in stored order."""
    return tuple((-a, -b) for a, b in p)


def partition_prec_key(p: Partition) -> tuple:
    """Sort key of partition_prec: positive-first entries, then zero-first ones."""
    key = partition_lt_key(p)
    zero_first = sum(1 for a, _ in p if a == 0)  # stored before the rest
    return (key[zero_first:], key[:zero_first])


def partition_lt(lam: Partition, mu: Partition) -> bool:
    """Strictly smaller multiplicity at the lex-least disagreement weight."""
    return partition_lt_key(lam) < partition_lt_key(mu)


def partition_prec(lam: Partition, mu: Partition) -> bool:
    """Like partition_lt but positive-first-coordinate weights take priority."""
    return partition_prec_key(lam) < partition_prec_key(mu)


class Triple(NamedTuple):
    lam: Partition
    mu: Partition
    k: int

    def weight_sum(self) -> Weight:
        return weight_add(self.lam.weight_sum(), self.mu.weight_sum())

    def __str__(self):
        return "(%s, %s, %d)" % (self.lam, self.mu, self.k)

    def to_json(self) -> dict:
        return {"lambda": self.lam.to_json(), "mu": self.mu.to_json(), "k": self.k}

    @staticmethod
    def from_json(data) -> "Triple":
        return Triple(Partition(data["lambda"]), Partition(data["mu"]),
                      exact_int(data["k"], "k", 0))


TRIPLE_MIN = Triple(EMPTY, EMPTY, 0)


def triple_key(t: Triple) -> tuple:
    """Sort key of the triple order: weight sum, then k, then mu, then lambda."""
    if t.k < 0:
        raise ValueError("k must be non-negative")
    return (t.weight_sum(), t.k, partition_lt_key(t.mu), partition_prec_key(t.lam))


def triple_prec(t: Triple, u: Triple) -> bool:
    """Strict order on basis triples: weight sum, then k, then mu, then lambda."""
    return triple_key(t) < triple_key(u)


def triple_preceq(t: Triple, u: Triple) -> bool:
    return t == u or triple_prec(t, u)


def triple_max(triples) -> Triple:
    """Maximum under triple_prec."""
    top = max(triples, key=triple_key, default=None)
    if top is None:
        raise ValueError("triple_max of an empty collection")
    return top
