"""Exact Whittaker-module calculator for the derivation algebra of the
rank-two torus.

The package computes, over exact rationals (optionally with the three
type values kept symbolic), inside the universal Whittaker module built
on a cyclic vector w:

* brackets and the canonical two-term decomposition of generators,
* the module action and straightening onto the ordered basis,
* truncated solution spaces of the Whittaker condition,
* reduction of arbitrary vectors to z-polynomials times w, with
  replayable transcripts,
* quotient actions and simplicity probes where z acts by a rational,
* monic generators of submodule Whittaker ideals, and
* instance-level verification of the congruence rules driving it all.

The ``whit`` console script exposes the same operations on the command
line.
"""

from .coeff import (
    Scalar,
    PsiSpec,
    SYMBOLIC,
    SingularPsi,
    ZPoly,
    poly_gcd,
    attach_coefficient,
)
from .liecore import (
    NotPositive,
    OutOfRange,
    weight_cmp,
    weight_add,
    weight_neg,
    ZERO_WEIGHT,
    is_positive,
    triangular_part,
    LieElt,
    d,
    bracket,
    psi_eval,
    bracket_decomposition,
    expand_decomposition,
)
from .orders import (
    Partition,
    EMPTY,
    partition_lt,
    partition_prec,
    Triple,
    TRIPLE_MIN,
    triple_prec,
    triple_preceq,
    triple_max,
)
from .wmod import (
    ZeroVector,
    NonDescent,
    BasisMonomial,
    ModuleVector,
    basis_vector,
    w_vector,
    straighten_word,
    act,
    act_word,
    degree_of,
    in_filtration,
    WhittakerCheck,
    weight_box,
    is_whittaker,
)
from .textio import (
    ParseError,
    parse_lie,
    parse_vector,
    parse_scalar,
    parse_psi,
)
from .solver import (
    NonTermination,
    ProbeFailed,
    HypothesisViolated,
    Truncation,
    whittaker_space,
    ReductionStep,
    ReductionTranscript,
    reduce_to_whittaker,
    quotient_project,
    quotient_act,
    simplicity_probe,
    submodule_generator,
    RULES,
    LemmaInstance,
    VerifyReport,
    verify_lemma,
    random_instance,
)

__version__ = "0.1.0"
