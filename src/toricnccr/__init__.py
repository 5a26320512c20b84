"""Toric NCCR classification for rank-one Gorenstein toric singularities.

Given only a finitely generated abelian group of rank at most one and a list
of weights, the package validates the data, builds the graded quotient poset,
enumerates all toric non-commutative crepant resolutions up to translation,
mutates them, draws their quivers, and verifies the classification against
independent brute-force oracles (sign-pattern witness search and exact
simplicial homology).
"""

__version__ = "0.1.0"

from .errors import (
    AxiomViolation,
    BoundTooSmall,
    GenerationFailure,
    InfiniteGroup,
    InputError,
    InternalCheckError,
    MismatchedGroup,
    NonTorsionGenerator,
    NotGorenstein,
    NotMinimal,
    NotNCCR,
    OracleMismatch,
    ParseError,
    RankZeroGroup,
    SignCountFailure,
)
from .groups import (
    FGGroup,
    parse_element,
    quotient_by_subgroup,
    smith_normal_form,
    subgroup_is_whole,
)
from .weights import WeightSystem, validate
from .poset import AxiomReport, GradedContext, check_axioms, grading_context
from .uppersets import (
    Rim,
    RimStatus,
    entry_index,
    exchange_graph,
    in_upper_set,
    is_mutation_step,
    make_rim,
    minimal_elements,
    mutate,
    normalize,
    rim_of_upper_closure,
    rim_status,
    translation_classes,
)
from .nccr import (
    SummandSet,
    is_mcm,
    is_modifying,
    is_nccr,
    mutate_nccr,
    nccr_classes,
    preimage_summands,
    rim_of,
)
from .oracle import (
    CONTRACTIBLE,
    EMPTY,
    SimplicialComplex,
    betti_numbers,
    classify_sign_vector,
    crosscheck_mcm,
    face_test,
    local_cohomology_window,
    sign_pattern_witness,
    sphere,
    sufficient_window,
    support_complex,
)
from .quivers import (
    Quiver,
    emit_dot,
    endomorphism_quiver,
    hom_monomial_count,
    mckay_quiver,
    monomial_label,
)
