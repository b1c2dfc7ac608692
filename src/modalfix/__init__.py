"""Fixed points of modalized formulas in quantified modal logic.

The package computes explicit fixed points F for targets A(#p): the
staged construction (fixpoint_qk) solves A up to a bounded
accessibility height, the guarded construction (sigma_fixpoint and
friends) solves Boolean combinations of box guarded subformulas on
transitive frames, and a finite Kripke model checker over expanding
domains verifies the results semantically. The chain countermodels
(countermodel module) witness that the bounded height restriction is
essential for general targets.
"""

from .syntax import (
    And,
    ArityMismatchError,
    Atom,
    BooleanDecomposition,
    Bottom,
    Box,
    CaptureError,
    Const,
    DepthOverflowError,
    Exists,
    FALSE,
    FixpointTarget,
    Forall,
    Formula,
    Implies,
    LogicError,
    Not,
    NotDecomposableError,
    NotModalizedError,
    NotNormalizedError,
    NotSigmaError,
    Or,
    OutputTooLargeError,
    ParseError,
    PropVar,
    TRUE,
    TooDeepError,
    Top,
    UnknownPredicateError,
    Var,
    bound_individual_vars,
    boxdot,
    boxes,
    constants,
    decompose_boolean_sigma,
    dia,
    format_formula,
    free_and_bound_vars,
    free_individual_vars,
    iff,
    is_modalized,
    is_sigma,
    normalize_variables,
    occurrence_depths,
    parse,
    predicates,
    prop_vars,
    subst_at_depths,
    subst_prop,
    subst_prop_map,
    truncate,
    universal_closure,
)
from .kripke import (
    BoundExplosionError,
    EvalError,
    FrameReport,
    GenError,
    KripkeModel,
    ModelError,
    ModelGenSpec,
    ModelPool,
    batch_truth_masks,
    enumerate_models,
    eval_formula,
    first_failing_world,
    format_model,
    frame_report,
    generated_submodel,
    parse_model,
    random_model,
    truth_mask,
    valid_in_model,
    validate_model,
)
from .fixpoint import (
    FixpointTrace,
    SigmaFixpointResult,
    SigmaStep,
    b_n_transform,
    boolean_sigma_fixpoint,
    fixpoint_qk,
    sigma_fixpoint,
    simultaneous_sigma_fixpoints,
)
from .countermodel import (
    RefutationRow,
    candidate_equation,
    chain_model,
    eval_infinite_chain,
    refutation_table,
    refutation_target,
    refute_fixpoint,
)

__version__ = "0.1.0"
