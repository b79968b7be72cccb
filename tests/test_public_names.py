"""The package's public surface stays fixed."""

import ordsem

PUBLIC_NAMES = [
    "AlgebraHomomorphism", "BrouwerAlgebra", "CapacityError", "Countermodel", "Formula",
    "InputError", "InvariantViolation", "MassProblem", "OrdsemError", "PMorphism",
    "ParseError", "PartialHomomorphism", "Poset", "PreconditionError", "Report",
    "SplittingStructure", "StagingError", "StructureError", "SyntheticAntichainModel",
    "Upset", "ValidUpToBound", "ValuationError", "binary_tree_frame", "brouwer",
    "build_pmorphism", "check_split_conditions", "enumerate_upsets", "errors",
    "eval_algebra", "forces", "formulas", "from_relation", "generate_posets",
    "interval_algebra", "ipc_check_bounded", "is_upset", "iso_check", "join",
    "mass_problem", "morphism", "muchnik", "muchnik_leq", "muchnik_ops", "order", "parse",
    "pmorphism_from_labels", "pmorphism_of", "pretty", "quotient", "search_pmorphism",
    "semantics", "split_from_cond_ii", "splitting", "theory_contains", "transfer_check",
    "upset_algebra", "upward_closure", "verify_brouwer", "verify_pmorphism",
    "verify_splitting_class",
]


def test_all_snapshot():
    assert ordsem.__all__ == PUBLIC_NAMES
