"""Entanglement-assisted quantum MDS codes from cyclic codes over GF(q^2).

Four families of [[n, k, d; c]] codes of length n = (q^2+1)/(m^2+1) are
constructed from consecutive-coset defining sets, with the entanglement
count obtained three independent ways: a closed form, the defining-set
decomposition |Z n (-qZ)|, and the rank of H H† over GF(q^2).
"""

__version__ = "0.1.0"

from .fields import (
    GF,
    Field,
    FieldElement,
    embed,
    find_primitive_element,
    in_subfield,
    multiplicative_order,
    nth_root_of_unity,
    project,
    quadratic_extension,
)
from .cosets import (
    Decomposition,
    ResidueSet,
    all_cosets,
    cyclotomic_coset,
    decompose,
    neg_q_image,
    run_defining_set,
)
from .families import (
    EAParams,
    ClosedForm,
    FamilySpec,
    VerificationReport,
    build_T1,
    build_T1_prime,
    build_defining_set,
    closed_form,
    ea_params,
    enumerate_admissible,
    spec_from_q,
    sweep_specs,
    theorem_quantum_dim,
    verify_family,
)
from .rank_oracle import (
    OracleSizeError,
    RankReport,
    entanglement_rank,
)
from .verification import SweepSummary, coset_identity_holds, run_verification_sweep
from .published_params import PUBLISHED_ROWS

__all__ = [
    "GF", "Field", "FieldElement", "embed", "find_primitive_element",
    "in_subfield", "multiplicative_order", "nth_root_of_unity",
    "project", "quadratic_extension",
    "Decomposition", "ResidueSet", "all_cosets", "cyclotomic_coset",
    "decompose", "neg_q_image", "run_defining_set",
    "EAParams", "ClosedForm", "FamilySpec",
    "VerificationReport", "build_T1", "build_T1_prime", "build_defining_set",
    "closed_form", "ea_params", "enumerate_admissible", "spec_from_q",
    "sweep_specs", "theorem_quantum_dim", "verify_family",
    "OracleSizeError", "RankReport", "entanglement_rank",
    "SweepSummary", "coset_identity_holds", "run_verification_sweep",
    "PUBLISHED_ROWS",
    "__version__",
]
