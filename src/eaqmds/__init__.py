"""Entanglement-assisted quantum MDS codes from cyclic codes over GF(q^2).

Four families of [[n, k, d; c]] codes of length n = (q^2+1)/(m^2+1) are
constructed from consecutive-coset defining sets, with the entanglement
count obtained three independent ways: a closed form, the defining-set
decomposition |Z n (-qZ)|, and the rank of H H† over GF(q^2).
"""

__version__ = "0.1.0"

from .fields import GF, find_primitive_element, nth_root_of_unity, quadratic_extension
from .cosets import ResidueSet, decompose, run_defining_set
from .families import (
    FamilySpec,
    build_T1,
    build_T1_prime,
    build_defining_set,
    closed_form,
    ea_params,
    enumerate_admissible,
    verify_family,
)
from .rank_oracle import entanglement_rank

__all__ = [
    "GF", "find_primitive_element", "nth_root_of_unity", "quadratic_extension",
    "ResidueSet", "decompose", "run_defining_set",
    "FamilySpec", "build_T1", "build_T1_prime", "build_defining_set",
    "closed_form", "ea_params", "enumerate_admissible", "verify_family",
    "entanglement_rank",
    "__version__",
]
