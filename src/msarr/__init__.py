"""Exact-arithmetic toolkit for discriminantal arrangements.

Builds arrangements B(n, k) from generic bases, computes intersection
lattices and the consistency filtration of sign vectors with positive-
relation certificates, constructs non-very-generic witness bases, and
checks flats-based matroid properties.  All computation is over exact
ordered fields (rationals, optionally extended by sqrt(5)).
"""

from .arrangement import (
    CentralArrangement,
    Flat,
    GordanCertificate,
    SignVector,
    chamber_sign_vectors,
    circuits,
    essentialize,
    intersection_lattice,
    localization,
    matroid_of_arrangement,
    zaslavsky_chambers,
)
from .errors import GuardExceeded, MsarrError, RetryExhausted, VerificationError
from .examples import named_base
from .feasibility import FeasibilityOutcome, strict_feasibility
from .fields import PHI, Q, Qrt5, format_scalar, parse_scalar
from .linalg import Mat, det, kernel_basis, rank, rref
from .matroid import (
    Matroid,
    contract,
    is_paving,
    matroid_from_coatoms,
    matroid_rank,
    ms_paving_coatoms,
    uniform_matroid,
)
from .msbuild import (
    GenericArrangement,
    MSArrangement,
    alpha_I,
    build_ms,
    canonical_presentation,
    d_flat,
    gale_dual,
    is_generic,
    is_very_generic,
    moment_curve_base,
    ms_label,
    parse_ms_label,
    random_generic,
    random_very_generic,
)
from .nonvgen import (
    WitnessSpec,
    a_family_matrix,
    cyclic_map_c,
    in_variety,
    jump_after_perturbation,
    perturb_to_very_generic,
    witness_rank3,
    witness_rank_r,
)
from .pnk import SetFamily, enumerate_pnk, is_pnk_element, lattice_isomorphic_to_pnk, pnk_rank
from .sigma import (
    SigmaReport,
    consistent_at,
    direct_sum,
    epsilon_C,
    find_jump,
    in_sigma_p,
    is_simple_chamber,
    sigma_product_check,
    sigma_set,
    walls,
)

__version__ = "0.1.0"
