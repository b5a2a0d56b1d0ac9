"""Exact d-elliptic locus classes on moduli of genus-2 and genus-3 curves.

Everything is computed in exact rational arithmetic: divisor-sum
convolutions, brute-force cover counts, isogeny counts from the number of
Hermite normal forms (checked against a brute-force subgroup enumeration),
boundary intersection profiles, pairing-based class solves, and
quasimodularity certification of the resulting generating series. Every
assembled quantity is cross-checked against an independent route, and any
disagreement raises CrossCheckError.
"""

from .chow import (
    ChowClass,
    pairing,
    pushforward_m21_to_m2,
    solve_class,
    to_q_class_basis,
)
from .covers import (
    Partition,
    count_dd22,
    count_dd2222,
    count_pointed_isogenies,
    count_sublattices,
    hurwitz_number,
)
from .divisors import conv2, conv2_weighted, conv3, divisors, sigma
from .errors import CrossCheckError
from .loci import (
    boundary_profile_m2,
    boundary_profile_m21,
    boundary_profile_m3,
    certify_quasimodularity,
    coefficient_series,
    delliptic_class_m2,
    delliptic_class_m21,
    delliptic_class_m3,
    fixed_target_class_m2,
    fixed_target_profile_m2,
    pointed_cover_class_m12,
    product_surfaces_m3,
    total_ramification_profile_m13,
    triple_branch_cancellation,
    triple_branch_chain_sum,
    triple_branch_split_sum,
)
from .quasimodular import (
    NotQuasimodular,
    QModMonomial,
    QuasimodularFit,
    eisenstein,
    fit_quasimodular,
    q_derivative,
    quasimodular_basis,
)
from .report import run_verification
from .series import QSeries

__version__ = "0.1.0"

__all__ = [
    "ChowClass",
    "CrossCheckError",
    "NotQuasimodular",
    "Partition",
    "QModMonomial",
    "QSeries",
    "QuasimodularFit",
    "boundary_profile_m2",
    "boundary_profile_m21",
    "boundary_profile_m3",
    "certify_quasimodularity",
    "coefficient_series",
    "conv2",
    "conv2_weighted",
    "conv3",
    "count_dd22",
    "count_dd2222",
    "count_pointed_isogenies",
    "count_sublattices",
    "delliptic_class_m2",
    "delliptic_class_m21",
    "delliptic_class_m3",
    "divisors",
    "eisenstein",
    "fit_quasimodular",
    "fixed_target_class_m2",
    "fixed_target_profile_m2",
    "hurwitz_number",
    "pairing",
    "pointed_cover_class_m12",
    "product_surfaces_m3",
    "pushforward_m21_to_m2",
    "q_derivative",
    "quasimodular_basis",
    "run_verification",
    "sigma",
    "solve_class",
    "to_q_class_basis",
    "total_ramification_profile_m13",
    "triple_branch_cancellation",
    "triple_branch_chain_sum",
    "triple_branch_split_sum",
]
