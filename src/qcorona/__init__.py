"""Exact algebra of quaternionic slice polynomials.

Star products, regular conjugation and symmetrization, right division and
the extended right Euclidean algorithm, slice splitting, exact zero
classification, Koszul syzygy matrices, minor-gcd full-rank certificates,
and constructive solving of f1*h1 + ... + fn*hn = 1 for families with no
common zeros.  All arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .corona import (
    CommonZeroObstruction,
    CoronaInstance,
    CoronaSolution,
    decide,
    diagnose_common_zero,
    koszul_solve,
    solve_corona,
    verify_identity,
)
from .cpoly import CPoly, bezout_multi, bezout_pair, gcd_monic
from .hpoly import (
    HPoly,
    ReciprocalPair,
    RightBezout,
    SplitPair,
    Sphere,
    ZeroSet,
    classify_zeros,
    eval_on_sphere,
    reciprocal_pair,
    right_bezout,
    star_eval_pointwise,
    zeros_on_sphere,
)
from .polymatrix import (
    FullRankCertificate,
    MinorBudgetExceeded,
    PolyMatrix,
    RankObstruction,
    minor_gcd_certificate,
    rank_at,
    solve_full_rank,
)
from .scalars import GaussRat, Quat, SliceForm, slice_decompose
from .syzygy import (
    NaturalSyzygy,
    SyzygyPair,
    build_koszul,
    check_three_term,
    hat_swap,
    kernel_dimension_at,
    natural_syzygy,
)

__all__ = [
    "CPoly",
    "CommonZeroObstruction",
    "CoronaInstance",
    "CoronaSolution",
    "FullRankCertificate",
    "GaussRat",
    "HPoly",
    "MinorBudgetExceeded",
    "NaturalSyzygy",
    "PolyMatrix",
    "Quat",
    "RankObstruction",
    "ReciprocalPair",
    "RightBezout",
    "SliceForm",
    "SplitPair",
    "Sphere",
    "SyzygyPair",
    "ZeroSet",
    "bezout_multi",
    "bezout_pair",
    "build_koszul",
    "check_three_term",
    "classify_zeros",
    "decide",
    "diagnose_common_zero",
    "eval_on_sphere",
    "gcd_monic",
    "hat_swap",
    "kernel_dimension_at",
    "koszul_solve",
    "minor_gcd_certificate",
    "natural_syzygy",
    "rank_at",
    "reciprocal_pair",
    "right_bezout",
    "slice_decompose",
    "solve_corona",
    "solve_full_rank",
    "star_eval_pointwise",
    "verify_identity",
    "zeros_on_sphere",
]
