"""Exact algebra of quaternionic slice polynomials.

Star products, regular conjugation and symmetrization, right division and
the extended right Euclidean algorithm, slice splitting, exact zero
classification, Koszul syzygy matrices, minor-gcd full-rank certificates,
and constructive solving of f1*h1 + ... + fn*hn = 1 for families with no
common zeros.  All arithmetic is exact rational.  A quaternionic
polynomial (HPoly) is stored as its slice split F + G*j, two polynomials
over the Gaussian rationals (CPoly), and a CPoly as Gaussian-integer
numerators over one denominator, so both rings share one integer kernel.
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
    RightBezout,
    Sphere,
    ZeroSet,
    classify_zeros,
    eval_on_sphere,
    right_bezout,
    zeros_on_sphere,
)
from .polymatrix import (
    FullRankCertificate,
    PolyMatrix,
    RankObstruction,
    minor_gcd_certificate,
    rank_at,
    solve_full_rank,
)
from .scalars import GaussRat, Quat
from .syzygy import (
    NaturalSyzygy,
    SyzygyPair,
    build_koszul,
    check_three_term,
    hat_swap,
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
    "NaturalSyzygy",
    "PolyMatrix",
    "Quat",
    "RankObstruction",
    "RightBezout",
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
    "koszul_solve",
    "minor_gcd_certificate",
    "natural_syzygy",
    "rank_at",
    "right_bezout",
    "solve_corona",
    "solve_full_rank",
    "verify_identity",
    "zeros_on_sphere",
]
