"""Exact-arithmetic sprout sequences of symmetric functions.

A seed power series F(t) = 1 + a_1 t + ... generates symmetric functions
R_n through prod_i F(x_i t) = sum_n R_n t^n.  This package builds the
R_n over exact rationals, converts between the five classical bases,
runs finite Toeplitz-minor positivity checks, and verifies the resulting
combinatorics (alternating permutations, skew tableaux, interval-order
chromatic sums) against independent brute-force oracles.
"""

from .errors import BudgetError, ConsistencyError, PrecisionError
from .partitions import (
    conjugate,
    enumerate_partitions,
    multinomial,
    partition,
    z_of,
)
from .positivity import (
    MinorReport,
    PositivityReport,
    decimation_check,
    expansion_positivity,
    toeplitz_minor,
    toeplitz_minors,
)
from .seeds import SeedSpec, bernoulli, euler_numbers, phi_abs, seed_by_name
from .series import Series
from .sprout import (
    Seed,
    expansion_in,
    kronecker_hom_check,
    omega_seed,
    phi_hom,
    schur_coeff,
    special_h_pair,
    special_hk_series,
    special_hooks,
    special_ones,
    special_sn,
    sprout_m,
    sprout_p,
)
from .symfunc import (
    Basis,
    SymFunc,
    convert,
    dim,
    kronecker,
    multiply,
    omega,
    principal_specialize,
    scalar_product,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BudgetError",
    "ConsistencyError",
    "MinorReport",
    "PositivityReport",
    "PrecisionError",
    "Seed",
    "SeedSpec",
    "Series",
    "SymFunc",
    "bernoulli",
    "conjugate",
    "convert",
    "decimation_check",
    "dim",
    "enumerate_partitions",
    "euler_numbers",
    "expansion_in",
    "expansion_positivity",
    "kronecker",
    "kronecker_hom_check",
    "multinomial",
    "multiply",
    "omega",
    "omega_seed",
    "partition",
    "phi_abs",
    "phi_hom",
    "principal_specialize",
    "scalar_product",
    "schur_coeff",
    "seed_by_name",
    "special_h_pair",
    "special_hk_series",
    "special_hooks",
    "special_ones",
    "special_sn",
    "sprout_m",
    "sprout_p",
    "toeplitz_minor",
    "toeplitz_minors",
    "z_of",
    "__version__",
]
