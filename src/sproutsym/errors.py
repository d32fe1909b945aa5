"""Exception types shared across the package, and the one table of budgets."""


class PrecisionError(Exception):
    """A computation needs series coefficients beyond the stored truncation order."""


class BudgetError(Exception):
    """An enumeration or minor sweep would exceed its size budget in ``BUDGETS``."""


class ConsistencyError(Exception):
    """Two supposedly equivalent computation routes disagreed (internal bug guard)."""


# Every size limit of the package, by name.  Each is checked by
# ``check_budget`` before the work it bounds starts: the CLI checks before it
# builds a seed, a suite on its first step, a library function on entry.
BUDGETS = {
    # seed precision of expand (n) and positivity (max(degree*decimate, nmax))
    "precision": 36,
    # degree of R_n that special --op hooks (n) and --op ones (nmax) build
    "special degree": 24,
    # degree of R_n that special --op sn, hk and hpair convert to the h basis
    "conversion degree": 20,
    # nmax of the routes, omega, kronecker and h-specials suites
    "suite degree": 14,
    # minors a Toeplitz sweep indexes, skipped ones included
    "minors": 3_000_000,
    # longest permutation an alternating-permutation oracle walks or counts
    "permutation length": 12,
    # cells of a skew shape counted by the tableau determinant
    "determinant cells": 24,
    # standard tableaux of a skew shape filled one by one (about 4 s at the limit)
    "brute tableaux": 1_000_000,
    # n of the perfect matchings of [2n] listed by matchings
    "matching n": 6,
    # vertices of a graph whose chromatic symmetric function is enumerated
    "chromatic vertices": 8,
    # n of the interval-order chromatic sum over matchings of [2n]
    "interval-order n": 5,
}


def check_budget(name: str, value: int) -> None:
    """BudgetError if value is above the limit ``BUDGETS[name]``."""
    limit = BUDGETS[name]
    if value > limit:
        raise BudgetError(f"{name} {value} exceeds the budget of {limit}")
