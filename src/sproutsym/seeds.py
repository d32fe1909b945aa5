"""Named seed catalog, zigzag and Bernoulli numbers, and the phi statistic.

The square-root-flavored seeds (secsqrt, l_genus, ahat) never touch
fractional powers: each is an even function of x written directly in the
variable t = x^2, built by exact division of the even-part expansions of
cos, sinh and friends.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import NamedTuple

from .errors import ConsistencyError, PrecisionError
from .partitions import multiplicities, partition
from .series import Series, inverse, load_seed_series, mul
from .sprout import Seed


@cache
def _euler_upto(n_max: int) -> tuple:
    """Zigzag numbers by the boustrophedon (Seidel triangle) recurrence."""
    values = [1]
    row = [1]
    for n in range(1, n_max + 1):
        prev = row
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + prev[n - k])
        values.append(row[n])
    return tuple(values)


def euler_numbers(n_max: int) -> list[int]:
    """E_0..E_{n_max}: E_k counts down-up alternating permutations of [k]."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return list(_euler_upto(n_max))


@cache
def _bernoulli_upto(n_max: int) -> tuple:
    values: list[Fraction] = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = sum(
            (comb(m + 1, k) * values[k] for k in range(m)), Fraction(0)
        )
        values.append(-acc / (m + 1))
    return tuple(values)


def bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} with the B_1 = -1/2 convention."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return list(_bernoulli_upto(n_max))


def phi_abs(lam) -> int:
    """|phi(lam)| = (2n)! * prod_k (E_{2k-1}/(2k)!)^{m_k} / m_k!, an integer."""
    lam = partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    euler = _euler_upto(2 * n - 1)
    value = Fraction(factorial(2 * n))
    for k, m in multiplicities(lam).items():
        value *= Fraction(euler[2 * k - 1], factorial(2 * k)) ** m / factorial(m)
    if value.denominator != 1:
        raise ConsistencyError(f"phi({list(lam)!r}) = {value} is not an integer")
    return value.numerator


# ---------------------------------------------------------------------------
# Catalog.


class SeedSpec(NamedTuple):
    """A catalog seed name plus its parameters, if any."""

    name: str
    params: tuple = ()


def parse_seed_spec(text: str) -> SeedSpec:
    """Parse CLI seed syntax: a bare name, name(args), or file:PATH."""
    text = text.strip()
    if text.startswith("file:"):
        return SeedSpec("file", (text[len("file:"):],))
    if "(" in text and text.endswith(")"):
        name, _, inner = text[:-1].partition("(")
        name = name.strip()
        inner = inner.strip().strip("{}")
        if name == "file":
            return SeedSpec("file", (inner,))
        if not inner:
            if name in _PLAIN_SEEDS:
                raise ValueError(f"seed {name!r} takes no parameters")
            raise ValueError(f"seed {name!r} needs parameters")
        try:
            params = tuple(int(x) for x in inner.split(","))
        except ValueError:
            raise ValueError(f"could not parse parameters in seed spec {text!r}") from None
        return SeedSpec(name, params)
    return SeedSpec(text)


def _sec_sqrt_series(precision: int) -> Series:
    euler = _euler_upto(2 * precision)
    return Series(
        [Fraction(euler[2 * n], factorial(2 * n)) for n in range(precision + 1)]
    )


def _l_genus_series(precision: int) -> Series:
    # x/tanh(x) = cosh(x) / (sinh(x)/x), written in t = x^2.
    cosh_even = Series([Fraction(1, factorial(2 * n)) for n in range(precision + 1)])
    sinh_over_x = Series(
        [Fraction(1, factorial(2 * n + 1)) for n in range(precision + 1)]
    )
    return mul(cosh_even, inverse(sinh_over_x))


def _ahat_series(precision: int) -> Series:
    # (x/2)/sinh(x/2) = 1 / (sinh(x/2)/(x/2)), written in t = x^2.
    sinh_half = Series(
        [Fraction(1, 4**n * factorial(2 * n + 1)) for n in range(precision + 1)]
    )
    return inverse(sinh_half)


def _subset_exp_series(subset, precision: int) -> Series:
    if not subset or any(j < 1 for j in subset):
        raise ValueError("subset_exp needs a nonempty set of positive integers")
    coeffs = [Fraction(0)] * (precision + 1)
    coeffs[0] = Fraction(1)
    for j in set(subset):
        if j <= precision:
            coeffs[j] = Fraction(1, factorial(j))
    return Series(coeffs)


CATALOG: list[tuple[str, str]] = [
    ("one_plus_t", "F(t) = 1 + t; R_n = e_n, the elementary symmetric functions"),
    ("geom", "F(t) = 1/(1-t); R_n = h_n, the complete homogeneous functions"),
    ("qfn", "F(t) = (1+t)/(1-t); R_n = sum_k e_k h_{n-k}, the one-row Schur Q-function"),
    ("exp", "F(t) = exp(t); R_n = p_1^n / n!"),
    ("subset_exp(S)", "F(t) = 1 + sum_{j in S} t^j/j!; counts maps whose preimage sizes lie in S"),
    ("secsqrt", "F(t) = sec(sqrt(t)); a_n = E_{2n}/(2n)!, tied to alternating permutations"),
    ("l_genus", "F(t) = sqrt(t)/tanh(sqrt(t)); the L-genus seed"),
    ("ahat", "F(t) = (sqrt(t)/2)/sinh(sqrt(t)/2); the A-hat genus seed"),
    ("file(PATH)", "coefficients from a JSON seed file ('p/q' strings, entry 0 = '1')"),
]


# Catalog seeds without parameters: name -> series builder at a precision.
_PLAIN_SEEDS = {
    "one_plus_t": lambda precision: Series([int(n <= 1) for n in range(precision + 1)]),
    "geom": lambda precision: Series([1] * (precision + 1)),
    "qfn": lambda precision: Series([1] + [2] * precision),
    "exp": lambda precision: Series(
        [Fraction(1, factorial(n)) for n in range(precision + 1)]
    ),
    "secsqrt": _sec_sqrt_series,
    "l_genus": _l_genus_series,
    "ahat": _ahat_series,
}


def seed_by_name(spec, precision: int) -> Seed:
    """Build a catalog seed at the requested truncation order."""
    if isinstance(spec, str):
        spec = parse_seed_spec(spec)
    if precision < 0:
        raise ValueError("precision must be nonnegative")
    name, params = spec.name, spec.params
    if name in _PLAIN_SEEDS:
        if params:
            raise ValueError(f"seed {name!r} takes no parameters")
        return Seed(_PLAIN_SEEDS[name](precision), name=name)
    if name == "subset_exp":
        label = f"subset_exp({','.join(str(j) for j in sorted(set(params)))})"
        return Seed(_subset_exp_series(params, precision), name=label)
    if name == "file":
        if len(params) != 1:
            raise ValueError("file seed needs exactly one path")
        series = load_seed_series(params[0])
        if series.precision < precision:
            raise PrecisionError(
                f"seed file holds precision {series.precision}, need {precision}"
            )
        return Seed(series.truncate(precision), name=f"file({params[0]})")
    raise ValueError(f"unknown seed name {name!r}")
