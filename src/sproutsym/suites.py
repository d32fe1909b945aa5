"""Named verification suites behind the CLI ``verify`` subcommand.

Each suite is a generator that yields (name, ok, detail) per check, in
declaration order, and its nmax defaults to the degree ``verify`` runs
without --nmax.  The runner collects them all before anything is
printed, so an error raised mid-suite leaves stdout empty.  Every suite
checks a budget of ``errors.BUDGETS`` at nmax on its first step, so an
oversized run fails before any check runs: the oracle-backed suites check
their oracle's budget, and routes, omega, kronecker and h-specials, which
only run the algebra, check the "suite degree".
"""

from fractions import Fraction
from math import factorial

from .errors import check_budget
from .oracles import (
    cyclically_alternating_count,
    piecewise_alt_brute,
    piecewise_alt_count,
    rho_shape,
    rp_histogram,
    rp_histogram_brute,
    syt_count_brute,
    syt_count_det,
    uio_sum,
)
from .partitions import enumerate_partitions, multinomial, z_of
from .seeds import euler_numbers, phi_abs, seed_by_name
from .series import inverse, negate_arg
from .sprout import (
    expansion_in,
    kronecker_hom_check,
    omega_seed,
    schur_coeff,
    special_h_pair,
    special_hk_series,
    special_sn,
    sprout_m,
    sprout_p,
)
from .symfunc import Basis, basis_element, convert, dim, omega, scalar_product, scale

CATALOG_SPECS = [
    "one_plus_t",
    "geom",
    "qfn",
    "exp",
    "subset_exp(1,2)",
    "secsqrt",
    "l_genus",
    "ahat",
]


# Tableau, piecewise-alternating and record-partition checks that visit
# every object, and the cyclic-alternating count, run up to this degree.
_BRUTE_NMAX = 4


def run_checks(results) -> list[tuple[str, bool, str]]:
    return list(results)


def _catalog(precision):
    return [seed_by_name(spec, precision) for spec in CATALOG_SPECS]


def _mismatch(got, want) -> str:
    return "" if got == want else f"got {got!r}, expected {want!r}"


def _result(name: str, detail: str) -> tuple[str, bool, str]:
    return name, not detail, detail


def suite_rp(nmax: int = 4):
    """Record-partition histogram against the phi statistic and its walk."""
    check_budget("permutation length", 2 * nmax)
    for n in range(1, nmax + 1):
        hist = rp_histogram(n)
        expected = {lam: phi_abs(lam) for lam in enumerate_partitions(n)}
        detail = (
            _mismatch(hist, expected)
            or _mismatch(sum(hist.values()), euler_numbers(2 * n)[2 * n])
            or (_mismatch(rp_histogram_brute(n), hist) if n <= _BRUTE_NMAX else "")
        )
        yield _result(f"rp-histogram n={n}", detail)


def suite_m_expansion(nmax: int = 4):
    """Piecewise-alternating counts vs the multinomial formula vs the seed."""
    check_budget("permutation length", 2 * nmax)
    for n in range(1, nmax + 1):
        seed = seed_by_name("secsqrt", n)
        euler = euler_numbers(2 * n)
        for lam in enumerate_partitions(n):
            count = piecewise_alt_count(lam)
            formula = multinomial(2 * n, [2 * p for p in lam])
            for p in lam:
                formula *= euler[2 * p]
            from_seed = factorial(2 * n) * sprout_m(seed, n).coeff(lam)
            detail = (
                _mismatch(count, formula)
                or _mismatch(Fraction(count), from_seed)
                or (_mismatch(piecewise_alt_brute(lam), count) if n <= _BRUTE_NMAX else "")
            )
            yield _result(f"m-expansion n={n} lam={list(lam)}", detail)


def suite_schur_skew(nmax: int = 6):
    """Schur coefficients of the sec(sqrt(t)) sequence vs skew tableau counts."""
    check_budget("determinant cells", 2 * nmax)  # rho_shape(lam) has 2n cells
    seed = seed_by_name("secsqrt", nmax)
    for n in range(1, nmax + 1):
        for lam in enumerate_partitions(n):
            shape = rho_shape(lam)
            det_count = syt_count_det(shape)
            detail = _mismatch(Fraction(det_count), factorial(2 * n) * schur_coeff(seed, lam))
            if not detail and n <= _BRUTE_NMAX:
                detail = _mismatch(syt_count_brute(shape), det_count)
            yield _result(f"schur-skew n={n} lam={list(lam)}", detail)


def suite_uio(nmax: int = 3):
    """Interval-order chromatic sums against the sec(sqrt(t)) sequence."""
    check_budget("interval-order n", nmax)
    seed = seed_by_name("secsqrt", nmax)
    for n in range(1, nmax + 1):
        detail = _mismatch(uio_sum(n), scale(sprout_m(seed, n), factorial(2 * n)))
        yield _result(f"uio n={n}", detail)


def suite_h_specials(nmax: int = 6):
    """The four h-expansion facts for the sec(sqrt(t)) sequence."""
    check_budget("suite degree", nmax)
    seed = seed_by_name("secsqrt", nmax)
    euler = euler_numbers(2 * nmax)
    e_prime = [0] + [k * euler[2 * k - 1] for k in range(1, nmax + 1)]
    ones_series = special_hk_series(seed, 1, nmax)
    sum_series = special_sn(seed, nmax)
    for n in range(1, nmax + 1):
        got = factorial(2 * n) * ones_series.coeff(n)
        yield _result(f"h-specials [h_1^n] n={n}", _mismatch(got, 1))
        got = factorial(2 * n) * sum_series.coeff(n)
        yield _result(f"h-specials coefficient-sum n={n}", _mismatch(got, euler[2 * n]))
        got = factorial(2 * n) * special_hk_series(seed, n, 1).coeff(1)
        detail = _mismatch(got, e_prime[n])
        if not detail and n <= _BRUTE_NMAX:
            detail = _mismatch(cyclically_alternating_count(n), e_prime[n])
        yield _result(f"h-specials [h_n] n={n}", detail)
        for i in range(1, n // 2 + 1):
            j = n - i
            got = factorial(2 * n) * special_h_pair(seed, i, j)
            want = Fraction(
                multinomial(2 * n, [2 * i, 2 * j]) * e_prime[i] * e_prime[j] - e_prime[n],
                2 if i == j else 1,
            )
            yield _result(f"h-specials [h_{i}h_{j}] n={n}", _mismatch(got, want))


def suite_omega(nmax: int = 6):
    """Behavior under the omega involution, seed by seed."""
    check_budget("suite degree", nmax)
    for seed in _catalog(nmax):
        twisted = omega_seed(seed)
        detail = _mismatch(omega_seed(twisted).a, seed.a)
        yield _result(f"omega involution seed={seed.name}", detail)
        for n in range(1, nmax + 1):
            lhs = convert(omega(sprout_m(seed, n)), Basis.M)
            detail = _mismatch(lhs, sprout_m(twisted, n))
            yield _result(f"omega compatibility seed={seed.name} n={n}", detail)
        flipped = inverse(negate_arg(seed.a))
        got = [schur_coeff(seed, (1,) * n) for n in range(nmax + 1)]
        want = [flipped.coeff(n) for n in range(nmax + 1)]
        yield _result(f"omega [s_1^n] series seed={seed.name}", _mismatch(got, want))


def _routes_mismatch(seed, n: int, in_p) -> str:
    """Which route leaves the monomial route at degree n, or "".

    ``in_p`` is the monomial route's R_n rewritten in the power-sum basis,
    so the power-sum route is compared there and the hom routes in m."""
    via_m = sprout_m(seed, n)
    routes = (
        (in_p, sprout_p(seed, n), "power-sum"),
        (via_m, convert(expansion_in(seed, n, Basis.H), Basis.M), "hom/h"),
        (via_m, convert(expansion_in(seed, n, Basis.S), Basis.M), "hom/s"),
        (via_m, convert(expansion_in(seed, n, Basis.E), Basis.M), "hom/e"),
    )
    for monomial, route, label in routes:
        if route != monomial:
            return f"{label} route disagrees with monomial route"
    if dim(in_p) != seed.a_coeff(1) ** n:
        return "dimension is not a_1^n"
    return ""


def _power_pairing_mismatch(seed, nmax: int, in_p) -> str:
    """The first <R_dm, p_d^m> != b_d^m with dm <= nmax, or "".

    ``in_p[n]`` is the monomial route's R_n in the power-sum basis."""
    for d in range(1, nmax + 1):
        for m in range(1, nmax // d + 1):
            p_dm = basis_element(Basis.P, (d,) * m)
            got = scalar_product(in_p[d * m], p_dm)
            if got != seed.b_coeff(d) ** m:
                return f"<R_{d * m}, p_{d}^{m}> != b_{d}^{m}"
    return ""


def suite_routes(nmax: int = 6):
    """Agreement of the monomial, power-sum and hom construction routes."""
    check_budget("suite degree", nmax)
    for seed in _catalog(nmax):
        in_p = {}  # n -> the monomial route's R_n in p, converted once per degree
        for n in range(1, nmax + 1):
            in_p[n] = convert(sprout_m(seed, n), Basis.P)
            yield _result(
                f"routes seed={seed.name} n={n}", _routes_mismatch(seed, n, in_p[n])
            )
        detail = _power_pairing_mismatch(seed, nmax, in_p)
        yield _result(f"routes power-pairing seed={seed.name}", detail)


def suite_kronecker(nmax: int = 4):
    """R_n * p_rho = b_rho p_rho for every rho |- n, degree by degree.

    The internal product with sum_n R_n is the algebra map p_k -> b_k p_k
    (Macdonald I.7).  R_n is read from the monomial route, so a wrong a_k
    or b_k fails here.
    """
    check_budget("suite degree", nmax)
    for seed in _catalog(nmax):
        for n in range(nmax + 1):
            failed = kronecker_hom_check(seed, n)
            detail = f"{len(failed)} violated power sums" if failed else ""
            yield _result(f"kronecker seed={seed.name} n={n}", detail)


SUITES = {
    "rp": suite_rp,
    "m-expansion": suite_m_expansion,
    "schur-skew": suite_schur_skew,
    "uio": suite_uio,
    "h-specials": suite_h_specials,
    "omega": suite_omega,
    "routes": suite_routes,
    "kronecker": suite_kronecker,
}
