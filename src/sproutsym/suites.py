"""Named verification suites behind the CLI ``verify`` subcommand.

Each suite yields (name, thunk) pairs; a thunk returns (ok, detail).
The runner calls the thunks one after another, in declaration order.
A suite backed by a budgeted oracle checks that budget at nmax on its
first step, so an oversized run fails before any check runs.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .oracles import (
    check_alt_budget,
    check_syt_det_budget,
    check_uio_budget,
    cyclically_alternating_count,
    piecewise_alt_count,
    rho_shape,
    rp_histogram,
    syt_count_brute,
    syt_count_det,
    uio_sum,
)
from .partitions import Partition, enumerate_partitions, multinomial, z_of
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

SUITE_DEFAULTS = {
    "rp": 4,
    "m-expansion": 4,
    "schur-skew": 6,
    "uio": 3,
    "h-specials": 6,
    "omega": 6,
    "routes": 6,
    "kronecker": 4,
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def run_checks(pairs) -> list[Check]:
    return [Check(name, *thunk()) for name, thunk in pairs]


def _catalog(precision):
    return [seed_by_name(spec, precision) for spec in CATALOG_SPECS]


def _eq(got, want):
    if got == want:
        return True, ""
    return False, f"got {got!r}, expected {want!r}"


def suite_rp(nmax: int):
    """Record-partition histogram against the phi statistic."""
    check_alt_budget(2 * nmax)
    for n in range(1, nmax + 1):
        def check(n=n):
            hist = rp_histogram(n)
            expected = {lam: phi_abs(lam) for lam in enumerate_partitions(n)}
            ok, detail = _eq(hist, expected)
            if ok:
                total = sum(hist.values())
                ok, detail = _eq(total, euler_numbers(2 * n)[2 * n])
            return ok, detail

        yield f"rp-histogram n={n}", check


def suite_m_expansion(nmax: int):
    """Piecewise-alternating counts vs the multinomial formula vs the seed."""
    check_alt_budget(2 * nmax)
    for n in range(1, nmax + 1):
        seed = seed_by_name("secsqrt", n)
        euler = euler_numbers(2 * n)
        for lam in enumerate_partitions(n):
            def check(n=n, lam=lam, seed=seed, euler=euler):
                brute = piecewise_alt_count(lam)
                formula = multinomial(2 * n, [2 * p for p in lam])
                for p in lam:
                    formula *= euler[2 * p]
                from_seed = factorial(2 * n) * sprout_m(seed, n).coeff(lam)
                ok, detail = _eq(brute, formula)
                if ok:
                    ok, detail = _eq(Fraction(brute), from_seed)
                return ok, detail

            yield f"m-expansion n={n} lam={list(lam)}", check


def suite_schur_skew(nmax: int, brute_nmax: int = 4):
    """Schur coefficients of the sec(sqrt(t)) sequence vs skew tableau counts."""
    check_syt_det_budget(2 * nmax)  # rho_shape(lam) has 2n cells
    seed = seed_by_name("secsqrt", nmax)
    for n in range(1, nmax + 1):
        for lam in enumerate_partitions(n):
            def check(n=n, lam=lam):
                shape = rho_shape(lam)
                det_count = syt_count_det(shape)
                ok, detail = _eq(
                    Fraction(det_count), factorial(2 * n) * schur_coeff(seed, lam)
                )
                if ok and n <= brute_nmax:
                    ok, detail = _eq(syt_count_brute(shape), det_count)
                return ok, detail

            yield f"schur-skew n={n} lam={list(lam)}", check


def suite_uio(nmax: int):
    """Interval-order chromatic sums against the sec(sqrt(t)) sequence."""
    check_uio_budget(nmax)
    seed = seed_by_name("secsqrt", nmax)
    for n in range(1, nmax + 1):
        def check(n=n):
            return _eq(uio_sum(n), scale(sprout_m(seed, n), factorial(2 * n)))

        yield f"uio n={n}", check


def suite_h_specials(nmax: int, brute_nmax: int = 4):
    """The four h-expansion facts for the sec(sqrt(t)) sequence."""
    seed = seed_by_name("secsqrt", nmax)
    euler = euler_numbers(2 * nmax)
    e_prime = [0] + [k * euler[2 * k - 1] for k in range(1, nmax + 1)]
    ones_series = special_hk_series(seed, 1, nmax)
    sum_series = special_sn(seed, nmax)
    for n in range(1, nmax + 1):
        def check_ones(n=n):
            return _eq(factorial(2 * n) * ones_series.coeff(n), 1)

        yield f"h-specials [h_1^n] n={n}", check_ones

        def check_sum(n=n):
            return _eq(factorial(2 * n) * sum_series.coeff(n), euler[2 * n])

        yield f"h-specials coefficient-sum n={n}", check_sum

        def check_hn(n=n):
            got = factorial(2 * n) * special_hk_series(seed, n, 1).coeff(1)
            ok, detail = _eq(got, e_prime[n])
            if ok and n <= brute_nmax:
                ok, detail = _eq(cyclically_alternating_count(n), e_prime[n])
            return ok, detail

        yield f"h-specials [h_n] n={n}", check_hn

        for i in range(1, n // 2 + 1):
            j = n - i
            def check_pair(n=n, i=i, j=j):
                got = factorial(2 * n) * special_h_pair(seed, i, j)
                if i != j:
                    want = multinomial(2 * n, [2 * i, 2 * j]) * e_prime[i] * e_prime[j] - e_prime[n]
                else:
                    want = Fraction(
                        multinomial(2 * n, [2 * i, 2 * j]) * e_prime[i] ** 2 - e_prime[n], 2
                    )
                return _eq(got, Fraction(want))

            yield f"h-specials [h_{i}h_{j}] n={n}", check_pair


def suite_omega(nmax: int):
    """Behavior under the omega involution, seed by seed."""
    for seed in _catalog(nmax):
        twisted = omega_seed(seed)
        def check_involution(seed=seed, twisted=twisted):
            return _eq(omega_seed(twisted).a, seed.a)

        yield f"omega involution seed={seed.name}", check_involution

        for n in range(1, nmax + 1):
            def check_compat(seed=seed, twisted=twisted, n=n):
                lhs = convert(omega(sprout_m(seed, n)), Basis.M)
                return _eq(lhs, sprout_m(twisted, n))

            yield f"omega compatibility seed={seed.name} n={n}", check_compat

        def check_sign_series(seed=seed):
            flipped = inverse(negate_arg(seed.a))
            got = [schur_coeff(seed, Partition((1,) * n)) for n in range(nmax + 1)]
            want = [flipped.coeff(n) for n in range(nmax + 1)]
            return _eq(got, want)

        yield f"omega [s_1^n] series seed={seed.name}", check_sign_series


def suite_routes(nmax: int):
    """Agreement of the monomial, power-sum and hom construction routes."""
    for seed in _catalog(nmax):
        for n in range(1, nmax + 1):
            def check(seed=seed, n=n):
                via_m = sprout_m(seed, n)
                via_p = convert(sprout_p(seed, n), Basis.M)
                via_phi_h = convert(expansion_in(seed, n, Basis.H), Basis.M)
                via_phi_s = convert(expansion_in(seed, n, Basis.S), Basis.M)
                for route, label in (
                    (via_p, "power-sum"),
                    (via_phi_h, "hom/h"),
                    (via_phi_s, "hom/s"),
                ):
                    if route != via_m:
                        return False, f"{label} route disagrees with monomial route"
                if dim(sprout_p(seed, n)) != seed.a_coeff(1) ** n:
                    return False, "dimension is not a_1^n"
                return True, ""

            yield f"routes seed={seed.name} n={n}", check

        def check_pd(seed=seed):
            for d in range(1, nmax + 1):
                for m in range(1, nmax // d + 1):
                    got = scalar_product(
                        sprout_p(seed, d * m), basis_element(Basis.P, Partition((d,) * m))
                    )
                    if got != seed.b_coeff(d) ** m:
                        return False, f"<R_{d * m}, p_{d}^{m}> != b_{d}^{m}"
            return True, ""

        yield f"routes power-pairing seed={seed.name}", check_pd


def suite_kronecker(nmax: int):
    """Internal-product homomorphism property, degree by degree."""
    for seed in _catalog(nmax):
        for n in range(nmax + 1):
            def check(seed=seed, n=n):
                report = kronecker_hom_check(seed, n)
                if report.passed:
                    return True, ""
                return False, f"{len(report.violations)} violated pairs"

            yield f"kronecker seed={seed.name} n={n}", check


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
