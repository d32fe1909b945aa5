"""Acceptance criteria, one test per criterion at its stated budget.

Every assertion is an exact equality (all arithmetic is rational), and
each criterion prints a single pass/fail line; run with ``pytest -s``
to see them.  The deliberately heavy enumeration (945 matchings) is
behind the ``slow`` marker; the n = 5 record partitions are counted by
state and run by default.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial
from time import perf_counter

import pytest

from sproutsym.cli import run
from sproutsym.oracles import (
    chromatic_sym,
    claw_graph,
    piecewise_alt_count,
    rho_shape,
    rp_histogram,
    syt_count_brute,
    syt_count_det,
    uio_sum,
)
from sproutsym.partitions import enumerate_partitions, multinomial, partition
from sproutsym.positivity import expansion_positivity, toeplitz_minors
from sproutsym.seeds import bernoulli, euler_numbers, phi_abs, seed_by_name
from sproutsym.series import Series, inverse, negate_arg, power
from sproutsym.sprout import (
    Seed,
    expansion_in,
    kronecker_hom_check,
    omega_seed,
    schur_coeff,
    special_h_pair,
    special_hk_series,
    special_hooks,
    special_ones,
    special_sn,
    sprout_m,
    sprout_p,
)
from sproutsym.symfunc import Basis, basis_element, convert, multiply, omega, scale

CATALOG = [
    "one_plus_t",
    "geom",
    "qfn",
    "exp",
    "subset_exp(1,2)",
    "secsqrt",
    "l_genus",
    "ahat",
]

H_TABLE = {
    1: {(1,): 1},
    2: {(1, 1): 1, (2,): 4},
    3: {(1, 1, 1): 1, (2, 1): 12, (3,): 48},
    4: {(1, 1, 1, 1): 1, (2, 1, 1): 24, (3, 1): 256, (2, 2): 16, (4,): 1088},
    5: {
        (1, 1, 1, 1, 1): 1,
        (2, 1, 1, 1): 40,
        (3, 1, 1): 800,
        (2, 2, 1): 80,
        (4, 1): 9280,
        (3, 2): 640,
        (5,): 39680,
    },
}


def criterion(number: int, label: str, budget: float, body) -> None:
    start = perf_counter()
    try:
        body()
    except Exception:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    elapsed = perf_counter() - start
    print(f"criterion {number:2d} [{label}]: PASS ({elapsed:.2f}s / budget {budget}s)")
    assert elapsed < budget, f"criterion {number} overran its {budget}s budget"


def test_criterion_01_h_table(capsys):
    def body():
        for n, table in H_TABLE.items():
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = run(
                    [
                        "expand", "--seed", "secsqrt", "--n", str(n), "--basis", "h",
                        "--scale", "fact2n", "--format", "json",
                    ]
                )
            assert code == 0
            obj = json.loads(buffer.getvalue().strip())
            got = {
                tuple(term["partition"]): Fraction(term["coeff"])
                for term in obj["terms"]
            }
            assert got == {lam: Fraction(c) for lam, c in table.items()}

    with capsys.disabled():
        criterion(1, "h-expansion table n=1..5", 1.0, body)


def test_criterion_02_m_coefficient(capsys):
    def body():
        lam = partition((3, 1, 1))
        euler = euler_numbers(10)
        formula = multinomial(10, [6, 2, 2]) * euler[6] * euler[2] * euler[2]
        seed = seed_by_name("secsqrt", 5)
        assert factorial(10) * sprout_m(seed, 5).coeff(lam) == 76860
        assert formula == 76860
        assert piecewise_alt_count(lam) == 76860

    with capsys.disabled():
        criterion(2, "10!*[m_311]A_5 = 76860, brute and formula", 60.0, body)


def test_criterion_03_record_partitions(capsys):
    def body():
        for n in range(1, 5):
            hist = rp_histogram(n)
            for lam in enumerate_partitions(n):
                assert hist.get(lam, 0) == phi_abs(lam)
            assert sum(hist.values()) == euler_numbers(2 * n)[2 * n]

    with capsys.disabled():
        criterion(3, "record partitions vs phi, n<=4", 10.0, body)


def test_criterion_03_record_partitions_slow():
    hist = rp_histogram(5)
    assert sum(hist.values()) == 50521
    for lam in enumerate_partitions(5):
        assert hist.get(lam, 0) == phi_abs(lam)


def test_criterion_04_h_specials(capsys):
    def body():
        seed = seed_by_name("secsqrt", 6)
        euler = euler_numbers(12)
        e_prime = [0] + [k * euler[2 * k - 1] for k in range(1, 7)]
        ones = special_hk_series(seed, 1, 6)  # closed vs generic inside
        for n in range(1, 7):
            assert factorial(2 * n) * ones.coeff(n) == 1
            h_row = convert(sprout_m(seed, n), Basis.H)
            assert factorial(2 * n) * sum(h_row.terms.values()) == euler[2 * n]
            assert factorial(2 * n) * special_sn(seed, 6).coeff(n) == euler[2 * n]
            diag = special_hk_series(seed, n, 1).coeff(1)
            assert factorial(2 * n) * diag == e_prime[n]
            for i in range(1, n // 2 + 1):
                j = n - i
                got = factorial(2 * n) * special_h_pair(seed, i, j)
                want = multinomial(2 * n, [2 * i, 2 * j]) * e_prime[i] * e_prime[j]
                if i != j:
                    want -= e_prime[n]
                else:
                    want = Fraction(want - e_prime[n], 2)
                assert got == want

    with capsys.disabled():
        criterion(4, "h-expansion facts, closed and generic, n<=6", 5.0, body)


def test_criterion_05_schur_skew(capsys):
    def body():
        seed = seed_by_name("secsqrt", 8)
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                shape = rho_shape(lam)
                count = syt_count_det(shape)
                assert Fraction(count) == factorial(2 * n) * schur_coeff(seed, lam)
                if n <= 4:
                    assert syt_count_brute(shape) == count

    with capsys.disabled():
        criterion(5, "Schur coefficients count skew tableaux, n<=8", 30.0, body)


def test_criterion_06_interval_orders(capsys):
    def body():
        seed = seed_by_name("secsqrt", 4)
        for n in range(1, 5):
            assert uio_sum(n) == scale(sprout_m(seed, n), factorial(2 * n))

    with capsys.disabled():
        criterion(6, "chromatic interval-order sums, n<=4", 30.0, body)


@pytest.mark.slow
def test_criterion_06_interval_orders_slow():
    seed = seed_by_name("secsqrt", 5)
    assert uio_sum(5) == scale(sprout_m(seed, 5), factorial(10))


def test_criterion_07_route_agreement(capsys):
    def body():
        for spec in CATALOG:
            seed = seed_by_name(spec, 8)
            for n in range(9):
                via_m = sprout_m(seed, n)
                assert convert(sprout_p(seed, n), Basis.M) == via_m
                assert convert(expansion_in(seed, n, Basis.H), Basis.M) == via_m
                assert convert(expansion_in(seed, n, Basis.S), Basis.M) == via_m
            for n in range(7):
                assert not kronecker_hom_check(seed, n)

    with capsys.disabled():
        criterion(7, "three routes n<=8 and kronecker hom n<=6", 30.0, body)


def test_criterion_08_omega_and_specials(capsys):
    def body():
        for spec in CATALOG:
            seed = seed_by_name(spec, 8)
            twisted = omega_seed(seed)
            flipped = inverse(negate_arg(seed.a))
            assert special_sn(seed, 8) == seed.a  # [s_n]R_n = a_n
            for n in range(9):
                assert convert(omega(sprout_m(seed, n)), Basis.M) == sprout_m(
                    twisted, n
                )
                assert schur_coeff(seed, partition((1,) * n)) == flipped.coeff(n)
            for k in range(5):
                assert special_ones(seed, 8, k) == power(seed.a, k)
            for n in range(1, 9):
                poly = special_hooks(seed, n)
                for k in range(n):
                    want = schur_coeff(seed, partition((n - k,) + (1,) * k))
                    got = poly[k] if k < len(poly) else Fraction(0)
                    assert got == want

    with capsys.disabled():
        criterion(8, "omega transform and specializations, all seeds", 30.0, body)


def test_criterion_09_closed_forms(capsys):
    from sproutsym.symfunc import add

    def body():
        one_plus_t = seed_by_name("one_plus_t", 8)
        geom = seed_by_name("geom", 8)
        qfn = seed_by_name("qfn", 8)
        exp_seed = seed_by_name("exp", 8)
        for n in range(1, 9):
            assert convert(sprout_m(one_plus_t, n), Basis.E) == basis_element(
                Basis.E, (n,)
            )
            assert convert(sprout_m(geom, n), Basis.H) == basis_element(Basis.H, (n,))
            assert sprout_p(exp_seed, n).terms == {
                partition((1,) * n): Fraction(1, factorial(n))
            }
            total = None
            for k in range(n + 1):
                term = multiply(
                    basis_element(Basis.E, (k,) if k else ()),
                    basis_element(Basis.H, (n - k,) if n - k else ()),
                )
                term_p = convert(term, Basis.P)
                total = term_p if total is None else add(total, term_p)
            assert sprout_p(qfn, n) == total

    with capsys.disabled():
        criterion(9, "closed forms for the four classical seeds, n<=8", 5.0, body)


def test_criterion_10_positivity(capsys):
    def body():
        sec = seed_by_name("secsqrt", 10)
        report = toeplitz_minors(sec, 4, 10)
        assert report.passed and report.violations == ()
        for basis in (Basis.H, Basis.S):
            sweep = expansion_positivity(seed_by_name("secsqrt", 6), 6, basis)
            assert sweep.passed
        claw = convert(chromatic_sym(claw_graph(), 4), Basis.S)
        assert any(c < 0 for c in claw.terms.values())
        witness = Seed(Series([1, 0, 1, 0, 1]), name="witness")
        failing = toeplitz_minors(witness, 2, 4)
        assert not failing.passed
        assert any(len(rows) == 2 for rows, _, _ in failing.violations)

    with capsys.disabled():
        criterion(10, "minor sweeps, expansion signs, claw witness", 30.0, body)


def test_criterion_11_number_identities(capsys):
    def body():
        euler = euler_numbers(12)
        bern = bernoulli(12)
        for k in range(1, 7):
            assert euler[2 * k - 1] == Fraction(
                4**k * (4**k - 1) * abs(bern[2 * k]), 2 * k
            )
        for n in range(1, 7):
            total = sum(phi_abs(lam) for lam in enumerate_partitions(n))
            assert total == euler[2 * n]

    with capsys.disabled():
        criterion(11, "zigzag/Bernoulli identity and phi totals", 1.0, body)
