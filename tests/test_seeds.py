from fractions import Fraction
from math import factorial

import pytest

from sproutsym.errors import PrecisionError
from sproutsym.oracles import alternating_count
from sproutsym.partitions import enumerate_partitions, partition
from sproutsym.seeds import (
    SeedSpec,
    bernoulli,
    euler_numbers,
    parse_seed_spec,
    phi_abs,
    seed_by_name,
)
from sproutsym.series import Series, dump_seed_series, inverse, mul
from sproutsym.sprout import sprout_p


class TestEulerNumbers:
    def test_small_values(self):
        assert euler_numbers(4) == [1, 1, 1, 2, 5]
        assert euler_numbers(8)[8] == 1385
        assert euler_numbers(0) == [1]

    def test_against_brute_enumeration(self):
        # boustrophedon vs direct backtracking, both directions of the check
        counts = euler_numbers(9)
        for k in range(10):
            assert alternating_count(k) == counts[k]

    def test_known_tail(self):
        assert euler_numbers(12)[10:] == [50521, 353792, 2702765]


class TestBernoulli:
    def test_small_values(self):
        values = bernoulli(12)
        assert values[0] == 1
        assert values[1] == Fraction(-1, 2)
        assert values[2] == Fraction(1, 6)
        assert values[4] == Fraction(-1, 30)
        assert values[12] == Fraction(-691, 2730)

    def test_odd_vanishing(self):
        values = bernoulli(11)
        assert all(values[k] == 0 for k in range(3, 12, 2))

    def test_odd_zigzag_identity(self):
        # E_{2k-1} = 4^k (4^k - 1) |B_{2k}| / (2k)
        euler = euler_numbers(12)
        bern = bernoulli(12)
        for k in range(1, 7):
            want = Fraction(4**k * (4**k - 1) * abs(bern[2 * k]), 2 * k)
            assert want == euler[2 * k - 1]


class TestPhiAbs:
    def test_small_partitions(self):
        assert phi_abs(partition((2,))) == 2
        assert phi_abs(partition((1, 1))) == 3
        assert phi_abs(partition(())) == 1

    def test_totals_are_zigzag_numbers(self):
        euler = euler_numbers(12)
        for n in range(1, 7):
            total = sum(phi_abs(lam) for lam in enumerate_partitions(n))
            assert total == euler[2 * n]

    def test_matches_power_sum_route(self):
        seed = seed_by_name("secsqrt", 6)
        for n in range(1, 7):
            r_n = sprout_p(seed, n)
            for lam in enumerate_partitions(n):
                assert phi_abs(lam) == factorial(2 * n) * r_n.coeff(lam)


class TestCatalog:
    def test_secsqrt_coefficients(self):
        seed = seed_by_name("secsqrt", 3)
        assert seed.a == Series([1, Fraction(1, 2), Fraction(5, 24), Fraction(61, 720)])

    def test_subset_exp(self):
        seed = seed_by_name("subset_exp(1,2)", 3)
        assert seed.a == Series([1, 1, Fraction(1, 2), 0])
        seed = seed_by_name(SeedSpec("subset_exp", (2, 3)), 4)
        assert seed.a == Series([1, 0, Fraction(1, 2), Fraction(1, 6), 0])

    def test_one_plus_t_geom_qfn_exp(self):
        assert seed_by_name("one_plus_t", 3).a == Series([1, 1, 0, 0])
        assert seed_by_name("geom", 3).a == Series([1, 1, 1, 1])
        assert seed_by_name("qfn", 3).a == Series([1, 2, 2, 2])
        assert seed_by_name("exp", 3).a == Series(
            [1, 1, Fraction(1, 2), Fraction(1, 6)]
        )

    def test_l_genus_series(self):
        seed = seed_by_name("l_genus", 4)
        assert seed.a.coeffs[:3] == (Fraction(1), Fraction(1, 3), Fraction(-1, 45))
        assert seed.a.coeff(3) == Fraction(2, 945)
        # division oracle: (x/tanh x) * (sinh x / x) = cosh x, read in t = x^2
        sinh_over_x = Series([Fraction(1, factorial(2 * n + 1)) for n in range(5)])
        cosh_even = Series([Fraction(1, factorial(2 * n)) for n in range(5)])
        assert mul(seed.a, sinh_over_x) == cosh_even

    def test_ahat_series(self):
        seed = seed_by_name("ahat", 3)
        # division oracle: inverse of sinh(x/2)/(x/2) in t = x^2
        sinh_half = Series(
            [Fraction(1, 4**n * factorial(2 * n + 1)) for n in range(4)]
        )
        assert seed.a == inverse(sinh_half)
        assert seed.a.coeff(1) == Fraction(-1, 24)

    def test_file_seed(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(dump_seed_series(seed_by_name("secsqrt", 5).a))
        seed = seed_by_name(f"file:{path}", 4)
        assert seed.a == seed_by_name("secsqrt", 4).a
        with pytest.raises(PrecisionError):
            seed_by_name(f"file:{path}", 9)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            seed_by_name("mystery", 3)

    def test_sec_log_ties_to_odd_zigzags(self):
        seed = seed_by_name("secsqrt", 10)
        euler = euler_numbers(20)
        for n in range(1, 11):
            assert factorial(2 * n) * seed.b_coeff(n) == n * euler[2 * n - 1]


class TestParseSpec:
    def test_bare_name(self):
        assert parse_seed_spec("geom") == SeedSpec("geom")

    def test_params(self):
        assert parse_seed_spec("subset_exp(1,2)") == SeedSpec("subset_exp", (1, 2))
        assert parse_seed_spec("subset_exp({2,4})") == SeedSpec("subset_exp", (2, 4))

    def test_file_forms(self):
        assert parse_seed_spec("file:/tmp/x.json") == SeedSpec("file", ("/tmp/x.json",))
        assert parse_seed_spec("file(/tmp/x.json)") == SeedSpec("file", ("/tmp/x.json",))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            parse_seed_spec("subset_exp(a,b)")
        with pytest.raises(ValueError):
            seed_by_name("subset_exp(0)", 3)
        for spec in ("geom(2)", "exp(1,2)", "secsqrt(3)", "one_plus_t(1)",
                     "geom()", "exp()"):
            with pytest.raises(ValueError, match="takes no parameters"):
                seed_by_name(spec, 3)
        with pytest.raises(ValueError, match="seed 'subset_exp' needs parameters"):
            parse_seed_spec("subset_exp()")
