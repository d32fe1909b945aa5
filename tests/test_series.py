import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sproutsym.errors import ConsistencyError, PrecisionError
from sproutsym.seeds import euler_numbers
from sproutsym.series import (
    Series,
    decimate,
    dump_seed_series,
    exp_series,
    inverse,
    load_seed_series,
    log_series,
    mul,
    negate_arg,
    poly_div_one_plus_u,
    power,
    rat_str,
)


def sec_sqrt(precision):
    euler = euler_numbers(2 * precision)
    return Series([Fraction(euler[2 * n], factorial(2 * n)) for n in range(precision + 1)])


def geometric(precision):
    return Series([1] * (precision + 1))


def random_series(rng, precision, constant):
    coeffs = [Fraction(constant)]
    coeffs += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(precision)]
    return Series(coeffs)


class TestSeriesBasics:
    def test_reading_beyond_precision_raises(self):
        f = Series([1, 2, 3])
        assert f.precision == 2
        assert f.coeff(2) == 3
        with pytest.raises(PrecisionError):
            f.coeff(3)

    def test_truncate(self):
        f = Series([1, 2, 3])
        assert f.truncate(1) == Series([1, 2])
        with pytest.raises(PrecisionError):
            f.truncate(5)

    def test_rat_str(self):
        assert rat_str(Fraction(5, 24)) == "5/24"
        assert rat_str(Fraction(7)) == "7"
        assert rat_str(Fraction(7), always_slash=True) == "7/1"
        assert rat_str(Fraction(-1, 3)) == "-1/3"


class TestMul:
    def test_times_inverse_is_one(self):
        f = Series([1, 1, 0, 0, 0, 0])
        assert mul(f, inverse(f)) == Series([1, 0, 0, 0, 0, 0])

    def test_square(self):
        assert mul(Series([1, 1]), Series([1, 1])) == Series([1, 2])
        assert power(Series([1, 1, 0]), 2) == Series([1, 2, 1])

    def test_sec_times_reciprocal(self):
        f = sec_sqrt(8)
        assert mul(f, inverse(f)) == Series([1] + [0] * 8)

    def test_min_precision(self):
        assert mul(Series([1, 1, 1]), Series([1, 1])).precision == 1

    def test_commutative_associative_on_random(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_series(rng, 6, rng.randint(-3, 3))
            g = random_series(rng, 6, rng.randint(-3, 3))
            h = random_series(rng, 6, rng.randint(-3, 3))
            assert mul(f, g) == mul(g, f)
            assert mul(mul(f, g), h) == mul(f, mul(g, h))


class TestInverse:
    def test_geometric(self):
        assert inverse(Series([1, 1, 0, 0, 0])) == Series([1, -1, 1, -1, 1])
        assert inverse(geometric(4)) == Series([1, -1, 0, 0, 0])

    def test_sec_reciprocal_after_sign_flip(self):
        # 1/F(-t) for F = sec(sqrt(t)) is sum t^n/(2n)!.
        f = sec_sqrt(6)
        got = inverse(negate_arg(f))
        assert got == Series([Fraction(1, factorial(2 * n)) for n in range(7)])
        assert inverse(f).coeffs[:3] == (Fraction(1), Fraction(-1, 2), Fraction(1, 24))

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            inverse(Series([2, 1]))


class TestLogExp:
    def test_log_geometric(self):
        assert log_series(geometric(5)) == Series(
            [0] + [Fraction(1, n) for n in range(1, 6)]
        )

    def test_log_sec_gives_odd_zigzags(self):
        # log sec(sqrt(t)) = sum E_{2n-1} t^n / (2n)!.
        euler = euler_numbers(13)
        got = log_series(sec_sqrt(6))
        want = Series(
            [0] + [Fraction(euler[2 * n - 1], factorial(2 * n)) for n in range(1, 7)]
        )
        assert got == want

    def test_log_of_one_is_zero(self):
        assert log_series(Series([1])) == Series([0])

    def test_exp_examples(self):
        assert exp_series(Series([0])) == Series([1])
        assert exp_series(Series([0, 1, 0, 0, 0])) == Series(
            [Fraction(1, factorial(n)) for n in range(5)]
        )

    def test_round_trips_random(self):
        rng = random.Random(11)
        for precision in range(1, 13):
            f = random_series(rng, precision, 1)
            assert exp_series(log_series(f)) == f
            g = random_series(rng, precision, 0)
            assert log_series(exp_series(g)) == g

    def test_exp_log_reject_bad_constants(self):
        with pytest.raises(ValueError):
            log_series(Series([0, 1]))
        with pytest.raises(ValueError):
            exp_series(Series([1, 1]))


class TestNegateDecimate:
    def test_negate(self):
        assert negate_arg(Series([1, 1])) == Series([1, -1])
        f = sec_sqrt(5)
        assert negate_arg(negate_arg(f)) == f

    def test_decimate(self):
        assert decimate(Series([1, 1, 1, 1, 1]), 2) == Series([1, 1, 1])
        f = sec_sqrt(5)
        assert decimate(f, 1) == f
        # every other sec(sqrt(t)) coefficient: E_0, E_4, E_8 over factorials
        assert decimate(f, 2) == Series(
            [1, Fraction(5, 24), Fraction(1385, factorial(8))]
        )
        with pytest.raises(ValueError):
            decimate(f, 0)


class TestPolyHelpers:
    def test_div_one_plus_u_exact(self):
        # (1+u)(3 - u + 2u^2) = 3 + 2u + u^2 + 2u^3, recovered exactly
        product = (Fraction(3), Fraction(2), Fraction(1), Fraction(2))
        assert poly_div_one_plus_u(product) == (Fraction(3), Fraction(-1), Fraction(2))

    def test_div_one_plus_u_rejects_nondivisible(self):
        with pytest.raises(ConsistencyError):
            poly_div_one_plus_u((Fraction(1), Fraction(0), Fraction(1)))


class TestSeedFiles:
    def test_round_trip(self, tmp_path):
        f = sec_sqrt(4)
        path = tmp_path / "seed.json"
        path.write_text(dump_seed_series(f))
        assert load_seed_series(path) == f

    # tmp_path is shared by the examples; each one overwrites the same file
    @settings(
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        tail=st.lists(
            st.one_of(
                st.integers(-10**6, 10**6),
                st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
            ),
            max_size=12,
        )
    )
    def test_round_trip_property(self, tmp_path, tail):
        f = Series([1, *tail])
        path = tmp_path / "seed.json"
        path.write_text(dump_seed_series(f))
        assert load_seed_series(path) == f

    def test_rejects_bad_constant(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(["2/1", "1/1"]))
        with pytest.raises(ValueError):
            load_seed_series(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text("not json")
        with pytest.raises(ValueError):
            load_seed_series(path)
        path.write_text(json.dumps({"a": 1}))
        with pytest.raises(ValueError):
            load_seed_series(path)
        path.write_text(json.dumps(["1", True, False, "1/2"]))
        with pytest.raises(ValueError, match="malformed seed file"):
            load_seed_series(path)
