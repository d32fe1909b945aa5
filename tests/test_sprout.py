from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sproutsym.series
import sproutsym.sprout as sprout
from sproutsym.errors import ConsistencyError, PrecisionError
from sproutsym.partitions import enumerate_partitions, partition
from sproutsym.seeds import euler_numbers, seed_by_name
from sproutsym.series import Series, exp_series, inverse, negate_arg
from sproutsym.sprout import (
    Seed,
    _hook_numerator,
    decimate_seed,
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
from sproutsym.symfunc import (
    Basis,
    SymFunc,
    add,
    basis_element,
    convert,
    dim,
    multiply,
    omega,
    scalar_product,
    scale,
)

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


# a_1..a_10 of a random seed, zeros included
SEED_TAILS = st.lists(
    st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-6, max_value=6, max_denominator=8),
    ),
    min_size=10,
    max_size=10,
)

# a_1..a_10 over ten distinct primes, so the common denominators of the
# conversions are products of primes rather than factorials
PRIME_TAILS = st.tuples(
    st.permutations((11, 13, 17, 19, 23, 29, 31, 37, 41, 43)),
    st.lists(st.integers(-9, 9).filter(bool), min_size=10, max_size=10),
).map(lambda pair: [Fraction(num, prime) for prime, num in zip(*pair)])


def catalog(precision):
    return [seed_by_name(spec, precision) for spec in CATALOG]


class TestSeedType:
    def test_log_coefficients(self):
        seed = seed_by_name("secsqrt", 4)
        assert seed.b[1:4] == (Fraction(1, 2), Fraction(1, 6), Fraction(1, 15))

    def test_b_reproduces_a(self):
        for seed in catalog(8):
            log = Series(
                [Fraction(0)]
                + [seed.b_coeff(n) / n for n in range(1, seed.precision + 1)]
            )
            assert exp_series(log) == seed.a

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            Seed(Series([2, 1]))

    def test_negative_index_is_zero(self):
        seed = seed_by_name("geom", 3)
        assert seed.a_coeff(-1) == 0
        with pytest.raises(PrecisionError):
            seed.a_coeff(4)


class TestSproutRoutes:
    def test_one_plus_t_gives_elementary(self):
        seed = seed_by_name("one_plus_t", 6)
        for n in range(1, 7):
            assert convert(sprout_m(seed, n), Basis.E) == basis_element(Basis.E, (n,))
        assert sprout_m(seed, 2) == convert(basis_element(Basis.E, (2,)), Basis.M)

    def test_sec_monomial_coefficients(self):
        seed = seed_by_name("secsqrt", 4)
        got = sprout_m(seed, 2)
        assert got.terms == {
            partition((2,)): Fraction(5, 24),
            partition((1, 1)): Fraction(1, 4),
        }

    def test_degree_zero_is_one(self):
        for seed in catalog(2):
            assert sprout_m(seed, 0) == SymFunc(Basis.M, 0, {(): 1})

    def test_exp_gives_normalized_power(self):
        seed = seed_by_name("exp", 5)
        for n in range(1, 6):
            want = {partition((1,) * n): Fraction(1, factorial(n))}
            assert sprout_p(seed, n).terms == want

    def test_sec_power_sum_degree_one(self):
        seed = seed_by_name("secsqrt", 2)
        assert sprout_p(seed, 1).terms == {partition((1,)): Fraction(1, 2)}

    def test_three_route_agreement(self):
        for seed in catalog(8):
            for n in range(9):
                via_m = sprout_m(seed, n)
                assert convert(sprout_p(seed, n), Basis.M) == via_m
                assert convert(expansion_in(seed, n, Basis.H), Basis.M) == via_m
                assert convert(expansion_in(seed, n, Basis.S), Basis.M) == via_m
                assert convert(expansion_in(seed, n, Basis.E), Basis.M) == via_m
                assert expansion_in(seed, n, Basis.P) == sprout_p(seed, n)

    def test_precision_guard(self):
        seed = seed_by_name("geom", 3)
        with pytest.raises(PrecisionError):
            sprout_m(seed, 4)


class TestExpansionIn:
    """The hom route's recurrences against conversion of the monomial route."""

    @settings(deadline=None, max_examples=40)
    @given(
        tail=SEED_TAILS,
        n=st.integers(0, 10),
        pick=st.integers(0, 200),
    )
    def test_matches_convert_for_random_seeds(self, tail, n, pick):
        seed = Seed(Series([1, *tail]))
        # one schur_coeff read first leaves a partly filled memo, which must
        # not change what expansion_in reads off it
        shapes = enumerate_partitions(n)
        schur_coeff(seed, shapes[pick % len(shapes)])
        assert expansion_in(seed, n, Basis.S) == expansion_in(Seed(seed.a), n, Basis.S)
        # degree n first, so the lower degrees are read from the memo it filled
        for k in range(n, -1, -1):
            r_k = sprout_m(seed, k)
            for basis in (Basis.H, Basis.E, Basis.S):
                assert expansion_in(seed, k, basis) == convert(r_k, basis)

    @settings(deadline=None, max_examples=25)
    @given(tail=PRIME_TAILS, n=st.integers(0, 10))
    def test_prime_denominators_round_trip_every_basis(self, tail, n):
        seed = Seed(Series([1, *tail]))
        r_n = sprout_m(seed, n)
        images = {basis: convert(r_n, basis) for basis in Basis}
        for basis in (Basis.H, Basis.E, Basis.S):
            assert expansion_in(seed, n, basis) == images[basis]
        assert images[Basis.P] == sprout_p(seed, n)
        for image in images.values():
            for basis in Basis:
                assert convert(image, basis) == images[basis]

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["secsqrt", "l_genus"])
    @pytest.mark.parametrize("n", [16, 18])
    def test_matches_convert_at_high_degree(self, name, n):
        seed = seed_by_name(name, n)
        r_n = sprout_m(seed, n)
        for basis in (Basis.H, Basis.E, Basis.S):
            assert expansion_in(seed, n, basis) == convert(r_n, basis)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_degree_zero_is_one(self, basis):
        for seed in catalog(3):
            assert expansion_in(seed, 0, basis) == SymFunc(basis, 0, {(): 1})

    @pytest.mark.parametrize("basis", list(Basis))
    def test_degree_one_is_a1(self, basis):
        # m_1 = p_1 = e_1 = h_1 = s_1
        for a1 in (Fraction(1, 2), Fraction(-3), Fraction(0)):
            seed = Seed(Series([1, a1, 1]))
            assert expansion_in(seed, 1, basis) == SymFunc(basis, 1, {(1,): a1})

    def test_precision_guard(self):
        seed = seed_by_name("geom", 3)
        for basis in Basis:
            with pytest.raises(PrecisionError):
                expansion_in(seed, 4, basis)


class TestSchurCoeff:
    def test_geom_column_vanishes(self):
        seed = seed_by_name("geom", 4)
        assert schur_coeff(seed, partition((1, 1))) == 0

    def test_sec_degree_two(self):
        seed = seed_by_name("secsqrt", 4)
        assert schur_coeff(seed, partition((2,))) == Fraction(5, 24)
        assert schur_coeff(seed, partition((1, 1))) == Fraction(1, 24)

    def test_recursion_is_as_deep_as_the_shape_is_long(self):
        # (1^400) recurses through (1^399), ..., (1): 400 calls deep
        column = partition((1,) * 400)
        assert schur_coeff(seed_by_name("one_plus_t", 400), column) == 1
        assert schur_coeff(seed_by_name("geom", 400), column) == 0

    def test_matches_scalar_product(self):
        for seed in catalog(6):
            for n in range(7):
                r_n = sprout_m(seed, n)
                for lam in enumerate_partitions(n):
                    got = schur_coeff(seed, lam)
                    assert got == scalar_product(r_n, basis_element(Basis.S, lam))


class TestPhiHom:
    def test_on_h_basis(self):
        seed = seed_by_name("secsqrt", 5)
        for n in range(1, 6):
            assert phi_hom(seed, basis_element(Basis.H, (n,))) == seed.a_coeff(n)

    def test_on_schur(self):
        seed = seed_by_name("secsqrt", 5)
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                assert phi_hom(seed, basis_element(Basis.S, lam)) == schur_coeff(
                    seed, lam
                )

    def test_e2(self):
        seed = seed_by_name("secsqrt", 4)
        assert phi_hom(seed, basis_element(Basis.E, (2,))) == Fraction(1, 24)


class TestHTable:
    def test_degree_three_scaled(self):
        seed = seed_by_name("secsqrt", 3)
        got = scale(convert(sprout_m(seed, 3), Basis.H), factorial(6))
        assert got.terms == {
            partition((1, 1, 1)): 1,
            partition((2, 1)): 12,
            partition((3,)): 48,
        }

    def test_qfn_is_e_h_convolution(self):
        seed = seed_by_name("qfn", 5)
        for n in range(1, 6):
            want = SymFunc(Basis.P, n, {})
            for k in range(n + 1):
                term = multiply(
                    basis_element(Basis.E, (k,) if k else ()),
                    basis_element(Basis.H, (n - k,) if n - k else ()),
                )
                want = add(want, convert(term, Basis.P))
            assert sprout_p(seed, n) == want

    def test_geom_schur_row(self):
        seed = seed_by_name("geom", 4)
        assert expansion_in(seed, 4, Basis.S) == basis_element(Basis.S, (4,))


class TestOmegaSeed:
    def test_one_plus_t_pairs_with_geom(self):
        seed = omega_seed(seed_by_name("one_plus_t", 5))
        assert seed.a == seed_by_name("geom", 5).a

    def test_involution(self):
        for seed in catalog(6):
            assert omega_seed(omega_seed(seed)).a == seed.a

    def test_sec_reciprocal_factorials(self):
        seed = omega_seed(seed_by_name("secsqrt", 6))
        assert seed.a == Series([Fraction(1, factorial(2 * n)) for n in range(7)])

    def test_compatible_with_omega_involution(self):
        for seed in catalog(8):
            twisted = omega_seed(seed)
            for n in range(9):
                assert convert(omega(sprout_m(seed, n)), Basis.M) == sprout_m(
                    twisted, n
                )

    def test_sign_column_series(self):
        # [s_{1^n}] R_n traces out 1/F(-t).
        for seed in catalog(8):
            flipped = inverse(negate_arg(seed.a))
            for n in range(9):
                assert schur_coeff(seed, partition((1,) * n)) == flipped.coeff(n)

    def test_special_sn_of_omega_seed(self):
        for seed in catalog(6):
            assert special_sn(omega_seed(seed), 6) == inverse(negate_arg(seed.a))


class TestSpecials:
    def test_sn_returns_seed(self):
        for seed in catalog(6):
            assert special_sn(seed, 6) == seed.a

    def test_sec_sum_is_zigzag(self):
        seed = seed_by_name("secsqrt", 4)
        euler = euler_numbers(8)
        series = special_sn(seed, 4)
        for n in range(5):
            assert factorial(2 * n) * series.coeff(n) == euler[2 * n]

    def test_hk_series_power_reading(self):
        # k = 1 for the geometric seed: [h_1^n] h_n vanishes past n = 1.
        seed = seed_by_name("geom", 6)
        assert special_hk_series(seed, 1, 6) == Series([1, 1, 0, 0, 0, 0, 0])
        # k = 2 for 1 + t: [h_2^n] e_2n alternates in sign.
        seed = seed_by_name("one_plus_t", 8)
        assert special_hk_series(seed, 2, 4) == Series([1, -1, 1, -1, 1])

    def test_hk_series_sec(self):
        seed = seed_by_name("secsqrt", 6)
        got = special_hk_series(seed, 1, 6)
        assert got == Series([Fraction(1, factorial(2 * n)) for n in range(7)])
        assert special_hk_series(seed, 2, 2).coeff(1) == Fraction(1, 6)

    def test_hn_diagonal_is_b(self):
        for seed in catalog(6):
            for n in range(1, 7):
                assert special_hk_series(seed, n, 1).coeff(1) == seed.b_coeff(n)

    def test_h_pair(self):
        sec = seed_by_name("secsqrt", 4)
        assert factorial(6) * special_h_pair(sec, 2, 1) == 12
        assert factorial(4) * special_h_pair(sec, 1, 1) == 1
        geom = seed_by_name("geom", 5)
        assert special_h_pair(geom, 3, 2) == 0

    def test_ones(self):
        geom = seed_by_name("geom", 4)
        assert special_ones(geom, 4, 0) == Series([1, 0, 0, 0, 0])
        for seed in catalog(5):
            assert special_ones(seed, 5, 1) == seed.a.truncate(5)
        assert special_ones(geom, 4, 3).coeff(2) == 6

    def test_ones_cost_does_not_grow_with_k(self, monkeypatch):
        # F(t)^k by k products would call series.mul a million times
        calls = []
        real_mul = sproutsym.series.mul

        def counted_mul(f, g):
            calls.append(1)
            if len(calls) > 10:
                raise AssertionError("special_ones multiplies series once per k")
            return real_mul(f, g)

        monkeypatch.setattr(sproutsym.series, "mul", counted_mul)
        k = 10**6
        for seed in catalog(8):
            got = special_ones(seed, 8, k)
            a1, a2 = seed.a_coeff(1), seed.a_coeff(2)
            assert got.coeff(0) == 1
            assert got.coeff(1) == k * a1
            assert got.coeff(2) == k * a2 + k * (k - 1) // 2 * a1**2

    def test_hooks(self):
        sec = seed_by_name("secsqrt", 4)
        assert special_hooks(sec, 1) == (Fraction(1, 2),)
        one_plus_t = seed_by_name("one_plus_t", 4)
        assert special_hooks(one_plus_t, 2) == (Fraction(0), Fraction(1))

    def test_hook_numerator_one_plus_t(self):
        seed = seed_by_name("one_plus_t", 3)
        assert _hook_numerator(seed, 0) == (Fraction(1),)
        assert _hook_numerator(seed, 1) == (Fraction(1), Fraction(1))  # 1 + u

    def test_hook_numerator_secsqrt(self):
        seed = seed_by_name("secsqrt", 3)
        assert _hook_numerator(seed, 1) == (Fraction(1, 2), Fraction(1, 2))  # (1+u)/2

    def test_hooks_constant_term_guard(self):
        with pytest.raises(ValueError):
            special_hooks(Seed(Series([0, 1])), 1)

    def test_hooks_precision_guard(self):
        with pytest.raises(PrecisionError):
            special_hooks(Seed(Series([1, 1])), 2)

    def test_hooks_raise_when_either_side_is_tampered(self, monkeypatch):
        seed = seed_by_name("secsqrt", 4)
        real_schur, real_numerator = sprout.schur_coeff, sprout._hook_numerator
        with monkeypatch.context() as m:
            m.setattr(
                sprout, "schur_coeff",
                lambda s, lam: real_schur(s, lam) + (lam == partition((2, 1, 1))),
            )
            with pytest.raises(ConsistencyError):
                special_hooks(seed, 4)
        with monkeypatch.context() as m:
            # still divisible by 1 + u, so only the cross-check can catch it
            m.setattr(
                sprout, "_hook_numerator",
                lambda s, n: tuple(2 * c for c in real_numerator(s, n)),
            )
            with pytest.raises(ConsistencyError):
                special_hooks(seed, 4)
        special_hooks(seed, 4)  # both sides restored: no error

    @settings(deadline=None, max_examples=60)
    @given(
        tail=st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=8,
            max_size=8,
        ),
        n=st.integers(1, 8),
    )
    def test_hooks_divide_for_random_seeds(self, tail, n):
        seed = Seed(Series([1, *tail]))
        special_hooks(seed, n)  # raises ConsistencyError on any disagreement
        numerator = _hook_numerator(seed, n)
        assert len(numerator) <= n + 1
        # F(t)/F(t) = 1, so P_n(-1) = 0
        assert sum(c * (-1) ** j for j, c in enumerate(numerator)) == 0

    def test_hooks_match_schur_for_catalog(self):
        for seed in catalog(10):
            for n in range(1, 11):
                poly = special_hooks(seed, n)
                for k in range(n):
                    want = schur_coeff(seed, partition((n - k,) + (1,) * k))
                    got = poly[k] if k < len(poly) else Fraction(0)
                    assert got == want


class TestKroneckerHom:
    def test_passes_for_catalog(self):
        for seed in catalog(5):
            for n in range(6):
                assert kronecker_hom_check(seed, n) == (), (seed.name, n)

    @settings(deadline=None, max_examples=40)
    @given(tail=SEED_TAILS, n=st.integers(0, 8))
    def test_passes_for_random_seeds(self, tail, n):
        assert kronecker_hom_check(Seed(Series([1, *tail])), n) == ()

    def test_degree_zero_checks_the_empty_power_sum(self, monkeypatch):
        real = sprout.sprout_m
        monkeypatch.setattr(
            sprout, "sprout_m", lambda seed, n: scale(real(seed, n), 2 if n == 0 else 1)
        )
        assert kronecker_hom_check(seed_by_name("secsqrt", 1), 0) == ((),)

    def test_catches_a_wrong_log_coefficient(self):
        # geom has every b_k = 1, so exactly the rho with a part 2 see b_2 = 8/7
        for n in range(6):
            seed = seed_by_name("geom", 5)
            seed.b = seed.b[:2] + (seed.b[2] + Fraction(1, 7),) + seed.b[3:]
            want = tuple(rho for rho in enumerate_partitions(n) if 2 in rho)
            assert kronecker_hom_check(seed, n) == want, n

    def test_catches_a_wrong_monomial_route(self, monkeypatch):
        real = sprout.sprout_m

        def planted(seed, n):
            r_n = real(seed, n)
            return add(r_n, basis_element(Basis.M, (2, 1))) if n == 3 else r_n

        monkeypatch.setattr(sprout, "sprout_m", planted)
        # m_(2,1) = p_(2,1) - p_(3)
        assert kronecker_hom_check(seed_by_name("geom", 3), 3) == ((3,), (2, 1))


class TestInvariants:
    def test_dimension_is_power_of_a1(self):
        for seed in catalog(8):
            for n in range(9):
                assert dim(sprout_p(seed, n)) == seed.a_coeff(1) ** n

    def test_power_block_pairing(self):
        for seed in catalog(8):
            for d in range(1, 9):
                for m in range(1, 8 // d + 1):
                    got = scalar_product(
                        sprout_p(seed, d * m),
                        basis_element(Basis.P, partition((d,) * m)),
                    )
                    assert got == seed.b_coeff(d) ** m

    def test_decimated_seed_consistency(self):
        sec = seed_by_name("secsqrt", 8)
        halved = decimate_seed(sec, 2)
        assert halved.a == Series(
            [Fraction(euler_numbers(4 * n)[4 * n], factorial(4 * n)) for n in range(5)]
        )
        # fresh log coefficients, and the seed still behaves like a seed
        assert convert(sprout_p(halved, 3), Basis.M) == sprout_m(halved, 3)
