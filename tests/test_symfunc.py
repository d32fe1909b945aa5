import json
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sproutsym import symfunc
from sproutsym.oracles import SkewShape, syt_count_det
from sproutsym.partitions import (
    conjugate,
    enumerate_partitions,
    multinomial,
    multiplicities,
    partition,
    z_of,
)
from sproutsym.seeds import seed_by_name
from sproutsym.sprout import sprout_m
from sproutsym.suites import CATALOG_SPECS
from sproutsym.symfunc import (
    Basis,
    SymFunc,
    add,
    basis_element,
    convert,
    dim,
    kronecker,
    multiply,
    omega,
    principal_specialize,
    scalar_product,
    scale,
)

ALL_BASES = (Basis.M, Basis.P, Basis.E, Basis.H, Basis.S)


def random_symfunc(rng, degree, basis):
    terms = {
        lam: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for lam in enumerate_partitions(degree)
        if rng.random() < 0.7
    }
    return SymFunc(basis, degree, terms)


COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def symfuncs(basis, degree):
    """Strategy: a symmetric function of the given basis and degree, any support."""
    keys = st.sampled_from(enumerate_partitions(degree))
    return st.dictionaries(keys, COEFF).map(lambda terms: SymFunc(basis, degree, terms))


class TestSymFuncType:
    def test_prunes_zeros(self):
        f = SymFunc(Basis.M, 2, {partition((2,)): 0, partition((1, 1)): 3})
        assert partition((2,)) not in f.terms
        assert f.coeff((1, 1)) == 3

    def test_rejects_mixed_degree(self):
        with pytest.raises(ValueError):
            SymFunc(Basis.M, 2, {partition((3,)): 1})

    def test_structural_equality(self):
        f = SymFunc(Basis.P, 2, {partition((2,)): Fraction(1, 2)})
        g = SymFunc(Basis.P, 2, {partition((2,)): Fraction(2, 4)})
        assert f == g
        assert f != SymFunc(Basis.M, 2, {partition((2,)): Fraction(1, 2)})

    def test_json_round_trip(self):
        f = SymFunc(
            Basis.S, 3, {partition((2, 1)): Fraction(-5, 3), partition((3,)): 2}
        )
        obj = f.to_json_obj()
        assert obj["terms"][0]["partition"] == [3]  # canonical order
        assert SymFunc.from_json_obj(json.loads(json.dumps(obj))) == f


class TestConvertClassics:
    def test_m11_to_powersum(self):
        got = convert(basis_element(Basis.M, (1, 1)), Basis.P)
        assert got.terms == {
            partition((1, 1)): Fraction(1, 2),
            partition((2,)): Fraction(-1, 2),
        }

    def test_h2_to_monomial(self):
        got = convert(basis_element(Basis.H, (2,)), Basis.M)
        assert got.terms == {partition((2,)): 1, partition((1, 1)): 1}

    def test_m3_to_elementary(self):
        got = convert(basis_element(Basis.M, (3,)), Basis.E)
        assert got.coeff((1, 1, 1)) == 1
        assert got.coeff((2, 1)) == -3

    def test_h_to_p_via_z(self):
        for n in range(1, 7):
            got = convert(basis_element(Basis.H, (n,)), Basis.P)
            want = {lam: Fraction(1, z_of(lam)) for lam in enumerate_partitions(n)}
            assert got.terms == want

    def test_schur_to_h_jacobi_trudi(self):
        got = convert(basis_element(Basis.S, (2, 1)), Basis.H)
        assert got.terms == {partition((2, 1)): 1, partition((3,)): -1}

    def test_degree_zero(self):
        one = SymFunc(Basis.M, 0, {(): 1})
        for basis in ALL_BASES:
            assert convert(one, basis).terms == {(): 1}


class TestConvertBijection:
    def test_round_trips_all_basis_pairs(self):
        for n in range(9):
            for lam in enumerate_partitions(n):
                for src in ALL_BASES:
                    element = basis_element(src, lam)
                    for dst in ALL_BASES:
                        there = convert(element, dst)
                        assert convert(there, src) == element

    @pytest.mark.parametrize(
        "src,dst", [(a, b) for a in ALL_BASES for b in ALL_BASES if a is not b]
    )
    @settings(deadline=None, max_examples=15)
    @given(data=st.data(), degree=st.integers(0, 10))
    def test_round_trip_at_random_degree(self, src, dst, data, degree):
        f = data.draw(symfuncs(src, degree))
        assert convert(convert(f, dst), src) == f


class TestPartitionKeys:
    """Partitions are plain tuples: every SymFunc key is exactly a tuple."""

    @pytest.mark.parametrize(
        "src,dst",
        [(a, b) for a in ALL_BASES for b in ALL_BASES if a is not b],
        ids=lambda b: b.value,
    )
    @settings(deadline=None, max_examples=10)
    @given(data=st.data(), degree=st.integers(0, 7))
    def test_convert_keys_are_partitions(self, src, dst, data, degree):
        f = data.draw(symfuncs(src, degree))
        assert all(type(lam) is tuple for lam in convert(f, dst).terms)

    def test_product_keys_are_partitions(self):
        rng = random.Random(7)
        for basis in ALL_BASES:
            f, g = random_symfunc(rng, 3, basis), random_symfunc(rng, 4, basis)
            for h in (multiply(f, g), omega(f)):
                assert h.terms and all(type(lam) is tuple for lam in h.terms)


class TestTransitionTables:
    def test_m_to_p_inverts_p_in_m(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                pvec = symfunc._to_p_terms(basis_element(Basis.M, lam))
                assert symfunc._from_p_terms(pvec, n, Basis.M) == {lam: 1}

    def test_schur_extraction_matches_scalar_product(self):
        for n in range(10):
            for spec in CATALOG_SPECS:
                f = sprout_m(seed_by_name(spec, n), n)
                schur = convert(f, Basis.S)
                for mu in enumerate_partitions(n):
                    want = scalar_product(f, basis_element(Basis.S, mu))
                    assert schur.coeff(mu) == want

    def test_newton_identities_in_low_degree(self):
        p2 = {partition((2,)): 2, partition((1, 1)): -1}
        p3 = {partition((3,)): 3, partition((2, 1)): -3, partition((1, 1, 1)): 1}
        assert symfunc._p_in_h(partition((2,))) == p2
        assert symfunc._p_in_h(partition((3,))) == p3
        assert convert(basis_element(Basis.P, (3,)), Basis.H).terms == p3

    def test_h_to_p_inverts_p_in_h(self):
        # h -> p pairs with the rows of _p_in_m, so this ties the two tables
        for n in range(11):
            for rho in enumerate_partitions(n):
                hvec = SymFunc(Basis.H, n, symfunc._p_in_h(rho))
                assert symfunc._to_p_terms(hvec) == {rho: 1}

    def test_tables_hold_only_ints(self):
        for n in range(11):
            for lam in enumerate_partitions(n):
                for table in (symfunc._p_in_m, symfunc._p_in_h, symfunc._h_in_s):
                    assert all(type(c) is int for c in table(lam).values())

    def test_kostka_unitriangular_under_dominance(self):
        # the m -> s solve relies on K_mu,mu = 1 and K_lam,mu = 0 unless lam >= mu
        def dominates(lam, mu):
            return all(sum(lam[:i]) >= sum(mu[:i]) for i in range(1, len(mu) + 1))

        for n in range(13):
            for mu in enumerate_partitions(n):
                row = symfunc._h_in_s(mu)
                assert row[mu] == 1
                assert all(k > 0 and dominates(lam, mu) for lam, k in row.items())

    def test_kostka_counts_words(self):
        # sum_lam f^lam K_lam,mu counts words of content mu (RSK), with f^lam
        # from the factorial determinant, which does not touch symfunc
        for n in range(11):
            f = {lam: syt_count_det(SkewShape(lam, ())) for lam in enumerate_partitions(n)}
            for mu in enumerate_partitions(n):
                got = sum(f[lam] * k for lam, k in symfunc._h_in_s(mu).items())
                assert got == multinomial(n, mu)

    def test_strips_match_brute_force(self):
        # nu / lam is a horizontal strip iff nu contains lam and no column grows by two
        for size in range(9):
            for r in range(size + 1):
                for lam in enumerate_partitions(size - r):
                    cols = conjugate(lam) + (0,) * size
                    want = [
                        nu for nu in enumerate_partitions(size)
                        if len(nu) >= len(lam)
                        and all(a >= b for a, b in zip(nu, lam))
                        and all(a - b <= 1 for a, b in zip(conjugate(nu), cols))
                    ]
                    assert sorted(symfunc._strips(lam, r), reverse=True) == want

    def test_sprout_round_trips_through_every_basis(self):
        for n in range(11):
            for spec in CATALOG_SPECS:
                f = sprout_m(seed_by_name(spec, n), n)
                for basis in (Basis.H, Basis.E, Basis.S, Basis.P):
                    assert convert(convert(f, basis), Basis.M) == f


class TestDuality:
    def test_m_h_duality(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    got = scalar_product(
                        basis_element(Basis.M, lam), basis_element(Basis.H, mu)
                    )
                    assert got == (1 if lam == mu else 0)

    def test_schur_orthonormality(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    got = scalar_product(
                        basis_element(Basis.S, lam), basis_element(Basis.S, mu)
                    )
                    assert got == (1 if lam == mu else 0)

    def test_power_sum_pairing(self):
        for n in range(7):
            ones = partition((1,) * n)
            assert scalar_product(
                basis_element(Basis.P, ones), basis_element(Basis.P, ones)
            ) == factorial(n)
        assert scalar_product(
            basis_element(Basis.H, (2,)), basis_element(Basis.M, (2,))
        ) == 1

    def test_degree_mismatch_is_zero(self):
        assert scalar_product(
            basis_element(Basis.P, (2,)), basis_element(Basis.P, (2, 1))
        ) == 0


class TestOmega:
    def test_h_to_e(self):
        for n in range(1, 7):
            assert omega(basis_element(Basis.H, (n,))) == basis_element(Basis.E, (n,))

    def test_schur_conjugation(self):
        for n in range(1, 7):
            got = omega(basis_element(Basis.S, (n,)))
            assert got == basis_element(Basis.S, (1,) * n)

    def test_involution_on_random(self):
        rng = random.Random(3)
        for trial in range(10):
            basis = ALL_BASES[trial % 5]
            f = random_symfunc(rng, 6, basis)
            assert omega(omega(f)) == f

    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), degree=st.integers(0, 8),
           basis=st.sampled_from(ALL_BASES))
    def test_involution_at_random_degree(self, data, degree, basis):
        terms = {lam: data.draw(COEFF) for lam in enumerate_partitions(degree)}
        f = SymFunc(basis, degree, terms)
        assert omega(omega(f)) == f

    def test_ring_homomorphism(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_symfunc(rng, rng.randint(1, 3), Basis.P)
            g = random_symfunc(rng, rng.randint(1, 3), Basis.P)
            assert omega(multiply(f, g)) == multiply(omega(f), omega(g))

    def test_p_basis_sign_rule(self):
        f = basis_element(Basis.P, (3, 2, 1))
        got = omega(f)
        # sign is (-1)^(n - parts) = (-1)^(6-3) = -1
        assert got.terms == {partition((3, 2, 1)): Fraction(-1)}


class TestMultiply:
    def test_power_sums_concatenate(self):
        got = multiply(basis_element(Basis.P, (2,)), basis_element(Basis.P, (1,)))
        assert got == basis_element(Basis.P, (2, 1))

    def test_h_times_h(self):
        got = multiply(basis_element(Basis.H, (1,)), basis_element(Basis.H, (1,)))
        assert got == basis_element(Basis.H, (1, 1))
        as_m = convert(got, Basis.M)
        assert as_m.terms == {partition((2,)): 1, partition((1, 1)): 2}

    def test_e2_e1_monomial_coefficient(self):
        product = multiply(basis_element(Basis.E, (2,)), basis_element(Basis.E, (1,)))
        assert convert(product, Basis.M).coeff((2, 1)) == 1

    def test_mixed_bases_pivot_to_p(self):
        product = multiply(basis_element(Basis.M, (2,)), basis_element(Basis.S, (1,)))
        assert product.basis is Basis.P
        assert product.degree == 3


class TestBilinearity:
    @pytest.mark.parametrize("product", [multiply, kronecker])
    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), d1=st.integers(0, 5),
           fbasis=st.sampled_from(ALL_BASES), gbasis=st.sampled_from(ALL_BASES),
           a=COEFF, b=COEFF)
    def test_bilinear(self, product, data, d1, fbasis, gbasis, a, b):
        d2 = d1 if product is kronecker else data.draw(st.integers(0, 5))
        f1, f2 = data.draw(symfuncs(fbasis, d1)), data.draw(symfuncs(fbasis, d1))
        g1, g2 = data.draw(symfuncs(gbasis, d2)), data.draw(symfuncs(gbasis, d2))

        def lin(u, v):
            return add(scale(u, a), scale(v, b))

        assert product(lin(f1, f2), g1) == lin(product(f1, g1), product(f2, g1))
        assert product(f1, lin(g1, g2)) == lin(product(f1, g1), product(f1, g2))


class TestKronecker:
    def test_p_rules(self):
        p2 = basis_element(Basis.P, (2,))
        assert kronecker(p2, p2) == scale(p2, 2)
        p11 = basis_element(Basis.P, (1, 1))
        assert kronecker(p2, p11) == SymFunc(Basis.P, 2, {})

    def test_h2_h2(self):
        h2 = basis_element(Basis.H, (2,))
        assert kronecker(h2, h2) == h2

    def test_identity_element(self):
        # h_n, expanded in power sums, is the Kronecker identity in degree n.
        rng = random.Random(9)
        for n in range(1, 6):
            ident = convert(basis_element(Basis.H, (n,)), Basis.P)
            f = random_symfunc(rng, n, Basis.P)
            assert kronecker(ident, f) == f

    def test_rejects_unequal_degrees(self):
        with pytest.raises(ValueError):
            kronecker(basis_element(Basis.P, (2,)), basis_element(Basis.P, (2, 1)))


class TestDimAndSpecialize:
    def test_dim_h_is_one(self):
        for n in range(1, 7):
            assert dim(basis_element(Basis.H, (n,))) == 1

    def test_dim_s21_counts_tableaux(self):
        from sproutsym.oracles import SkewShape, syt_count_brute

        for lam in [(2, 1), (3, 1), (2, 2), (3, 2, 1)]:
            brute = syt_count_brute(SkewShape(partition(lam), ()))
            assert dim(basis_element(Basis.S, lam)) == brute
        assert dim(basis_element(Basis.S, (2, 1))) == 2

    def test_dim_normalized_power(self):
        for n in range(1, 6):
            f = scale(basis_element(Basis.P, (1,) * n), Fraction(1, factorial(n)))
            assert dim(f) == 1

    def test_principal_specialization(self):
        for n in range(1, 6):
            for k in range(5):
                assert principal_specialize(
                    basis_element(Basis.H, (n,)), k
                ) == comb(n + k - 1, n)
        assert principal_specialize(basis_element(Basis.E, (3,)), 2) == 0
        assert principal_specialize(basis_element(Basis.M, (1, 1)), 3) == 3

    def test_principal_specialization_of_monomials_at_large_k(self):
        # m_lam(1^k) = perm(k, l) / prod_i m_i! = C(k, l) * l! / prod_i m_i!
        k = 10**5
        for n in range(7):
            for lam in enumerate_partitions(n):
                want = comb(k, len(lam)) * multinomial(
                    len(lam), multiplicities(lam).values()
                )
                assert principal_specialize(basis_element(Basis.M, lam), k) == want


class TestElementaryMonomialLemma:
    def test_e1n_and_e2e1_coefficients(self):
        # [e_1^n] m_lam is 1 exactly at lam = (n); [e_2 e_1^(n-2)] m_lam is
        # -n at (n), 1 at (n-1, 1), otherwise 0.
        for n in range(2, 9):
            for lam in enumerate_partitions(n):
                expansion = convert(basis_element(Basis.M, lam), Basis.E)
                ones = expansion.coeff((1,) * n)
                pair = expansion.coeff((2,) + (1,) * (n - 2))
                assert ones == (1 if lam == partition((n,)) else 0)
                if lam == partition((n,)):
                    assert pair == -n
                elif lam == partition((n - 1, 1)):
                    assert pair == 1
                else:
                    assert pair == 0


def test_add_and_scale():
    f = basis_element(Basis.M, (2,))
    g = basis_element(Basis.M, (1, 1))
    total = add(f, scale(g, 2))
    assert total.terms == {partition((2,)): 1, partition((1, 1)): 2}
    with pytest.raises(ValueError):
        add(f, basis_element(Basis.P, (2,)))
