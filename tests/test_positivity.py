import json
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sproutsym import positivity
from sproutsym.errors import BUDGETS, BudgetError, PrecisionError
from sproutsym.partitions import enumerate_partitions, partition
from sproutsym.positivity import (
    decimation_check,
    expansion_positivity,
    toeplitz_minor,
    toeplitz_minors,
)
from sproutsym.seeds import seed_by_name
from sproutsym.series import Series, exp_series, inverse, mul, rat_str
from sproutsym.sprout import Seed, schur_coeff, sprout_m
from sproutsym.symfunc import Basis, convert


def witness_seed(precision):
    """The sequence 1, 0, 1, 0, ...; fails total nonnegativity at order 2."""
    return Seed(Series([1 if n % 2 == 0 else 0 for n in range(precision + 1)]),
                name="witness")


def edrei_thoma_seed(alphas, betas, gamma, degree):
    """e^(gamma t) prod(1 + beta_i t) / prod(1 - alpha_i t), exact to t^degree."""
    zeros = [0] * (degree - 1)
    f = exp_series(Series([0, gamma, *zeros]))
    for beta in betas:
        f = mul(f, Series([1, beta, *zeros]))
    for alpha in alphas:
        f = mul(f, inverse(Series([1, -alpha, *zeros])))
    return Seed(f)


def brute_violations(seed, max_order, max_degree, step=1):
    """Every negative minor, one toeplitz_minor call per (rows, cols) pair.

    With step d the minor is read at indices multiplied by d, which is the
    minor of the decimated seed at the undivided indices.
    """
    found = []
    indices = range(max_degree + 1)
    for order in range(1, min(max_order, max_degree + 1) + 1):
        for rows in combinations(indices, order):
            for cols in combinations(indices, order):
                value = toeplitz_minor(
                    seed, [step * i for i in rows], [step * j for j in cols]
                )
                if value < 0:
                    found.append((rows, cols, value))
    return found


class TestSingleMinor:
    def test_sec_order_two(self):
        seed = seed_by_name("secsqrt", 4)
        # rows {0,1}, cols {1,2} pick out a_1^2 - a_2 a_0
        assert toeplitz_minor(seed, (0, 1), (1, 2)) == Fraction(1, 24)

    def test_one_plus_t_minors_are_zero_or_one(self):
        seed = seed_by_name("one_plus_t", 6)
        for order in (1, 2, 3):
            for rows in combinations(range(7), order):
                for cols in combinations(range(7), order):
                    assert toeplitz_minor(seed, rows, cols) in (0, 1)

    def test_witness_violation(self):
        seed = witness_seed(4)
        assert toeplitz_minor(seed, (0, 1), (1, 2)) == -1


class TestMinorSweep:
    def test_sec_passes(self):
        report = toeplitz_minors(seed_by_name("secsqrt", 8), 3, 8)
        assert report.passed
        assert report.violations == ()

    def test_witness_fails_with_sorted_violations(self):
        report = toeplitz_minors(witness_seed(4), 2, 4)
        assert not report.passed
        assert report.violations[0] == ((0, 1), (1, 2), Fraction(-1))
        ordered = sorted(report.violations, key=lambda v: (len(v[0]), v[0], v[1]))
        assert list(report.violations) == ordered

    def test_report_keeps_class_representatives(self):
        report = toeplitz_minors(seed_by_name("l_genus", 10), 4, 10)
        kept = [c for negative in report.classes for c in negative]
        assert all(rows[0] == 0 for rows, _, _ in kept)
        assert len(kept) == 11435 < len(report.violations) == 20820

    def test_equal_values_and_rows_are_shared_within_an_order(self):
        report = toeplitz_minors(seed_by_name("l_genus", 8), 4, 8)
        for negative in report.classes:
            values, rows_seen, cols_seen = {}, {}, {}
            for rows, cols, value in negative:
                assert values.setdefault(value, value) is value
                assert rows_seen.setdefault(rows, rows) is rows
                assert cols_seen.setdefault(cols, cols) is cols
        # the last order repeats all three, so the checks above bite
        assert len(values) < len(negative) and len(rows_seen) < len(negative)
        assert len(cols_seen) < len(negative)

    def test_budget_guard(self, monkeypatch):
        seed = seed_by_name("geom", 12)
        monkeypatch.setitem(BUDGETS, "minors", 1000)
        with pytest.raises(BudgetError):
            toeplitz_minors(seed, 5, 12)

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            toeplitz_minors(seed_by_name("secsqrt", 4), 2, 6)

    def test_geom_all_minors_nonnegative(self):
        report = toeplitz_minors(seed_by_name("geom", 6), 3, 6)
        assert report.passed

    def test_json_round_trip(self):
        report = toeplitz_minors(witness_seed(4), 2, 4)
        text = report.to_json()
        assert json.dumps(json.loads(text)) == text
        parsed = json.loads(text)
        assert parsed["passed"] is False
        assert parsed["violations"][0]["determinant"] == "-1/1"


class TestStraightShapeConsistency:
    def test_minor_equals_schur_coefficient(self):
        # the Jacobi-Trudi recurrence behind schur_coeff against Bareiss:
        # rows lam_1 - 1 - lam_i + i and cols lam_1 - 1 + j (1-based i, j)
        # pick det[a_(lam_i - i + j)] out of the Toeplitz matrix
        for name in ("secsqrt", "qfn", "l_genus"):
            seed = seed_by_name(name, 12)
            for n in range(1, 13):
                expansion = convert(sprout_m(seed, n), Basis.S)
                for lam in enumerate_partitions(n):
                    top = lam[0] - 1
                    rows = [top - lam[i] + i + 1 for i in range(len(lam))]
                    cols = [top + j + 1 for j in range(len(lam))]
                    value = schur_coeff(seed, lam)
                    assert value == toeplitz_minor(seed, rows, cols)
                    assert value == expansion.coeff(lam)


class TestSweepMatchesBruteForce:
    SEEDS = ("l_genus", "ahat", "subset_exp(1,2)", "one_plus_t")

    def test_catalog_and_witness(self):
        # one_plus_t has mostly zero minors; witness, l_genus and ahat fail
        seeds = [witness_seed(7)] + [seed_by_name(name, 7) for name in self.SEEDS]
        total = 0
        for seed in seeds:
            for order, degree in ((1, 7), (2, 7), (3, 6), (3, 7), (4, 7)):
                report = toeplitz_minors(seed, order, degree)
                assert list(report.violations) == brute_violations(seed, order, degree)
                assert report.passed == (not report.violations)
                total += len(report.violations)
        assert total > 0

    def test_decimated(self):
        total = 0
        for seed in (witness_seed(14), seed_by_name("l_genus", 14),
                     seed_by_name("ahat", 14)):
            report = decimation_check(seed, 2, 3, 7)
            assert list(report.violations) == brute_violations(seed, 3, 7, step=2)
            total += len(report.violations)
        assert total > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["l_genus", "ahat"])
    def test_benchmark_heaviest_sweep(self, name):
        # order 4 at degree 10: 139,271 minors, about 21,000 of them negative
        seed = seed_by_name(name, 10)
        report = toeplitz_minors(seed, 4, 10)
        assert list(report.violations) == brute_violations(seed, 4, 10)
        assert len(report.violations) > 20_000

    @pytest.mark.slow
    @pytest.mark.parametrize("name,count", [("l_genus", 6366), ("ahat", 6752)])
    def test_order_five(self, name, count):
        seed = seed_by_name(name, 8)
        report = toeplitz_minors(seed, 5, 8)
        assert list(report.violations) == brute_violations(seed, 5, 8)
        assert len(report.violations) == count

    def test_budget_edge(self, monkeypatch):
        seed = seed_by_name("geom", 7)
        for order, degree in ((1, 0), (2, 5), (3, 7)):
            # every (rows, cols) pair of each order up to order, skipped ones included
            count = sum(
                len(list(combinations(range(degree + 1), r))) ** 2
                for r in range(1, order + 1)
            )
            monkeypatch.setitem(BUDGETS, "minors", count)
            toeplitz_minors(seed, order, degree)
            monkeypatch.setitem(BUDGETS, "minors", count - 1)
            with pytest.raises(BudgetError):
                toeplitz_minors(seed, order, degree)

    def test_negative_degree_rejected(self):
        seed = seed_by_name("geom", 4)
        with pytest.raises(ValueError):
            toeplitz_minors(seed, 2, -1)
        with pytest.raises(ValueError):
            decimation_check(seed, 2, 2, -1)


# a_k of a random seed: integers or fractions, zeros and negatives included
COEFF = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


def leibniz_det(matrix):
    """Determinant as the signed sum over permutations (small orders only)."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = prod((matrix[i][perm[i]] for i in range(n)), start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


@st.composite
def skew_shapes(draw):
    """A skew shape lam/mu with at most 4 rows and parts at most 4."""
    lam = sorted(draw(st.lists(st.integers(1, 4), max_size=4)), reverse=True)
    mu = sorted((draw(st.integers(0, part)) for part in lam), reverse=True)
    return lam, mu


class TestProperties:
    @settings(deadline=None, max_examples=60)
    @given(coeffs=st.lists(COEFF, max_size=6), order=st.integers(1, 7))
    def test_sweep_matches_brute_force(self, coeffs, order):
        seed = Seed(Series([1, *coeffs]))
        degree = len(coeffs)
        report = toeplitz_minors(seed, order, degree)
        assert list(report.violations) == brute_violations(seed, order, degree)

    @settings(deadline=None, max_examples=60)
    @given(coeffs=st.lists(COEFF, max_size=8), order=st.integers(1, 6))
    def test_classes_are_closed_under_rotation(self, coeffs, order):
        # a minor equals the minor of its 180-degree rotation, and the top
        # order emits the rotation of each class it evaluates in its place
        report = toeplitz_minors(Seed(Series([1, *coeffs])), order, len(coeffs))
        for negative in report.classes:
            value_of = {(rows, cols): value for rows, cols, value in negative}
            assert len(value_of) == len(negative)
            for rows, cols, value in negative:
                last = cols[-1]
                rotated = (
                    tuple(last - j for j in reversed(cols)),
                    tuple(last - i for i in reversed(rows)),
                )
                assert value_of[rotated] is value

    @settings(deadline=None, max_examples=40)
    @given(coeffs=st.lists(COEFF, max_size=12), order=st.integers(1, 4))
    def test_decimated_sweep_matches_brute_force(self, coeffs, order):
        seed = Seed(Series([1, *coeffs]))
        degree = len(coeffs) // 2
        report = decimation_check(seed, 2, order, degree)
        assert list(report.violations) == brute_violations(seed, order, degree, step=2)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), order=st.integers(1, 4), degree=st.integers(0, 8),
           step=st.integers(1, 2))
    def test_writer_matches_dumped_violations(self, data, order, degree, step):
        coeffs = data.draw(st.lists(COEFF, min_size=step * degree, max_size=step * degree))
        seed = Seed(Series([1, *coeffs]))
        if step == 1:
            report = toeplitz_minors(seed, order, degree)
        else:
            report = decimation_check(seed, step, order, degree)
        text = report.to_json()
        assert text == json.dumps({
            "max_order": order,
            "max_degree": degree,
            "violations": [
                {
                    "rows": list(rows),
                    "cols": list(cols),
                    "determinant": rat_str(value, always_slash=True),
                }
                for rows, cols, value in report.violations
            ],
            "passed": report.passed,
            "note": report.note,
        })
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(positivity, "JSON_BATCH", 3)
            assert report.to_json() == text
        assert report.passed == (not report.violations)
        if report.passed:
            assert '"violations": []' in text

    @settings(deadline=None, max_examples=60)
    @given(coeffs=st.lists(COEFF, min_size=8, max_size=8),
           shape=skew_shapes())
    def test_minor_is_skew_jacobi_trudi(self, coeffs, shape):
        # rows lam_1 - 1 - lam_i + i and cols lam_1 - 1 - mu_j + j (1-based)
        # make the minor det[a_(lam_i - mu_j - i + j)]
        seed = Seed(Series([1, *coeffs]))
        lam, mu = shape
        ell = len(lam)
        top = lam[0] - 1 if lam else 0
        rows = [top - lam[i] + i + 1 for i in range(ell)]
        cols = [top - mu[j] + j + 1 for j in range(ell)]
        jacobi_trudi = [
            [seed.a_coeff(lam[i] - mu[j] - i + j) for j in range(ell)]
            for i in range(ell)
        ]
        assert toeplitz_minor(seed, rows, cols) == leibniz_det(jacobi_trudi)


class TestExpansionPositivity:
    def test_sec_h_and_s_pass(self):
        seed = seed_by_name("secsqrt", 5)
        for basis in (Basis.H, Basis.S):
            report = expansion_positivity(seed, 5, basis)
            assert report.passed
            assert report.first_negative is None

    def test_one_plus_t_h_fails(self):
        report = expansion_positivity(seed_by_name("one_plus_t", 2), 2, Basis.H)
        assert not report.passed
        assert report.first_negative == (2, partition((2,)), Fraction(-1))

    def test_e_precheck(self):
        # e_n expansions of 1 + t are e-positive and the inequality holds
        report = expansion_positivity(seed_by_name("one_plus_t", 4), 4, Basis.E)
        assert report.passed
        assert report.e_precheck_first_fail is None
        # the witness breaks a_1^2 >= 2 a_0 a_2, so R_2 has e_2 coefficient -2
        report = expansion_positivity(witness_seed(4), 4, Basis.E)
        assert report.e_precheck_first_fail == 2
        assert not report.passed

    def test_e_precheck_ignores_scale(self):
        # F(ct) multiplies R_n by c^n: 1 + 2t and e^(2t) are e-positive like 1 + t
        one_plus_2t = Seed(Series([1, 2, 0, 0, 0]))
        exp_2t = Seed(exp_series(Series([0, 2, 0, 0, 0])))
        for seed in (one_plus_2t, exp_2t):
            report = expansion_positivity(seed, 4, Basis.E)
            assert report.e_precheck_first_fail is None
            assert report.passed

    @settings(deadline=None, max_examples=40)
    @given(
        betas=st.lists(
            st.fractions(min_value=0, max_value=5, max_denominator=6), max_size=4
        ),
        gamma=st.fractions(min_value=0, max_value=5, max_denominator=6),
        n_max=st.integers(1, 6),
    )
    def test_e_precheck_never_fires_without_alpha(self, betas, gamma, n_max):
        # e^(gamma t) prod(1 + beta_i t): every R_n is e-positive (dual Cauchy)
        report = expansion_positivity(
            edrei_thoma_seed([], betas, gamma, n_max), n_max, Basis.E
        )
        assert report.e_precheck_first_fail is None
        assert report.passed

    def test_rejects_m_and_p(self):
        seed = seed_by_name("geom", 3)
        with pytest.raises(ValueError):
            expansion_positivity(seed, 3, Basis.M)

    def test_monotone_evidence_on_witness(self):
        # a failed minor sweep must shadow a failed Schur sweep in range
        minor_report = toeplitz_minors(witness_seed(4), 2, 4)
        assert not minor_report.passed
        schur_report = expansion_positivity(witness_seed(4), 4, Basis.S)
        assert not schur_report.passed
        assert schur_report.first_negative[0] <= 4

    def test_json_shape(self):
        report = expansion_positivity(seed_by_name("one_plus_t", 2), 2, Basis.H)
        obj = report.to_json_obj()
        assert obj["first_negative"] == {
            "n": 2,
            "partition": [2],
            "coeff": "-1/1",
        }


NONNEGATIVE = st.fractions(min_value=0, max_value=5, max_denominator=6)


class TestEdreiThoma:
    """Seeds e^(gamma t) prod(1 + beta_i t) / prod(1 - alpha_i t).

    With every parameter nonnegative the Toeplitz matrix is totally
    nonnegative (Aissen-Schoenberg-Whitney, Edrei), so every minor and
    every Schur coefficient is nonnegative; with no beta every R_n is
    h-positive by the Cauchy identity, and with no alpha e-positive by
    the dual Cauchy identity.
    """

    @settings(deadline=None, max_examples=25)
    @given(
        alphas=st.lists(NONNEGATIVE, max_size=3),
        betas=st.lists(NONNEGATIVE, max_size=3),
        gamma=NONNEGATIVE,
        degree=st.integers(1, 8),
    )
    def test_nonnegative_parameters_pass_minors_and_s(self, alphas, betas, gamma, degree):
        seed = edrei_thoma_seed(alphas, betas, gamma, degree)
        assert toeplitz_minors(seed, 4, degree).passed
        assert expansion_positivity(seed, degree, Basis.S).passed

    @settings(deadline=None, max_examples=25)
    @given(
        alphas=st.lists(NONNEGATIVE, max_size=3),
        gamma=NONNEGATIVE,
        degree=st.integers(1, 8),
    )
    def test_no_beta_passes_h(self, alphas, gamma, degree):
        seed = edrei_thoma_seed(alphas, [], gamma, degree)
        assert expansion_positivity(seed, degree, Basis.H).passed

    @settings(deadline=None, max_examples=25)
    @given(
        alpha=st.fractions(min_value=-5, max_value=0, max_denominator=6).filter(bool),
        degree=st.integers(1, 8),
    )
    def test_one_negative_alpha_breaks_order_one(self, alpha, degree):
        # 1/(1 - alpha t) has a_1 = alpha < 0, the 1x1 minor at (0, 1)
        report = toeplitz_minors(edrei_thoma_seed([alpha], [], 0, degree), 1, degree)
        assert not report.passed
        assert report.violations[0] == ((0,), (1,), alpha)

    # The converse directions, on examples only: these seeds are totally
    # nonnegative, yet a beta breaks h-positivity and an alpha breaks
    # e-positivity.
    MIXED = [
        ([1, 2], [Fraction(1, 2)], Fraction(1, 3)),
        ([Fraction(1, 3)], [2], 1),
    ]

    @pytest.mark.parametrize("alphas,betas,gamma", [([], [1], 0), *MIXED])
    def test_beta_fails_h(self, alphas, betas, gamma):
        seed = edrei_thoma_seed(alphas, betas, gamma, 6)
        assert toeplitz_minors(seed, 4, 6).passed
        assert not expansion_positivity(seed, 6, Basis.H).passed

    @pytest.mark.parametrize("alphas,betas,gamma", [([1], [], 0), *MIXED])
    def test_alpha_fails_e(self, alphas, betas, gamma):
        seed = edrei_thoma_seed(alphas, betas, gamma, 6)
        assert toeplitz_minors(seed, 4, 6).passed
        assert not expansion_positivity(seed, 6, Basis.E).passed

    # sec(sqrt(t)) = prod_k 1/(1 - t/((k - 1/2) pi)^2) has alpha parameters
    # only: Schur- and h-positive at every degree, but not e-positive.
    def test_secsqrt_h_and_s_pass_to_twenty(self):
        seed = seed_by_name("secsqrt", 20)
        assert expansion_positivity(seed, 20, Basis.H).passed
        assert expansion_positivity(seed, 20, Basis.S).passed

    def test_secsqrt_e_fails_first_at_two(self):
        report = expansion_positivity(seed_by_name("secsqrt", 20), 20, Basis.E)
        assert report.first_negative == (2, partition((2,)), Fraction(-1, 6))


class TestDecimation:
    def test_sec_decimated_passes(self):
        report = decimation_check(seed_by_name("secsqrt", 12), 2, 3, 6)
        assert report.passed
        assert "submatrix" in report.note

    def test_geom_trivial(self):
        report = decimation_check(seed_by_name("geom", 12), 3, 2, 4)
        assert report.passed

    def test_d1_matches_plain_sweep(self):
        seed = seed_by_name("secsqrt", 6)
        plain = toeplitz_minors(seed, 2, 6)
        via = decimation_check(seed, 1, 2, 6)
        assert via.violations == plain.violations
        assert via.passed == plain.passed

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            decimation_check(seed_by_name("secsqrt", 5), 2, 2, 4)
