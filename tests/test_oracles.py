from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sproutsym import oracles
from sproutsym.errors import BudgetError
from sproutsym.oracles import (
    Graph,
    SkewShape,
    _count_by_state,
    _record_gaps,
    _walk_blocks,
    alternating_count,
    alternating_permutations,
    chromatic_sym,
    claw_graph,
    cyclically_alternating_count,
    incomparability_graph,
    matchings,
    piecewise_alt_brute,
    piecewise_alt_count,
    record_partition,
    rho_shape,
    rp_histogram,
    rp_histogram_brute,
    syt_count_brute,
    syt_count_det,
    uio_sum,
)
from sproutsym.partitions import enumerate_partitions, multinomial, partition
from sproutsym.seeds import euler_numbers, phi_abs, seed_by_name
from sproutsym.sprout import sprout_m
from sproutsym.symfunc import Basis, convert, scale


def is_down_up(word):
    return all(
        (word[i - 1] > word[i]) if i % 2 == 1 else (word[i - 1] < word[i])
        for i in range(1, len(word))
    )


def down_up_in_blocks(word, starts):
    cuts = sorted(starts | {len(word)})
    return all(is_down_up(word[a:b]) for a, b in zip(cuts, cuts[1:]))


def down_up_permutations(k):
    return [w for w in permutations(range(1, k + 1)) if is_down_up(w)]


@st.composite
def walk_shapes(draw):
    length = draw(st.integers(0, 8))
    starts = draw(st.sets(st.integers(0, max(length - 1, 0)), max_size=length))
    return length, frozenset(starts | {0})


class TestWalkBlocks:
    @settings(deadline=None, max_examples=30)
    @given(shape=walk_shapes())
    def test_visits_the_filtered_permutations_in_order(self, shape):
        length, starts = shape
        visited = []
        _walk_blocks(length, starts, lambda w: visited.append(tuple(w)))
        assert visited == [
            w for w in permutations(range(1, length + 1)) if down_up_in_blocks(w, starts)
        ]

    def test_length_zero_visits_the_empty_word_once(self):
        visited = []
        _walk_blocks(0, frozenset({0}), lambda w: visited.append(list(w)))
        assert visited == [[]]


class TestCountByState:
    @settings(deadline=None, max_examples=30)
    @given(shape=walk_shapes())
    def test_equals_the_walk_visits(self, shape):
        length, starts = shape
        visits = []
        _walk_blocks(length, starts, visits.append)
        assert _count_by_state(length, starts) == len(visits)

    def test_first_equals_filtered_walk_visits(self):
        for length in range(2, 11, 2):
            falls = Counter()

            def tally(w):
                if w[-1] < w[0]:
                    falls[w[0]] += 1

            _walk_blocks(length, frozenset({0}), tally)
            for first in range(1, length + 1):
                assert _count_by_state(length, {0}, first) == falls[first]


class TestAlternating:
    def test_four(self):
        perms = alternating_permutations(4)
        assert set(perms) == {
            (2, 1, 4, 3),
            (3, 1, 4, 2),
            (3, 2, 4, 1),
            (4, 1, 3, 2),
            (4, 2, 3, 1),
        }
        assert alternating_count(4) == 5

    def test_empty(self):
        assert alternating_count(0) == 1

    def test_against_filter_oracle(self):
        # independent route: filter all permutations
        for k in range(7):
            brute = sum(
                1 for w in permutations(range(1, k + 1)) if is_down_up(w)
            )
            assert alternating_count(k) == brute

    def test_nine(self):
        assert alternating_count(9) == 7936
        assert alternating_count(9) == euler_numbers(9)[9]

    def test_twelve_at_the_top_of_the_budget(self):
        assert alternating_count(12) == euler_numbers(12)[12] == 2702765

    def test_budget(self):
        with pytest.raises(BudgetError):
            alternating_count(13)


class TestRecordPartition:
    def test_worked_example(self):
        # odd positions 7,5,8,10,9; records at 1,3,4; gaps 2,1,2
        w = (7, 2, 5, 4, 8, 3, 10, 6, 9, 1)
        assert record_partition(w) == partition((2, 2, 1))

    def test_small_cases(self):
        assert record_partition((2, 1, 4, 3)) == partition((1, 1))
        assert record_partition((4, 1, 3, 2)) == partition((2,))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            record_partition((1, 2, 3, 4))
        with pytest.raises(ValueError):
            record_partition((2, 1, 3))

    def test_gap_key_matches_record_partition(self):
        for k in range(0, 9, 2):
            for w in down_up_permutations(k):
                assert _record_gaps(w) == tuple(record_partition(w))


class TestRpHistogram:
    def test_n2(self):
        assert rp_histogram(2) == {partition((2,)): 2, partition((1, 1)): 3}

    def test_n1(self):
        assert rp_histogram(1) == {partition((1,)): 1}

    def test_n3_total(self):
        hist = rp_histogram(3)
        assert sum(hist.values()) == 61

    def test_matches_filter_route_up_to_4(self):
        for n in range(1, 5):
            brute = Counter(record_partition(w) for w in down_up_permutations(2 * n))
            assert rp_histogram(n) == brute

    def test_matches_phi_up_to_4(self):
        for n in range(1, 5):
            hist = rp_histogram(n)
            for lam in enumerate_partitions(n):
                assert hist.get(lam, 0) == phi_abs(lam)

    def test_matches_phi_at_5(self):
        hist = rp_histogram(5)
        assert sum(hist.values()) == 50521
        for lam in enumerate_partitions(5):
            assert hist.get(lam, 0) == phi_abs(lam)

    def test_matches_phi_at_the_top_of_the_length_budget(self):
        hist = rp_histogram(6)
        assert sum(hist.values()) == 2702765
        assert hist == {lam: phi_abs(lam) for lam in enumerate_partitions(6)}

    def test_counted_matches_the_walk_up_to_5(self):
        for n in range(1, 6):
            assert rp_histogram(n) == rp_histogram_brute(n)

    def test_counts_without_walking(self, monkeypatch):
        monkeypatch.setattr(oracles, "_walk_blocks", None)
        assert sum(rp_histogram(4).values()) == 1385

    def test_budget(self):
        for hist in (rp_histogram, rp_histogram_brute):
            with pytest.raises(BudgetError):
                hist(7)
            with pytest.raises(ValueError):
                hist(0)


class TestPiecewise:
    def test_pair_of_descents(self):
        assert piecewise_alt_count(partition((1, 1))) == 6

    def test_single_block_matches_zigzag(self):
        for n in range(1, 4):
            assert piecewise_alt_count(partition((n,))) == euler_numbers(2 * n)[2 * n]

    def test_formula_agreement_up_to_4(self):
        euler = euler_numbers(8)
        for n in range(1, 5):
            for lam in enumerate_partitions(n):
                formula = multinomial(2 * n, [2 * p for p in lam])
                for p in lam:
                    formula *= euler[2 * p]
                assert piecewise_alt_count(lam) == formula

    def test_brute_twin_agrees_up_to_4(self):
        for n in range(5):
            for lam in enumerate_partitions(n):
                assert piecewise_alt_brute(lam) == piecewise_alt_count(lam)

    def test_empty(self):
        assert piecewise_alt_count(()) == 1

    def test_budget(self):
        with pytest.raises(BudgetError):
            piecewise_alt_count(partition((7,)))
        with pytest.raises(BudgetError):
            piecewise_alt_brute(partition((7,)))


class TestCyclicallyAlternating:
    def test_small(self):
        assert cyclically_alternating_count(1) == 1
        assert cyclically_alternating_count(2) == 4
        assert cyclically_alternating_count(3) == 48

    def test_equals_n_times_odd_zigzag(self):
        euler = euler_numbers(9)
        for n in range(1, 5):
            assert cyclically_alternating_count(n) == n * euler[2 * n - 1]

    def test_n5(self):
        assert cyclically_alternating_count(5) == 5 * euler_numbers(9)[9]

    def test_n6_at_the_top_of_the_budget(self):
        assert cyclically_alternating_count(6) == 6 * euler_numbers(11)[11] == 2122752


class TestRhoShape:
    def test_worked_example(self):
        shape = rho_shape(partition((5, 3, 1, 1)))
        assert shape.outer == partition((12, 7, 6, 3, 2))
        assert shape.inner == partition((4, 3, 2, 1))

    def test_single_box(self):
        shape = rho_shape(partition((1,)))
        assert shape.outer == partition((2,))
        assert shape.inner == ()

    def test_column(self):
        shape = rho_shape(partition((1, 1)))
        assert shape.outer == partition((4,))
        assert shape.inner == ()

    def test_cell_count_is_2n(self):
        for n in range(7):
            for lam in enumerate_partitions(n):
                assert rho_shape(lam).cells == 2 * n

    def test_str(self):
        assert str(rho_shape(partition((5, 3, 1, 1)))) == "(12,7,6,3,2)/(4,3,2,1)"


class TestSytCounts:
    def test_rows_and_small_shapes(self):
        assert syt_count_det(SkewShape(partition((2,)), ())) == 1
        assert syt_count_det(SkewShape(partition((3, 2)), partition((1,)))) == 5
        assert syt_count_det(SkewShape(partition((4,)), ())) == 1
        assert syt_count_det(SkewShape(partition((2, 1)), ())) == 2

    def test_brute_matches_examples(self):
        assert syt_count_brute(SkewShape(partition((3, 2)), partition((1,)))) == 5
        assert syt_count_brute(SkewShape(partition((5,)), ())) == 1
        assert syt_count_brute(SkewShape(partition((2, 1)), ())) == 2

    def test_brute_matches_det_on_rho_shapes(self):
        for n in range(5):
            for lam in enumerate_partitions(n):
                shape = rho_shape(lam)
                assert syt_count_brute(shape) == syt_count_det(shape)

    def test_brute_matches_det_on_straight_shapes(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                shape = SkewShape(lam, ())
                assert syt_count_brute(shape) == syt_count_det(shape)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SkewShape(partition((2,)), partition((3,)))
        with pytest.raises(ValueError):
            SkewShape(partition((2,)), partition((1, 1)))

    def test_budgets(self):
        with pytest.raises(BudgetError):
            syt_count_det(SkewShape(partition((13, 12)), ()))
        with pytest.raises(BudgetError, match="^determinant cells 25 "):
            syt_count_brute(SkewShape(partition((13, 12)), ()))
        # the 10-cell staircase strip: its cells are unrelated, so 10! tableaux
        strip = SkewShape(tuple(range(10, 0, -1)), tuple(range(9, 0, -1)))
        with pytest.raises(BudgetError, match="^brute tableaux 3628800 exceeds"):
            syt_count_brute(strip)

    def test_brute_budget_counts_tableaux_not_cells(self):
        # 13 and 16 cells, above the old 12-cell limit, but few tableaux
        assert syt_count_brute(SkewShape(partition((7, 6)), ())) == 429
        assert syt_count_brute(SkewShape(partition((13, 3)), ())) == 440


class TestMatchings:
    def test_counts_double_factorial(self):
        assert len(matchings(1)) == 1
        assert len(matchings(2)) == 3
        assert len(matchings(5)) == 945

    def test_structure(self):
        assert matchings(1) == [((1, 2),)]
        for pairs in matchings(3):
            assert pairs == tuple(sorted(tuple(sorted(p)) for p in pairs))
            flat = sorted(x for pair in pairs for x in pair)
            assert flat == list(range(1, 7))
        assert matchings(2) == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    def test_budget(self):
        with pytest.raises(BudgetError):
            matchings(7)


class TestIntervalOrder:
    def test_non_edges_form_an_interval_order(self):
        # Fishburn: a strict partial order is an interval order iff it has
        # no induced 2+2.  Orient each non-edge by max(x) < min(y).
        for n in range(1, 5):
            for pairs in matchings(n):
                edges = incomparability_graph(pairs).edges
                less = {
                    (i, j)
                    for i in range(n)
                    for j in range(n)
                    if i != j and (min(i, j), max(i, j)) not in edges
                    and max(pairs[i]) < min(pairs[j])
                }
                for i in range(n):
                    for j in range(i + 1, n):
                        if (i, j) not in edges:
                            assert ((i, j) in less) != ((j, i) in less)
                for x, y in less:
                    assert (y, x) not in less
                    for z in range(n):
                        if (y, z) in less:
                            assert (x, z) in less
                for (a, b), (c, d) in permutations(less, 2):
                    if len({a, b, c, d}) == 4:
                        assert (a, d) in less or (c, b) in less

    def test_incomparability_graph_size(self):
        for n in (1, 2, 3):
            for pairs in matchings(n):
                assert incomparability_graph(pairs).vertex_count == n

    def test_claw_matching(self):
        graph = incomparability_graph(((1, 8), (2, 3), (4, 5), (6, 7)))
        degrees = sorted(
            sum(1 for e in graph.edges if v in e) for v in range(4)
        )
        assert degrees == [1, 1, 1, 3]  # the star on four vertices


class TestChromatic:
    def test_single_vertex(self):
        got = chromatic_sym(Graph(1, frozenset()), 1)
        assert got.terms == {partition((1,)): 1}

    def test_single_edge(self):
        got = chromatic_sym(Graph(2, frozenset({(0, 1)})), 2)
        assert got.terms == {partition((1, 1)): 2}

    def test_claw_monomial_form(self):
        # hand count: 1 stable partition of type (3,1), 3 of type (2,1,1),
        # singletons for (1,1,1,1); augmented weights 1, 2, 24
        got = chromatic_sym(claw_graph(), 4)
        assert got.terms == {
            partition((3, 1)): 1,
            partition((2, 1, 1)): 6,
            partition((1, 1, 1, 1)): 24,
        }

    def test_claw_is_not_schur_positive(self):
        expansion = convert(chromatic_sym(claw_graph(), 4), Basis.S)
        assert expansion.coeff((2, 2)) < 0

    def test_complete_graph_forces_singletons(self):
        edges = frozenset((i, j) for i in range(4) for j in range(i + 1, 4))
        got = chromatic_sym(Graph(4, edges), 4)
        assert got.terms == {partition((1, 1, 1, 1)): 24}

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            chromatic_sym(claw_graph(), 3)


class TestUioSum:
    def test_degree_one(self):
        got = uio_sum(1)
        assert got.terms == {partition((1,)): 1}  # 2! * A_1 = p_1 = m_1

    def test_degree_two(self):
        got = uio_sum(2)
        assert got.terms == {partition((2,)): 5, partition((1, 1)): 6}

    def test_matches_sprout_up_to_4(self):
        seed = seed_by_name("secsqrt", 4)
        for n in range(1, 5):
            assert uio_sum(n) == scale(sprout_m(seed, n), factorial(2 * n))

    @pytest.mark.slow
    def test_matches_sprout_at_5(self):
        seed = seed_by_name("secsqrt", 5)
        assert uio_sum(5) == scale(sprout_m(seed, 5), factorial(10))

    def test_budget(self):
        with pytest.raises(BudgetError):
            uio_sum(6)
