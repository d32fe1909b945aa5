from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sproutsym.partitions import (
    conjugate,
    enumerate_partitions,
    multinomial,
    multiplicities,
    partition,
    z_of,
)


def pentagonal_counts(n_max):
    """Independent oracle for p(n): Euler's pentagonal-number recurrence."""
    p = [1]
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


def cycle_type(perm):
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        lengths.append(length)
    return partition(sorted(lengths, reverse=True))


class TestPartitionType:
    """A partition is a plain tuple; ``partition`` checks one from outside."""

    def test_validation(self):
        with pytest.raises(ValueError):
            partition((1, 2))
        with pytest.raises(ValueError):
            partition((3, 0))
        with pytest.raises(ValueError):
            partition((2, -1))
        with pytest.raises(ValueError):
            partition((True,))

    def test_n_and_length(self):
        lam = partition((5, 3, 1, 1))
        assert type(lam) is tuple
        assert sum(lam) == 10
        assert len(lam) == 4
        assert sum(partition(())) == 0

    def test_usable_as_key_and_ordered(self):
        d = {partition((2, 1)): "a", partition((3,)): "b"}
        assert d[partition((2, 1))] == "a"
        assert partition((3,)) > partition((2, 1)) > partition((1, 1, 1))

    def test_multiplicities_and_json(self):
        lam = partition((3, 2, 2, 1))
        assert multiplicities(lam) == {3: 1, 2: 2, 1: 1}
        assert multiplicities(()) == {}
        assert list(lam) == [3, 2, 2, 1]

    def test_other_iterables_become_tuples(self):
        assert partition([2, 1]) == (2, 1)
        assert type(partition([2, 1])) is tuple
        assert partition(p for p in (3, 3)) == (3, 3)

    @given(
        st.one_of(
            st.lists(st.integers(1, 6), max_size=6).map(
                lambda parts: sorted(parts, reverse=True)
            ),
            st.lists(
                st.one_of(
                    st.integers(-2, 6), st.booleans(), st.floats(0, 4), st.text(max_size=1)
                ),
                max_size=6,
            ),
        )
    )
    def test_accepts_exactly_weakly_decreasing_positive_ints(self, parts):
        parts = tuple(parts)
        positive_ints = all(type(p) is int and p >= 1 for p in parts)
        valid = positive_ints and all(a >= b for a, b in zip(parts, parts[1:]))
        if valid:
            assert partition(parts) is parts
        else:
            with pytest.raises(ValueError):
                partition(parts)


class TestEnumerate:
    def test_zero(self):
        assert enumerate_partitions(0) == ((),)

    def test_four(self):
        assert [list(lam) for lam in enumerate_partitions(4)] == [
            [4],
            [3, 1],
            [2, 2],
            [2, 1, 1],
            [1, 1, 1, 1],
        ]

    def test_ten_has_42(self):
        assert len(enumerate_partitions(10)) == 42

    def test_counts_match_pentagonal_recurrence(self):
        oracle = pentagonal_counts(30)
        for n in range(31):
            assert len(enumerate_partitions(n)) == oracle[n]

    def test_reverse_lexicographic_and_unique(self):
        for n in range(11):
            parts = enumerate_partitions(n)
            assert list(parts) == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)


class TestConjugate:
    def test_example(self):
        assert conjugate(partition((5, 3, 1, 1))) == partition((4, 2, 2, 1, 1))

    def test_empty_and_row(self):
        assert conjugate(()) == ()
        assert conjugate(partition((6,))) == partition((1,) * 6)

    def test_involution_up_to_12(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert conjugate(conjugate(lam)) == lam


class TestZ:
    def test_ones_gives_factorial(self):
        for n in range(8):
            assert z_of(partition((1,) * n)) == factorial(n)

    def test_direct_product(self):
        assert z_of(partition((2, 1))) == 2
        assert z_of(()) == 1
        assert z_of(partition((3, 3, 2))) == 3**2 * 2 * 2

    def test_cycle_type_counts(self):
        # z_lam times the number of permutations of that cycle type is n!.
        for n in range(1, 8):
            histogram = {}
            for perm in permutations(range(n)):
                lam = cycle_type(perm)
                histogram[lam] = histogram.get(lam, 0) + 1
            for lam, count in histogram.items():
                assert z_of(lam) * count == factorial(n)


class TestMultinomial:
    def test_against_binomial_oracle(self):
        # Independent route: iterated binomial coefficients.
        cases = [(10, [6, 2, 2]), (10, [4, 4, 2]), (6, [4, 2]), (9, [3, 3, 3])]
        for n, parts in cases:
            expected = 1
            rest = n
            for p in parts:
                expected *= comb(rest, p)
                rest -= p
            assert multinomial(n, parts) == expected

    def test_known_values(self):
        assert multinomial(10, [6, 2, 2]) == 1260
        assert multinomial(10, [4, 4, 2]) == 3150
        assert multinomial(6, [4, 2]) == 15
        for n in range(6):
            assert multinomial(n, [n]) == 1

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            multinomial(5, [3, 3])
        with pytest.raises(ValueError):
            multinomial(5, [6, -1])
