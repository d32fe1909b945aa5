from itertools import permutations
from math import comb, factorial

import pytest

from sproutsym.partitions import (
    EMPTY,
    Partition,
    conjugate,
    enumerate_partitions,
    multinomial,
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
    return Partition(sorted(lengths, reverse=True))


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((2, -1))
        with pytest.raises(ValueError):
            Partition((True,))

    def test_n_and_length(self):
        lam = Partition((5, 3, 1, 1))
        assert lam.n == 10
        assert lam.length() == 4
        assert EMPTY.n == 0

    def test_usable_as_key_and_ordered(self):
        d = {Partition((2, 1)): "a", Partition((3,)): "b"}
        assert d[Partition((2, 1))] == "a"
        assert Partition((3,)) > Partition((2, 1)) > Partition((1, 1, 1))

    def test_multiplicities_and_json(self):
        lam = Partition((3, 2, 2, 1))
        assert lam.multiplicities() == {3: 1, 2: 2, 1: 1}
        assert lam.to_json() == [3, 2, 2, 1]


class TestEnumerate:
    def test_zero(self):
        assert enumerate_partitions(0) == (EMPTY,)

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
        assert conjugate(Partition((5, 3, 1, 1))) == Partition((4, 2, 2, 1, 1))

    def test_empty_and_row(self):
        assert conjugate(EMPTY) == EMPTY
        assert conjugate(Partition((6,))) == Partition((1,) * 6)

    def test_involution_up_to_12(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert conjugate(conjugate(lam)) == lam


class TestZ:
    def test_ones_gives_factorial(self):
        for n in range(8):
            assert z_of(Partition((1,) * n)) == factorial(n)

    def test_direct_product(self):
        assert z_of(Partition((2, 1))) == 2
        assert z_of(EMPTY) == 1
        assert z_of(Partition((3, 3, 2))) == 3**2 * 2 * 2

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
