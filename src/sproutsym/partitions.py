"""Integer partitions and their basic statistics.

Partitions index every symmetric-function basis element in this package.
The canonical enumeration order is reverse-lexicographic: [n] comes first
and [1,...,1] last, which coincides with descending tuple comparison, so
``sorted(parts, reverse=True)`` reproduces the canonical order.
"""

from functools import cache
from math import factorial


class Partition(tuple):
    """An integer partition: a weakly decreasing tuple of positive parts.

    Behaves as an immutable tuple (hashable, totally ordered by tuple
    comparison), so partitions can key dictionaries directly.
    """

    def __new__(cls, parts=()):
        parts = tuple(parts)
        prev = None
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"parts must be positive integers: {parts!r}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be weakly decreasing: {parts!r}")
            prev = p
        self = super().__new__(cls, parts)
        self._n = sum(parts)
        return self

    @property
    def n(self) -> int:
        """Sum of the parts (the partition's size)."""
        return self._n

    def length(self) -> int:
        """Number of parts."""
        return len(self)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of parts equal to that value."""
        mult: dict[int, int] = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def to_json(self) -> list[int]:
        """JSON encoding: descending integer array."""
        return list(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)!r})"


EMPTY = Partition()


@cache
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each once, in reverse-lexicographic order.

    [n] is first, [1]*n is last; the empty partition is the sole
    partition of 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    result: list[Partition] = []
    parts: list[int] = []

    def descend(remaining: int, cap: int) -> None:
        if remaining == 0:
            result.append(Partition(parts))
            return
        for part in range(min(cap, remaining), 0, -1):
            parts.append(part)
            descend(remaining - part, part)
            parts.pop()

    descend(n, n)
    return tuple(result)


def conjugate(lam) -> Partition:
    """Transpose of the Young diagram; an involution."""
    lam = Partition(lam)
    if not lam:
        return lam
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return Partition(cols)


def z_of(lam) -> int:
    """The power-sum self-pairing constant: product of i^m_i * m_i! over part values i."""
    z = 1
    for value, m in Partition(lam).multiplicities().items():
        z *= value**m * factorial(m)
    return z


def multinomial(n: int, parts) -> int:
    """n! / prod(parts[i]!) for nonnegative parts summing to n."""
    parts = list(parts)
    if any(not isinstance(p, int) or p < 0 for p in parts):
        raise ValueError(f"parts must be nonnegative integers: {parts!r}")
    if sum(parts) != n:
        raise ValueError(f"parts must sum to {n}: {parts!r}")
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out
