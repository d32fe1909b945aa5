"""Integer partitions and their basic statistics.

A partition is a plain weakly decreasing tuple of positive ints, so it
keys dicts directly; ``partition`` checks parts that come from outside
the package.  The canonical enumeration order is reverse-lexicographic:
[n] comes first and [1,...,1] last, which coincides with descending tuple
comparison, so ``sorted(parts, reverse=True)`` reproduces the canonical
order.
"""

from functools import cache
from math import factorial


def partition(parts) -> tuple:
    """Check parts as a partition and return them as a tuple.

    ValueError unless the parts are positive ints (not bools) in weakly
    decreasing order.  A valid tuple is returned as is, not copied.
    """
    parts = tuple(parts)
    prev = None
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"parts must be positive integers: {parts!r}")
        if prev is not None and p > prev:
            raise ValueError(f"parts must be weakly decreasing: {parts!r}")
        prev = p
    return parts


def multiplicities(lam) -> dict[int, int]:
    """Map part value -> number of parts equal to that value."""
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    return mult


@cache
def enumerate_partitions(n: int) -> tuple[tuple, ...]:
    """All partitions of n, each once, in reverse-lexicographic order.

    [n] is first, [1]*n is last; the empty partition is the sole
    partition of 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    result: list[tuple] = []
    parts: list[int] = []

    def descend(remaining: int, cap: int) -> None:
        if remaining == 0:
            result.append(tuple(parts))
            return
        for part in range(min(cap, remaining), 0, -1):
            parts.append(part)
            descend(remaining - part, part)
            parts.pop()

    descend(n, n)
    return tuple(result)


def conjugate(lam) -> tuple:
    """Transpose of the Young diagram; an involution."""
    lam = partition(lam)
    cols = [0] * (lam[0] if lam else 0)
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def z_of(lam) -> int:
    """The power-sum self-pairing constant: product of i^m_i * m_i! over part values i."""
    z = 1
    for value, m in multiplicities(partition(lam)).items():
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
