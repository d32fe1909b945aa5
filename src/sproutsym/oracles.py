"""Independent brute-force verifiers: permutations, tableaux, matchings.

Everything here is deliberately first-principles so it can referee the
algebraic machinery: permutations come from one pruned backtracking search
(never the zigzag recurrence), tableau counts from direct filling, and
chromatic symmetric functions from stable set-partitions.  The counters
``alternating_count``, ``piecewise_alt_count`` and
``cyclically_alternating_count`` run that search over (unused values, last
value) states, counting equal subtrees once, and ``rp_histogram`` runs it
over states that also carry the record bookkeeping; ``_candidates`` is the
one rule by which every search extends a prefix.  ``alternating_permutations``
and the brute twins ``rp_histogram_brute`` and ``piecewise_alt_brute`` visit
every permutation through ``_walk_blocks``.  A matching is a
plain tuple of sorted (low, high) pairs; its interval order is read
straight off the pairs by ``incomparability_graph``.

Alternation convention: down-up throughout, w_1 > w_2 < w_3 > w_4 < ...
A permutation of even length 2n splits into the odd-position subsequence
whose left-to-right maxima define the record partition.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import factorial

from .errors import check_budget
from .linalg import det_int_bareiss
from .partitions import conjugate, multiplicities, partition
from .symfunc import Basis, SymFunc, omega


# ---------------------------------------------------------------------------
# Alternating permutations.


def _steps(length: int, block_starts) -> list[int]:
    """Per-position pattern: 0 at a block start, -1 where a descent is due,
    +1 where an ascent is due (blocks are down-up from their start)."""
    steps = []
    start = 0
    for position in range(length):
        if position in block_starts:
            start = position
        offset = position - start
        steps.append(0 if offset == 0 else (-1 if offset % 2 else 1))
    return steps


def _candidates(step: int, free: int, last: int) -> int:
    """Bitmask of the unused values a position may take after ``last``.

    Any unused value at a block start (step 0), the smaller ones where a
    descent is due, the larger ones where an ascent is due.
    """
    if step == 0:
        return free
    if step < 0:
        return free & ((1 << last) - 1)
    return free >> (last + 1) << (last + 1)


def _walk_blocks(length: int, block_starts: frozenset, visit) -> None:
    """Backtrack over permutations of [length] alternating within each block.

    ``visit`` receives each finished permutation once, as a list that the
    walk overwrites afterwards.  Each position tries only the unused values
    its pattern allows (any at a block start, smaller ones where a descent
    is due, larger ones where an ascent is due), in increasing order, so
    the permutations arrive in lexicographic order.
    """
    if length == 0:
        visit([])
        return
    steps = _steps(length, block_starts)
    word = [0] * length
    last = length - 1

    def place(position: int, free: int) -> None:
        # bit v of free is set while value v is unused
        cand = _candidates(steps[position], free, word[position - 1])
        while cand:
            low = cand & -cand
            cand ^= low
            word[position] = low.bit_length() - 1
            if position == last:
                visit(word)
            else:
                place(position + 1, free ^ low)

    place(0, (1 << (length + 1)) - 2)


def alternating_permutations(k: int):
    """All down-up alternating permutations of [k], lexicographically."""
    check_budget("permutation length", k)
    out: list[tuple] = []
    _walk_blocks(k, frozenset({0}), lambda w: out.append(tuple(w)))
    return out


def _count_walks(length: int, block_starts) -> int:
    """Number of permutations ``_walk_blocks`` visits."""
    count = 0

    def bump(_word) -> None:
        nonlocal count
        count += 1

    _walk_blocks(length, frozenset(block_starts), bump)
    return count


def _count_by_state(length: int, block_starts, first: int | None = None) -> int:
    """Number of permutations ``_walk_blocks`` visits, without visiting them.

    The same search, layer by layer: each layer maps (unused-value bitmask,
    last value) to the number of prefixes that reach it, and each state is
    extended by the walk's candidate rule, so equal subtrees are counted
    once.  With ``first``, only permutations that start at ``first`` and
    end below it are counted.
    """
    steps = _steps(length, block_starts)
    full = (1 << (length + 1)) - 2  # bit v set while value v is unused
    if first is None:
        layer = {(full, 0): 1}
    else:
        layer = {(full ^ (1 << first), first): 1}
        steps = steps[1:]
    for step in steps:
        grown: dict[tuple, int] = {}
        for (free, last), count in layer.items():
            cand = _candidates(step, free, last)
            while cand:
                low = cand & -cand
                cand ^= low
                key = (free ^ low, low.bit_length() - 1)
                grown[key] = grown.get(key, 0) + count
        layer = grown
    return sum(
        count for (_, last), count in layer.items() if first is None or last < first
    )


def alternating_count(k: int) -> int:
    """Number of down-up alternating permutations of [k] (equals E_k)."""
    check_budget("permutation length", k)
    return _count_by_state(k, {0})


def _record_gaps(w) -> tuple:
    """Record-partition key of a down-up word, without checking alternation.

    One running-max pass over the odd-position subsequence finds its
    left-to-right maxima; the gaps between them come back largest first.
    """
    odd = w[0::2]
    records = []
    for i, value in enumerate(odd):
        if not records or value > top:
            top = value
            records.append(i)
    records.append(len(odd))
    return _as_partition(b - a for a, b in zip(records, records[1:]))


def _as_partition(parts) -> tuple:
    """The parts as a partition: a tuple sorted largest first."""
    return tuple(sorted(parts, reverse=True))


def record_partition(w) -> tuple:
    """Record partition of an alternating permutation of even length.

    Take the odd-position subsequence, find its left-to-right maxima at
    indices r_1 < ... < r_j, and sort the gaps r_2-r_1, ..., n+1-r_j.
    """
    w = tuple(w)
    if len(w) % 2 != 0:
        raise ValueError("record partition needs an even-length permutation")
    for pos in range(1, len(w)):
        if not (w[pos - 1] > w[pos] if pos % 2 else w[pos - 1] < w[pos]):
            raise ValueError(f"{w!r} is not down-up alternating")
    return _record_gaps(w)


def _check_rp_length(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    check_budget("permutation length", 2 * n)


def rp_histogram(n: int) -> dict[tuple, int]:
    """Bin all alternating permutations of [2n] by record partition, by state.

    The walk's search layer by layer, as in ``_count_by_state``, with the
    record bookkeeping of ``_record_gaps`` carried in the state: (unused
    values, last value, top odd-position value, index of the last record,
    sorted gaps so far) maps to the number of prefixes that reach it.
    """
    _check_rp_length(n)
    length = 2 * n
    layer = {((1 << (length + 1)) - 2, 0, 0, 0, ()): 1}
    for position, step in enumerate(_steps(length, {0})):
        # entries at even 0-based positions make up the odd-position subsequence
        index, descent = divmod(position, 2)
        grown: dict[tuple, int] = {}
        for (free, last, top, record, gaps), count in layer.items():
            if not descent:  # the gaps if this entry is a new record
                closed = _as_partition((*gaps, index - record)) if position else ()
            cand = _candidates(step, free, last)
            while cand:
                low = cand & -cand
                cand ^= low
                value = low.bit_length() - 1
                if descent or value < top:
                    key = (free ^ low, value, top, record, gaps)
                else:
                    key = (free ^ low, value, value, index, closed)
                grown[key] = grown.get(key, 0) + count
        layer = grown
    counts: dict[tuple, int] = {}
    for (_, _, _, record, gaps), count in layer.items():
        key = _as_partition((*gaps, n - record))
        counts[key] = counts.get(key, 0) + count
    return counts


def rp_histogram_brute(n: int) -> dict[tuple, int]:
    """``rp_histogram`` by visiting each permutation once."""
    _check_rp_length(n)
    counts: dict[tuple, int] = {}

    def bucket(word) -> None:
        key = _record_gaps(word)
        counts[key] = counts.get(key, 0) + 1

    _walk_blocks(2 * n, frozenset({0}), bucket)
    return counts


def _piecewise_blocks(lam) -> tuple[int, set]:
    """Length 2n and block starts of the blocks 2*lam_i, budget checked."""
    lam = partition(lam)
    length = 2 * sum(lam)
    check_budget("permutation length", length)
    return length, set(accumulate((2 * part for part in lam[:-1]), initial=0))


def piecewise_alt_count(lam) -> int:
    """Count permutations of [2n] alternating on consecutive blocks 2*lam_i."""
    return _count_by_state(*_piecewise_blocks(lam))


def piecewise_alt_brute(lam) -> int:
    """``piecewise_alt_count`` by visiting each permutation once."""
    return _count_walks(*_piecewise_blocks(lam))


def cyclically_alternating_count(n: int) -> int:
    """Alternating permutations of [2n] whose last entry is below the first."""
    if n < 1:
        raise ValueError("n must be positive")
    check_budget("permutation length", 2 * n)
    return sum(_count_by_state(2 * n, {0}, first) for first in range(1, 2 * n + 1))


# ---------------------------------------------------------------------------
# Skew shapes and standard Young tableaux.


class SkewShape(namedtuple("SkewShape", "outer inner")):
    """A skew shape outer/inner with rows inner_i..outer_i - 1 (0-based cols)."""

    __slots__ = ()

    def __new__(cls, outer, inner):
        outer, inner = partition(outer), partition(inner)
        if len(inner) > len(outer):
            raise ValueError("inner shape has more rows than outer")
        for i, part in enumerate(inner):
            if part > outer[i]:
                raise ValueError("inner shape sticks out of outer")
        return super().__new__(cls, outer, inner)

    def inner_padded(self) -> tuple:
        return self.inner + (0,) * (len(self.outer) - len(self.inner))

    @property
    def cells(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def __str__(self) -> str:
        outer = ",".join(str(p) for p in self.outer)
        inner = ",".join(str(p) for p in self.inner)
        return f"({outer})/({inner})"


def rho_shape(lam) -> SkewShape:
    """The staircase-overlapped doubling of the conjugate partition.

    Row i has length 2*lam'_i, and each row starts one column left of
    the row above; the shape holds 2n cells for lam of n, so it is refused
    above the determinant's budget before it is built.
    """
    lam = partition(lam)
    check_budget("determinant cells", 2 * sum(lam))
    conj = conjugate(lam)
    ell = len(conj)
    outer = [2 * conj[i] + ell - (i + 1) for i in range(ell)]
    inner = [x for x in (ell - (j + 1) for j in range(ell)) if x > 0]
    return SkewShape(outer, inner)


def syt_count_det(shape: SkewShape) -> int:
    """Standard tableau count via the factorial determinant formula.

    cells! * det[1 / (outer_i - inner_j - i + j)!], with 1/k! read as 0
    when k is negative.  The arguments of one term of the determinant sum
    to cells, so a nonzero term has every argument in 0..cells, and an
    entry whose argument is above cells is read as 0 too.
    """
    cells = shape.cells
    check_budget("determinant cells", cells)
    ell = len(shape.outer)
    if ell == 0:
        return 1
    inner = shape.inner_padded()
    args = [
        [shape.outer[i] - inner[j] - (i + 1) + (j + 1) for j in range(ell)]
        for i in range(ell)
    ]
    # scale [1/arg!] to integers by cells!, then undo exactly
    top = factorial(cells)
    rows = [
        [top // factorial(arg) if 0 <= arg <= cells else 0 for arg in row]
        for row in args
    ]
    value, rest = divmod(det_int_bareiss(rows) * top, top**ell)
    if rest:
        raise ArithmeticError(f"tableau determinant for {shape} is not integral")
    return value


def syt_count_brute(shape: SkewShape) -> int:
    """Standard tableau count by placing 1..cells with backtracking.

    The walk visits every tableau once, so the determinant counts them
    first and the walk starts only within the ``brute tableaux`` budget.
    """
    check_budget("brute tableaux", syt_count_det(shape))
    ell = len(shape.outer)
    inner = shape.inner_padded()
    filled = [0] * ell  # cells already placed in each row

    def place(value: int) -> int:
        if value > shape.cells:
            return 1
        total = 0
        for i in range(ell):
            col = inner[i] + filled[i]
            if col >= shape.outer[i]:
                continue
            if i > 0 and inner[i - 1] <= col < shape.outer[i - 1]:
                if filled[i - 1] <= col - inner[i - 1]:
                    continue  # cell above exists but is still empty
            filled[i] += 1
            total += place(value + 1)
            filled[i] -= 1
        return total

    return place(1)


# ---------------------------------------------------------------------------
# Matchings, interval orders, chromatic symmetric functions.


def matchings(n: int) -> list[tuple]:
    """All perfect matchings of [2n] in first-partner order ((2n-1)!! of them).

    Each matching is a tuple of its (low, high) pairs, sorted.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_budget("matching n", n)
    out: list[tuple] = []
    pairs: list[tuple] = []

    def pair_up(free: tuple) -> None:
        if not free:
            out.append(tuple(pairs))
            return
        low = free[0]
        for partner in free[1:]:
            pairs.append((low, partner))
            pair_up(tuple(x for x in free if x != low and x != partner))
            pairs.pop()

    pair_up(tuple(range(1, 2 * n + 1)))
    return out


class Graph(namedtuple("Graph", "vertex_count edges")):
    """A simple undirected graph on vertices 0..vertex_count-1."""

    __slots__ = ()

    def __new__(cls, vertex_count: int, edges):
        edges = frozenset(tuple(sorted(e)) for e in edges)
        for a, b in edges:
            if a == b or not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"bad edge ({a}, {b})")
        return super().__new__(cls, vertex_count, edges)

    def adjacency(self) -> list[set]:
        adj: list[set] = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def incomparability_graph(pairs) -> Graph:
    """Incomparability graph of the interval order on the given intervals.

    Interval x lies below y when max(x) < min(y); vertices i < j are
    joined when neither of pairs[i], pairs[j] lies wholly left of the other.
    """
    n = len(pairs)
    edges = frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if max(pairs[i]) >= min(pairs[j]) and max(pairs[j]) >= min(pairs[i])
    )
    return Graph(n, edges)


def claw_graph() -> Graph:
    """The star with three leaves, the textbook Schur-negative example."""
    return Graph(4, frozenset({(0, 1), (0, 2), (0, 3)}))


def chromatic_sym(graph: Graph, degree: int) -> SymFunc:
    """Chromatic symmetric function from stable set-partitions.

    [m_lam] X_G is the number of partitions of the vertex set into
    independent blocks of sizes lam, times prod_i m_i(lam)!.
    """
    if graph.vertex_count != degree:
        raise ValueError("degree must equal the number of vertices")
    check_budget("chromatic vertices", degree)
    adj = graph.adjacency()
    counts: dict[tuple, int] = {}
    blocks: list[set] = []

    def assign(v: int) -> None:
        if v == graph.vertex_count:
            lam = tuple(sorted((len(b) for b in blocks), reverse=True))
            counts[lam] = counts.get(lam, 0) + 1
            return
        for block in blocks:
            if block.isdisjoint(adj[v]):
                block.add(v)
                assign(v + 1)
                block.remove(v)
        blocks.append({v})
        assign(v + 1)
        blocks.pop()

    if degree == 0:
        counts[()] = 1
    else:
        assign(0)
    terms = {}
    for lam, count in counts.items():
        weight = count
        for m in multiplicities(lam).values():
            weight *= factorial(m)
        terms[lam] = Fraction(weight)
    return SymFunc(Basis.M, degree, terms)


def uio_sum(n: int) -> SymFunc:
    """Sum of omega X_G over the interval orders of all matchings of [2n].

    G is the incomparability graph of the matching's pairs and X_G its
    chromatic symmetric function.  Returned in the monomial basis; equals
    (2n)! times the sec(sqrt(t)) sprout function of degree n.  omega is
    linear, so the m-terms of every X_G are summed first and omega is
    applied once.
    """
    check_budget("interval-order n", n)
    total: dict[tuple, Fraction] = {}
    for pairs in matchings(n):
        for lam, c in chromatic_sym(incomparability_graph(pairs), n).terms.items():
            total[lam] = total.get(lam, 0) + c
    return omega(SymFunc(Basis.M, n, total))
