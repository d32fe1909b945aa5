"""Finite total-nonnegativity evidence and empirical expansion positivity.

Only finite necessary conditions are computed here: a passing minor
report means "no violation found up to (order, degree)", never "the
sequence is totally nonnegative" (which is an analytic statement about
all minors at once).  Each minor of the seed's Toeplitz matrix equals a
skew Schur coefficient of some R_n, so a negative minor certifies a
Schur-negative expansion and vice versa within the scanned window.

Minors are evaluated fraction-free: the coefficient window is scaled by
the lcm of its denominators into integers, and reported values are
scaled back down.  The sweep uses the structure of [a_(j-i)]: a minor
with rows[k] > cols[k] for some k is zero and is never visited, and a
minor does not change when rows and cols shift together, so it is
evaluated once per shift class.  Order k is built from order k - 1 by a
cofactor expansion along the last row, which keeps rows[0] = 0, so every
cofactor is one of the previous order's stored nonzero classes and each
new last row costs one k-term dot product.  The top order evaluates one
class of each pair that a 180-degree rotation swaps.  The report keeps
only the sorted negative classes; within an order they share one
Fraction per distinct value and one tuple per row set and per column
set, so the report costs memory in proportion to its classes and values,
not its violations.  It lists their shifts on demand
(``MinorReport.violations``), in the same order as a sweep over all
pairs would, and its JSON writer streams them in bounded batches,
formatting each distinct determinant once.  A single minor
(``toeplitz_minor``) is computed by Bareiss elimination, an independent
referee for the sweep and for ``sprout.schur_coeff``.
"""

import io
import json
from fractions import Fraction
from itertools import combinations, islice
from math import comb, lcm
from typing import NamedTuple

from .errors import PrecisionError, check_budget
from .linalg import det_int_bareiss
from .series import rat_str
from .sprout import Seed, decimate_seed, expansion_in
from .symfunc import Basis

JSON_BATCH = 1024  # violations per write in MinorReport.write_json


def _shifts(classes, size):
    """(t, the classes of one order that still fit shifted by t), in report order.

    A class fits while cols[-1] + t < size; fewer fit as t grows.  All of
    them fit at t = 0, so that shift lists the order's classes uncopied.
    """
    for fitting in classes:
        t = 0
        while fitting:
            yield t, fitting
            t += 1
            fitting = [c for c in fitting if c[1][-1] + t < size]


class _ShiftedText(dict):
    """Index tuples shifted by t, as JSON list text, each formatted once."""

    def __init__(self, t):
        self.t = t

    def __missing__(self, indices):
        text = self[indices] = str([i + self.t for i in indices])
        return text


class MinorReport(NamedTuple):
    """The negative minors of a sweep, kept as shift classes.

    ``classes[k - 1]`` holds the negative classes of order k, sorted, each
    as its representative (rows, cols, value) with rows[0] = 0.  Within an
    order, equal values are one Fraction object and equal rows or cols one
    tuple.
    The minor at (rows + t, cols + t) has the same value for every shift
    t with cols[-1] + t <= max_degree.  ``violations`` lists all of them
    in (order, rows, cols) order; ``write_json`` streams them to a text
    stream without building them, and ``to_json`` returns the same text.
    """

    max_order: int
    max_degree: int
    classes: tuple
    note: str = ""

    @property
    def violations(self) -> tuple:
        """Every negative (rows, cols, value), each shift of each class."""
        return tuple(
            (tuple(i + t for i in rows), tuple(j + t for j in cols), value)
            for t, fitting in _shifts(self.classes, self.max_degree + 1)
            for rows, cols, value in fitting
        )

    @property
    def passed(self) -> bool:
        return not any(self.classes)

    def write_json(self, out) -> None:
        """Write the report to the text stream ``out`` as one JSON object:
        max_order, max_degree, violations (each {"rows", "cols",
        "determinant": "p/q"}), passed, note.

        The violations go out ``JSON_BATCH`` to a write, so the text held
        at once is bounded by a batch, not by the report.
        """
        out.write(
            f'{{"max_order": {self.max_order}, "max_degree": {self.max_degree}, '
            '"violations": ['
        )
        items, separator = self._violation_texts(), ""
        while batch := list(islice(items, JSON_BATCH)):
            out.write(separator + ", ".join(batch))
            separator = ", "
        out.write(
            f'], "passed": {json.dumps(self.passed)}, "note": {json.dumps(self.note)}}}'
        )

    def _violation_texts(self):
        """Each violation as JSON object text, in ``violations`` order.

        Each distinct determinant object is formatted once (the sweep
        shares one per value within an order) and each shifted index
        tuple once per shift; no per-violation object is built.
        """
        determinants = {}  # id(value) -> text; the report keeps every value alive
        for t, fitting in _shifts(self.classes, self.max_degree + 1):
            text = _ShiftedText(t)
            for rows, cols, value in fitting:
                if (det := determinants.get(id(value))) is None:
                    det = determinants[id(value)] = rat_str(value, always_slash=True)
                yield (
                    f'{{"rows": {text[rows]}, "cols": {text[cols]}, '
                    f'"determinant": "{det}"}}'
                )

    def to_json(self) -> str:
        """The text ``write_json`` writes, as one string."""
        out = io.StringIO()
        self.write_json(out)
        return out.getvalue()


class PositivityReport(NamedTuple):
    """First negative coefficient (if any) in a basis expansion sweep."""

    basis: Basis
    n_max: int
    first_negative: tuple | None
    e_precheck_first_fail: int | None = None

    @property
    def passed(self) -> bool:
        return self.first_negative is None

    def to_json_obj(self) -> dict:
        first = None
        if self.first_negative is not None:
            n, lam, coeff = self.first_negative
            first = {
                "n": n,
                "partition": list(lam),
                "coeff": rat_str(coeff, always_slash=True),
            }
        return {
            "basis": self.basis.value,
            "n_max": self.n_max,
            "first_negative": first,
            "passed": self.passed,
            "e_precheck_first_fail": self.e_precheck_first_fail,
        }


def toeplitz_minor(seed: Seed, rows, cols) -> Fraction:
    """One exact minor of [a_{j-i}], by Bareiss on the lcm-scaled integer entries."""
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    matrix = [[seed.a_coeff(j - i) for j in cols] for i in rows]
    scale = lcm(*(x.denominator for row in matrix for x in row), 1)
    det = det_int_bareiss([[int(x * scale) for x in row] for row in matrix])
    return Fraction(det, scale ** len(rows))


def minor_count(max_order: int, max_degree: int) -> int:
    """Minors a sweep to (max_order, max_degree) indexes, skipped ones included."""
    return sum(
        comb(max_degree + 1, r) ** 2
        for r in range(1, min(max_order, max_degree + 1) + 1)
    )


def _at_least(bound, stop):
    """The increasing tuples p with p[i] >= bound[i] and p[-1] < stop, sorted."""
    found = [()]
    for i, low in enumerate(bound):
        end = stop - len(bound) + i + 1
        found = [
            p + (v,) for p in found for v in range(max(low, p[-1] + 1) if p else low, end)
        ]
    return found


def toeplitz_minors(seed: Seed, max_order: int, max_degree: int) -> MinorReport:
    """Evaluate every minor with indices <= max_degree and order <= max_order.

    The matrix [a_(j-i)] is upper triangular, so a minor is zero unless
    cols[i] >= rows[i] for every i; and it depends only on j - i, so
    shifting rows and cols together leaves a minor unchanged.  Each shift
    class is evaluated once, at its representative with rows[0] = 0, by
    expanding along the last row r:

        det = sum_j (-1)^(j+k-1) a_(cols[j]-r) M(rows[:-1], cols minus cols[j])

    where a term with cols[j] < r is zero.  Deleting the last row keeps
    rows[0] = 0, so every cofactor M is a class of order k - 1 as the
    previous order stored it (a missing key is zero).  For each head
    rows[:-1] only the structural column sets are visited, those with
    cols[i] >= head[i] and cols[-1] > head[-1]; their cofactors depend
    only on (head, cols), so every last row r costs one k-term dot product.

    A minor equals the minor of its 180-degree rotation,
    (c - reversed(cols), c - reversed(rows)) with c = cols[-1], which is a
    representative too.  The top order stores no cofactors, so from order
    3 on it evaluates one class of each mirror pair, chosen before any
    arithmetic: the class whose rows[1] is below its mirror's rows[1]
    (cols[-1] - cols[-2]) is evaluated and emits its mirror as well, the
    one above is skipped, and a tie is evaluated and emits only itself.

    The report keeps the negative classes, sorted, with no sort of a whole
    order: the heads are walked in order, each head's classes are bucketed
    by r, and only the mirrors are sorted into their rows.  Each order
    shares one Fraction per distinct determinant, one rows tuple per row
    set and one cols tuple per column set, so equal values, rows and cols
    are the same objects.  Its ``violations`` lists them shift by shift
    in (order, rows, cols) lexicographic order.
    The ``"minors"`` budget (``minor_count``) is checked before any work;
    it counts minors, not memory.
    Exact arithmetic throughout.
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if max_degree > seed.precision:
        raise PrecisionError(
            f"degree {max_degree} beyond seed precision {seed.precision}"
        )
    check_budget("minors", minor_count(max_order, max_degree))
    size = max_degree + 1
    scale = lcm(*(seed.a_coeff(k).denominator for k in range(size)), 1)
    # padded with zeros, so entries[c - r] reads a_(c-r), and 0 when c < r
    entries = [int(seed.a_coeff(k) * scale) for k in range(size)] + [0] * size
    top = min(max_order, size)
    classes = []
    # the previous order's nonzero classes, rows -> {position of cols: det},
    # and the position of each of its column sets in lexicographic order
    previous, positions = {(): {0: 1}}, {(): 0}
    for order in range(1, top + 1):
        back = scale**order
        signs = [(-1) ** (j + order - 1) for j in range(order)]
        # the top order stores no cofactors, so it evaluates one class of
        # each mirror pair; rows[1] exists from order 3 on
        mirroring = order == top >= 3
        shared_rows = {}  # one tuple per row set
        col_sets = list(combinations(range(size), order))
        # cols[:-1] -> [(position, cols, cofactor keys, mirror's rows)] by
        # cols[-1], where key j is the position of cols minus cols[j]
        tails = {}
        for at, cols in enumerate(col_sets):
            keys = [positions[cols[:j] + cols[j + 1:]] for j in range(order)]
            mirror_rows = None
            if mirroring:
                mirror_rows = tuple(cols[-1] - c for c in reversed(cols))
                mirror_rows = shared_rows.setdefault(mirror_rows, mirror_rows)
            tails.setdefault(cols[:-1], []).append((at, cols, keys, mirror_rows))
        positions = {cols: at for at, cols in enumerate(col_sets)}
        current = {}
        negative = []
        mirrored = {}  # rows -> its mirror classes, not yet placed
        values = {}  # det -> Fraction(det, back), one object per distinct value
        for head in sorted(previous):
            # popped, so the previous order's table shrinks as this one grows
            minors = previous.pop(head)
            # the new last rows r, shared by every column set, each with its
            # negative classes and its mirrors' cols by cols[-1]; at order 1
            # the last row is the representative's row 0
            grown = []
            for r in range(head[-1] + 1, size) if head else (0,):
                rows = head + (r,)
                grown.append((r, shared_rows.setdefault(rows, rows), [], {}))
            # tails[p][i] has cols[-1] - cols[-2] = i + 1, its mirror's rows[1];
            # the classes whose mirror has the smaller rows[1] are skipped, and
            # offset 0 (a tie) is emitted alone
            skip = head[1] - 1 if mirroring else 0
            # the structural column sets: cols[:-1] = p >= head, and then
            # cols[-1] > p[-1] >= head[-1]
            for p in _at_least(head, size - 1):
                for offset, (at, cols, keys, mirror_rows) in enumerate(tails[p][skip:]):
                    terms = [
                        (sign * sub, c)
                        for key, sign, c in zip(keys, signs, cols)
                        if (sub := minors.get(key))
                    ]
                    if not terms:
                        continue
                    last = cols[-1]
                    for r, rows, found, twins in grown:
                        if r > last:
                            break
                        det = 0
                        for cofactor, c in terms:
                            det += cofactor * entries[c - r]
                        if det:
                            if order < top:
                                current.setdefault(rows, {})[at] = det
                            if det < 0:
                                if (value := values.get(det)) is None:
                                    value = values[det] = Fraction(det, back)
                                found.append((rows, cols, value))
                                if mirroring and offset:
                                    if (twin := twins.get(last)) is None:
                                        twin = tuple(last - i for i in reversed(rows))
                                        twin = twins[last] = col_sets[positions[twin]]
                                    mirrored.setdefault(mirror_rows, []).append(
                                        (mirror_rows, twin, value)
                                    )
            # each r's classes come sorted by cols; a mirror's rows[1] is
            # larger than its class's, so its head comes later, and every
            # mirror is placed by the time its rows are reached
            for _, rows, found, _ in grown:
                if placed := mirrored.pop(rows, None):
                    found += placed
                    found.sort()
                negative += found
        previous = current
        classes.append(tuple(negative))
    return MinorReport(
        max_order=max_order, max_degree=max_degree, classes=tuple(classes)
    )


def expansion_positivity(seed: Seed, n_max: int, basis: Basis) -> PositivityReport:
    """Expand R_1..R_{n_max} in the s, e or h basis and report the first
    strictly negative coefficient, scanning degrees upward and partitions
    in canonical order.  The expansions come from ``expansion_in``, whose
    memo on the seed is filled once for the whole sweep.

    For the e basis the Newton inequalities
    a_k^2 >= (1 + 1/k) a_{k-1} a_{k+1}, k = 1..n_max-1, are checked first
    and the degree k+1 of the earliest failure is recorded alongside the
    full sweep.  Both sides scale by c^(2k) under F(t) -> F(ct), so the
    check, like e-positivity for c > 0, ignores the scale of t.  The
    inequalities hold for every seed
    e^(gamma t) prod(1 + beta_i t) with gamma, beta_i >= 0, whose R_n are
    all e-positive by the dual Cauchy identity; a failure at k >= 2 only
    places the seed outside that family.  A failure at k = 1 certifies a
    negative coefficient: R_2 = a_2 e_1^2 + (a_1^2 - 2 a_2) e_2.
    """
    if basis not in (Basis.S, Basis.E, Basis.H):
        raise ValueError("positivity sweep supports the s, e and h bases only")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > seed.precision:
        raise PrecisionError(f"degree {n_max} beyond seed precision {seed.precision}")
    precheck = None
    if basis is Basis.E:
        for k in range(1, n_max):
            bound = (1 + Fraction(1, k)) * seed.a_coeff(k - 1) * seed.a_coeff(k + 1)
            if seed.a_coeff(k) ** 2 < bound:
                precheck = k + 1
                break
    first_negative = None
    for n in range(1, n_max + 1):
        for lam, coeff in expansion_in(seed, n, basis).items_canonical():
            if coeff < 0:
                first_negative = (n, lam, coeff)
                break
        if first_negative:
            break
    return PositivityReport(
        basis=basis,
        n_max=n_max,
        first_negative=first_negative,
        e_precheck_first_fail=precheck,
    )


def decimation_check(seed: Seed, d: int, max_order: int, max_degree: int) -> MinorReport:
    """Minor sweep of the decimated seed sum_n a_{dn} t^n.

    Every minor inspected here is literally a minor of the undecimated
    Toeplitz matrix (its row/column indices multiplied by d), so
    violations here certify violations there.
    """
    if d < 1:
        raise ValueError("decimation step must be positive")
    if d * max_degree > seed.precision:
        raise PrecisionError(
            f"decimated degree {d}*{max_degree} beyond seed precision {seed.precision}"
        )
    report = toeplitz_minors(decimate_seed(seed, d), max_order, max_degree)
    note = (
        f"entries a_(d*(j-i)) with d={d}: the matrix [a_(d(j-i))] is a submatrix "
        f"of [a_(j-i)], so each minor here is a minor of the base Toeplitz matrix"
    )
    return report._replace(note=note)

