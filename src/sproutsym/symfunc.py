"""Symmetric functions of fixed homogeneous degree in the m, p, e, h, s bases.

Conversion strategy: the power-sum basis P is the single pivot.

* p -> m expands products of power sums in the monomial basis directly.
* m -> p back-substitutes through the p->m matrix, which is triangular
  in reverse-lex order with diagonal prod m_i(lam)! (Macdonald I.6),
  over integer numerators and the common denominator n!; one table per
  degree, cached.
* s -> h uses the Jacobi-Trudi determinant det[h_{lam_i - i + j}],
  expanded symbolically over its nonzero structure.
* e <-> h ride the omega involution.
* Coefficient extraction into H uses Hall duality ([h_lam] f = <f, m_lam>)
  and into S uses Schur self-duality paired through Jacobi-Trudi:
  [s_lam] f = <f, s_lam> = sum_nu [h_nu]s_lam * [m_nu] f.

All transition tables are per-degree, write-once caches; every value in
them is exact, so round trips are exact equalities, not approximations.
"""

from enum import Enum
from fractions import Fraction
from functools import cache
from math import factorial

from .errors import ConsistencyError
from .partitions import EMPTY, Partition, conjugate, enumerate_partitions, union, z_of
from .series import rat_str


class Basis(Enum):
    M = "m"
    P = "p"
    E = "e"
    H = "h"
    S = "s"

    @classmethod
    def from_letter(cls, letter: str) -> "Basis":
        try:
            return cls(letter.lower())
        except ValueError:
            raise ValueError(f"unknown basis {letter!r}; expected one of m p e h s") from None


class SymFunc:
    """A homogeneous symmetric function: sparse map partition -> coefficient.

    Zero coefficients are pruned on construction, so equality is
    structural equality of (basis, degree, terms).
    """

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: Basis, degree: int, terms):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Partition, Fraction] = {}
        for lam, c in dict(terms).items():
            lam = Partition(lam)
            c = Fraction(c)
            if lam.n != degree:
                raise ValueError(f"partition {lam!r} does not have size {degree}")
            if c != 0:
                clean[lam] = c
        self.basis = basis
        self.degree = degree
        self.terms = clean

    def coeff(self, lam) -> Fraction:
        return self.terms.get(Partition(lam), Fraction(0))

    def items_canonical(self):
        """Terms in reverse-lexicographic partition order."""
        for lam in enumerate_partitions(self.degree):
            if lam in self.terms:
                yield lam, self.terms[lam]

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis.value,
            "degree": self.degree,
            "terms": [
                {"partition": lam.to_json(), "coeff": rat_str(c, always_slash=True)}
                for lam, c in self.items_canonical()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SymFunc":
        terms = {
            Partition(entry["partition"]): Fraction(entry["coeff"])
            for entry in obj["terms"]
        }
        return cls(Basis.from_letter(obj["basis"]), obj["degree"], terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymFunc)
            and self.basis == other.basis
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        body = " + ".join(
            f"{rat_str(c)}*{self.basis.value}{list(lam)!r}"
            for lam, c in self.items_canonical()
        )
        return f"SymFunc({self.basis.value}, deg {self.degree}: {body or '0'})"


def basis_element(basis: Basis, lam) -> SymFunc:
    lam = Partition(lam)
    return SymFunc(basis, lam.n, {lam: Fraction(1)})


def zero(basis: Basis, degree: int) -> SymFunc:
    return SymFunc(basis, degree, {})


def add(f: SymFunc, g: SymFunc) -> SymFunc:
    if f.basis != g.basis or f.degree != g.degree:
        raise ValueError("can only add symmetric functions of equal basis and degree")
    terms = dict(f.terms)
    for lam, c in g.terms.items():
        terms[lam] = terms.get(lam, Fraction(0)) + c
    return SymFunc(f.basis, f.degree, terms)


def scale(f: SymFunc, c) -> SymFunc:
    c = Fraction(c)
    return SymFunc(f.basis, f.degree, {lam: c * v for lam, v in f.terms.items()})


# ---------------------------------------------------------------------------
# Transition tables, all pivoting through the power-sum basis.


def _mul_m_by_p(mvec: dict, r: int) -> dict:
    """Multiply a monomial-basis expansion by the power sum p_r.

    For each term m_mu, the product redistributes over partitions nu
    obtained by growing one part of mu by r or appending a new part r;
    the coefficient picked up is the multiplicity of the grown value
    in nu.
    """
    out: dict[Partition, int] = {}
    for mu, c in mvec.items():
        seen: set[int] = set()
        for s in mu:
            if s in seen:
                continue
            seen.add(s)
            grown = list(mu)
            grown.remove(s)
            nu = Partition(sorted(grown + [s + r], reverse=True))
            mult = sum(1 for v in nu if v == s + r)
            out[nu] = out.get(nu, 0) + c * mult
        nu = union(mu, (r,))
        mult = sum(1 for v in nu if v == r)
        out[nu] = out.get(nu, 0) + c * mult
    return {lam: c for lam, c in out.items() if c != 0}


@cache
def _p_in_m(lam: Partition) -> dict:
    """Expansion of p_lam in the monomial basis (integer coefficients)."""
    if not lam:
        return {EMPTY: 1}
    return _mul_m_by_p(_p_in_m(Partition(lam[1:])), lam[0])


@cache
def _m_in_p_table(n: int) -> dict:
    """m_lam in the power-sum basis for every lam of n, by back-substitution.

    p_lam = sum_mu L[lam, mu] m_mu with integer L; every mu != lam is a
    coarsening of lam, so it comes earlier in reverse-lex order, and
    L[lam, lam] = prod m_i(lam)!.  Rows are integer numerators over n!,
    which every denominator divides, so each division by the diagonal
    must be exact.
    """
    denom = factorial(n)
    rows: dict[Partition, dict[Partition, int]] = {}
    for lam in enumerate_partitions(n):
        p_lam = _p_in_m(lam)
        acc = {lam: denom}
        for mu, c in p_lam.items():
            if mu != lam:
                for rho, v in rows[mu].items():
                    acc[rho] = acc.get(rho, 0) - c * v
        row: dict[Partition, int] = {}
        for rho, v in acc.items():
            q, r = divmod(v, p_lam[lam])
            if r:
                raise ConsistencyError(
                    f"m_{list(lam)} in the p basis is not integral over {n}!"
                )
            if q:
                row[rho] = q
        rows[lam] = row
    return {
        lam: {rho: Fraction(v, denom) for rho, v in sorted(row.items(), reverse=True)}
        for lam, row in rows.items()
    }


@cache
def _h_in_p(lam: Partition) -> dict:
    """Expansion of h_lam in the power-sum basis."""
    if not lam:
        return {EMPTY: Fraction(1)}
    tail = _h_in_p(Partition(lam[1:]))
    head = {rho: Fraction(1, z_of(rho)) for rho in enumerate_partitions(lam[0])}
    out: dict[Partition, Fraction] = {}
    for rho, c in tail.items():
        for sigma, d in head.items():
            key = union(rho, sigma)
            out[key] = out.get(key, Fraction(0)) + c * d
    return out


def _omega_sign(lam: Partition) -> int:
    return -1 if (lam.n - len(lam)) % 2 else 1


@cache
def _e_in_p(lam: Partition) -> dict:
    """Expansion of e_lam in the power-sum basis (omega image of h_lam)."""
    return {rho: c * _omega_sign(rho) for rho, c in _h_in_p(lam).items()}


@cache
def _s_in_h(lam: Partition) -> dict:
    """Jacobi-Trudi expansion of s_lam as an integer combination of h_mu.

    The determinant det[h_{lam_i - i + j}] is expanded by cofactors along
    the top remaining row, skipping entries whose subscript is negative;
    sub-determinants are memoized on (row, remaining-column mask), which
    keeps long one-column-heavy shapes cheap.
    """
    ell = len(lam)
    if ell == 0:
        return {EMPTY: 1}
    memo: dict[tuple[int, int], dict] = {}

    def minor(i: int, colmask: int) -> dict:
        if i == ell:
            return {(): 1}
        key = (i, colmask)
        cached = memo.get(key)
        if cached is not None:
            return cached
        out: dict[tuple, int] = {}
        rel = 0
        for j in range(ell):
            if not (colmask >> j) & 1:
                continue
            sub = lam[i] - (i + 1) + (j + 1)
            if sub >= 0:
                sign = -1 if rel % 2 else 1
                for parts, c in minor(i + 1, colmask & ~(1 << j)).items():
                    grown = (
                        parts
                        if sub == 0
                        else tuple(sorted(parts + (sub,), reverse=True))
                    )
                    out[grown] = out.get(grown, 0) + sign * c
            rel += 1
        memo[key] = out
        return out

    top = minor(0, (1 << ell) - 1)
    return {Partition(parts): c for parts, c in top.items() if c != 0}


@cache
def _s_in_p(lam: Partition) -> dict:
    out: dict[Partition, Fraction] = {}
    for mu, c in _s_in_h(lam).items():
        for rho, d in _h_in_p(mu).items():
            out[rho] = out.get(rho, Fraction(0)) + c * d
    return {rho: c for rho, c in out.items() if c != 0}


def _to_p_terms(f: SymFunc) -> dict:
    """Coefficient dict of f in the power-sum basis."""
    if f.basis is Basis.P:
        return dict(f.terms)
    if f.basis is Basis.M:
        table = _m_in_p_table(f.degree)
        vectors = ((table[lam], c) for lam, c in f.terms.items())
    elif f.basis is Basis.H:
        vectors = ((_h_in_p(lam), c) for lam, c in f.terms.items())
    elif f.basis is Basis.E:
        vectors = ((_e_in_p(lam), c) for lam, c in f.terms.items())
    else:
        vectors = ((_s_in_p(lam), c) for lam, c in f.terms.items())
    out: dict[Partition, Fraction] = {}
    for vec, c in vectors:
        for rho, d in vec.items():
            out[rho] = out.get(rho, Fraction(0)) + c * d
    return {rho: c for rho, c in out.items() if c != 0}


def _pair_p(pvec: dict, other: dict) -> Fraction:
    """Hall pairing of two power-sum coefficient dicts of equal degree."""
    acc = Fraction(0)
    for rho, c in pvec.items():
        d = other.get(rho)
        if d is not None:
            acc += c * d * z_of(rho)
    return acc


def _from_p_terms(pvec: dict, degree: int, target: Basis) -> dict:
    if target is Basis.P:
        return dict(pvec)
    if target is Basis.M:
        out: dict[Partition, Fraction] = {}
        for rho, c in pvec.items():
            for mu, d in _p_in_m(rho).items():
                out[mu] = out.get(mu, Fraction(0)) + c * d
        return out
    if target is Basis.E:
        pvec = {rho: c * _omega_sign(rho) for rho, c in pvec.items()}
        target = Basis.H
    if target is Basis.H:
        table = _m_in_p_table(degree)
        return {
            mu: coeff
            for mu in enumerate_partitions(degree)
            if (coeff := _pair_p(pvec, table[mu])) != 0
        }
    # Schur: [s_mu] f = <f, s_mu> = sum_nu [h_nu]s_mu * <f, h_nu>, and
    # <f, h_nu> = [m_nu] f by Hall duality.
    mvec = _from_p_terms(pvec, degree, Basis.M)
    return {
        mu: coeff
        for mu in enumerate_partitions(degree)
        if (coeff := sum(c * mvec.get(nu, 0) for nu, c in _s_in_h(mu).items())) != 0
    }


def convert(f: SymFunc, target: Basis) -> SymFunc:
    """Rewrite f in the target basis; an exact bijection on valid inputs."""
    if f.basis is target:
        return f
    return SymFunc(target, f.degree, _from_p_terms(_to_p_terms(f), f.degree, target))


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product of two symmetric functions (degree adds).

    In a multiplicative basis (p, e, h) the product is multiset union of
    index partitions; otherwise both factors are converted to the
    power-sum basis first and the result stays there.
    """
    if f.basis is g.basis and f.basis in (Basis.P, Basis.E, Basis.H):
        basis, fterms, gterms = f.basis, f.terms, g.terms
    else:
        basis = Basis.P
        fterms, gterms = _to_p_terms(f), _to_p_terms(g)
    out: dict[Partition, Fraction] = {}
    for lam, c in fterms.items():
        for mu, d in gterms.items():
            key = union(lam, mu)
            out[key] = out.get(key, Fraction(0)) + c * d
    return SymFunc(basis, f.degree + g.degree, out)


def omega(f: SymFunc) -> SymFunc:
    """The involution sending p_n to (-1)**(n-1) p_n (swaps e and h, conjugates s)."""
    if f.basis is Basis.E:
        return SymFunc(Basis.H, f.degree, f.terms)
    if f.basis is Basis.H:
        return SymFunc(Basis.E, f.degree, f.terms)
    if f.basis is Basis.S:
        return SymFunc(Basis.S, f.degree, {conjugate(lam): c for lam, c in f.terms.items()})
    pvec = _to_p_terms(f)
    pvec = {rho: c * _omega_sign(rho) for rho, c in pvec.items()}
    return SymFunc(f.basis, f.degree, _from_p_terms(pvec, f.degree, f.basis))


def scalar_product(f: SymFunc, g: SymFunc) -> Fraction:
    """Hall inner product; zero when the degrees differ."""
    if f.degree != g.degree:
        return Fraction(0)
    return _pair_p(_to_p_terms(f), _to_p_terms(g))


def kronecker(f: SymFunc, g: SymFunc) -> SymFunc:
    """Internal product, extended bilinearly from p_lam * p_lam = z_lam p_lam."""
    if f.degree != g.degree:
        raise ValueError("kronecker product needs equal degrees")
    fv, gv = _to_p_terms(f), _to_p_terms(g)
    out = {
        rho: c * gv[rho] * z_of(rho)
        for rho, c in fv.items()
        if rho in gv
    }
    result = SymFunc(Basis.P, f.degree, out)
    if f.basis is g.basis:
        return convert(result, f.basis)
    return result


def dim(f: SymFunc) -> Fraction:
    """<f, p_1^n> for homogeneous f of degree n."""
    if f.degree == 0:
        return _to_p_terms(f).get(EMPTY, Fraction(0))
    ones = Partition((1,) * f.degree)
    return _to_p_terms(f).get(ones, Fraction(0)) * factorial(f.degree)


def principal_specialize(f: SymFunc, k: int) -> Fraction:
    """Substitute x_1 = ... = x_k = 1 and all later variables 0.

    Computed from the monomial expansion: m_lam(1^k) counts the distinct
    arrangements of lam's parts into k slots.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    mvec = convert(f, Basis.M).terms
    acc = Fraction(0)
    for lam, c in mvec.items():
        ell = len(lam)
        if ell > k:
            continue
        ways = factorial(k) // factorial(k - ell)
        for m in lam.multiplicities().values():
            ways //= factorial(m)
        acc += c * ways
    return acc
