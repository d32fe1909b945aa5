"""Symmetric functions of fixed homogeneous degree in the m, p, e, h, s bases.

The power-sum basis P is the pivot.  Three cached tables hold integer
rows, read forward as a linear combination of rows or backward by one
Hall pairing (``_pairings``) of a vector with every row:

* p_rho in m, by multiplying out power sums: p -> m forward, and h -> p
  backward, since [p_rho] h_mu = [m_mu] p_rho / z_rho (Macdonald I.4).
* p_rho in h, by Newton's identity p_n = n h_n - sum_{i<n} h_{n-i} p_i
  (Macdonald I.2): p -> h forward, and m -> p backward, since
  <m_mu, p_rho> = [h_mu] p_rho.
* h_mu in s, the Kostka numbers K_lam,mu, by Pieri's rule (Macdonald
  I.5-I.6): s -> m backward, since [m_mu] s_lam = <s_lam, h_mu>, and
  m -> s by a unitriangular solve, so s and m need no pivot.
* e rides the omega involution: p_rho -> (-1)**(|rho| - len(rho)) p_rho
  sends h_lam to e_lam.

Table values are ints and coefficients Fractions, so round trips are
exact equalities, not approximations.  A conversion brings its input's
coefficients over their lcm denominator, sums table rows in ints and
builds one Fraction per output coefficient.  Partitions are plain weakly
decreasing tuples throughout; the tables build theirs by sorting and
slicing, and ``SymFunc.__init__`` checks every key it is given.
"""

from enum import Enum
from fractions import Fraction
from functools import cache
from math import factorial, lcm, perm

from .partitions import conjugate, enumerate_partitions, multiplicities, partition, z_of
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
        clean: dict[tuple, Fraction] = {}
        for lam, c in dict(terms).items():
            lam = partition(lam)
            c = Fraction(c)
            if sum(lam) != degree:
                raise ValueError(f"partition {lam!r} does not have size {degree}")
            if c != 0:
                clean[lam] = c
        self.basis = basis
        self.degree = degree
        self.terms = clean

    def coeff(self, lam) -> Fraction:
        return self.terms.get(partition(lam), Fraction(0))

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
                {"partition": list(lam), "coeff": rat_str(c, always_slash=True)}
                for lam, c in self.items_canonical()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SymFunc":
        terms = {
            partition(entry["partition"]): Fraction(entry["coeff"])
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
    lam = partition(lam)
    return SymFunc(basis, sum(lam), {lam: Fraction(1)})


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


def _over_lcm(coeffs) -> tuple[list, int]:
    """Integer numerators of the rationals coeffs over their lcm denominator."""
    coeffs = list(coeffs)
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _lincomb(vectors) -> dict:
    """Sum of c * vec over the (vec, c) pairs, zero coefficients dropped.

    The coefficients c are brought over one common denominator and each key
    is divided once, so integer rows, such as the tables', are summed in
    ints; with denominator 1 they give int values.
    """
    vectors = list(vectors)
    nums, den = _over_lcm(c for _, c in vectors)
    out: dict = {}
    for (vec, _), c in zip(vectors, nums):
        for key, d in vec.items():
            out[key] = out.get(key, 0) + c * d
    if den == 1:
        return {key: c for key, c in out.items() if c}
    return {key: Fraction(c, den) for key, c in out.items() if c}


def _union_product(f: dict, g: dict) -> dict:
    """Product of two expansions in a multiplicative basis (p, e or h).

    Index partitions multiply by multiset union; for a fixed lam the map
    mu -> lam + mu is injective, so each term of f contributes one vector.
    """
    return _lincomb(
        ({tuple(sorted(lam + mu, reverse=True)): d for mu, d in g.items()}, c)
        for lam, c in f.items()
    )


def _mul_m_by_p(mvec: dict, r: int) -> dict:
    """Multiply a monomial-basis expansion by the power sum p_r.

    For each term m_mu, the product redistributes over partitions nu
    obtained by growing one part of mu by r or appending a new part r;
    the coefficient picked up is the multiplicity of the grown value
    in nu.  Parts of mu are sorted, so equal parts are neighbours and each
    value is grown once.
    """
    out: dict[tuple, int] = {}
    for mu, c in mvec.items():
        for i, s in enumerate(mu):
            if i and mu[i - 1] == s:
                continue
            nu = tuple(sorted(mu[:i] + (s + r,) + mu[i + 1 :], reverse=True))
            out[nu] = out.get(nu, 0) + c * nu.count(s + r)
        nu = tuple(sorted(mu + (r,), reverse=True))
        out[nu] = out.get(nu, 0) + c * nu.count(r)
    return {lam: c for lam, c in out.items() if c != 0}


@cache
def _p_in_m(lam: tuple) -> dict:
    """Expansion of p_lam in the monomial basis (integer coefficients)."""
    if not lam:
        return {(): 1}
    return _mul_m_by_p(_p_in_m(lam[1:]), lam[0])


@cache
def _p_in_h(lam: tuple) -> dict:
    """Expansion of p_lam in the complete homogeneous basis (integer coefficients).

    Newton's identity n h_n = sum_{i=1..n} p_i h_{n-i} gives
    p_n = n h_n - sum_{i<n} h_{n-i} p_i, and p_lam is the h-product of
    its parts.
    """
    if not lam:
        return {(): 1}
    n = lam[0]
    if len(lam) > 1:
        return _union_product(_p_in_h((n,)), _p_in_h(lam[1:]))
    lower = (
        (_union_product({(n - i,): 1}, _p_in_h((i,))), -1) for i in range(1, n)
    )
    return _lincomb([({(n,): n}, 1), *lower])


def _omega_signs(vec: dict) -> dict:
    """omega on power-sum coefficients: p_rho -> (-1)**(|rho| - len(rho)) p_rho."""
    return {rho: -c if (sum(rho) - len(rho)) % 2 else c for rho, c in vec.items()}


@cache
def _strips(lam: tuple, r: int) -> tuple:
    """Partitions nu with nu / lam a horizontal strip of r boxes.

    One new box per column at most: lam_i <= nu_i <= lam_{i-1} in every
    row, with row 0 unbounded above and one new row below lam, which is
    cut off when it stays empty.
    """
    rows = (*lam, 0)
    states = [((), r)]
    for row, top in zip(rows, (rows[0] + r, *lam)):
        states = [
            (nu + (row + k,), left - k)
            for nu, left in states
            for k in range(min(left, top - row) + 1)
        ]
    return tuple(nu if nu[-1] else nu[:-1] for nu, left in states if left == 0)


@cache
def _h_in_s(mu: tuple) -> dict:
    """Expansion of h_mu in the Schur basis: {lam: K_lam,mu} (Kostka numbers).

    Pieri's rule adds a horizontal strip of mu_1 boxes to every shape of
    h_{mu_2, mu_3, ...}.
    """
    if not mu:
        return {(): 1}
    rest = _h_in_s(mu[1:])
    return _lincomb((dict.fromkeys(_strips(lam, mu[0]), 1), c) for lam, c in rest.items())


def _pairings(table, vec: dict, degree: int) -> dict:
    """<f, X_key> = sum_mu vec[mu] * table(key)[mu] for each key |- degree.

    table(key) expands X_key in a basis, vec holds f in the dual basis
    (m and h are dual, s is self-dual), and zero pairings are dropped.
    The pairings are summed in ints over the lcm of vec's denominators and
    come back as Fractions.
    """
    nums, den = _over_lcm(vec.values())
    ivec = dict(zip(vec, nums))
    out = {}
    for key in enumerate_partitions(degree):
        row = table(key)
        acc = sum(c * row[mu] for mu, c in ivec.items() if mu in row)
        if acc:
            out[key] = Fraction(acc, den)
    return out


def _m_to_s(mvec: dict, degree: int) -> dict:
    """Schur coefficients c of f = sum_mu mvec[mu] m_mu.

    [m_mu] f = sum_lam c_lam K_lam,mu with K_mu,mu = 1 and K_lam,mu = 0
    unless lam dominates mu.  Dominance implies reverse-lex precedence, so
    in that order c_mu is [m_mu] f minus c_lam K_lam,mu over the shapes
    lam != mu already solved.  The solve runs in ints over the lcm of
    mvec's denominators, which the unitriangular K keeps exact.
    """
    nums, den = _over_lcm(mvec.values())
    ivec = dict(zip(mvec, nums))
    out: dict = {}
    for mu in enumerate_partitions(degree):
        solved = sum(out[lam] * k for lam, k in _h_in_s(mu).items() if lam in out)
        c = ivec.get(mu, 0) - solved
        if c:
            out[mu] = c
    return {mu: Fraction(c, den) for mu, c in out.items()}


def _to_p_terms(f: SymFunc) -> dict:
    """Coefficient dict of f in the power-sum basis: <f, p_rho> / z_rho.

    The pairing reads p_rho in h for an m-vector and p_rho in m for an
    h-vector; e goes through omega and s through its m-expansion.
    """
    if f.basis is Basis.P:
        return dict(f.terms)
    vec = f.terms
    if f.basis is Basis.S:
        vec = _pairings(_h_in_s, vec, f.degree)
    table = _p_in_m if f.basis in (Basis.H, Basis.E) else _p_in_h
    pvec = {rho: c / z_of(rho) for rho, c in _pairings(table, vec, f.degree).items()}
    return _omega_signs(pvec) if f.basis is Basis.E else pvec


def _from_p_terms(pvec: dict, degree: int, target: Basis) -> dict:
    if target is Basis.P:
        return dict(pvec)
    if target is Basis.E:
        pvec = _omega_signs(pvec)
    if target in (Basis.H, Basis.E):
        return _lincomb((_p_in_h(rho), c) for rho, c in pvec.items())
    mvec = _lincomb((_p_in_m(rho), c) for rho, c in pvec.items())
    return mvec if target is Basis.M else _m_to_s(mvec, degree)


def convert(f: SymFunc, target: Basis) -> SymFunc:
    """Rewrite f in the target basis; an exact bijection on valid inputs."""
    if f.basis is target:
        return f
    if f.basis is Basis.M and target is Basis.S:
        terms = _m_to_s(f.terms, f.degree)
    elif f.basis is Basis.S and target is Basis.M:
        terms = _pairings(_h_in_s, f.terms, f.degree)
    else:
        terms = _from_p_terms(_to_p_terms(f), f.degree, target)
    return SymFunc(target, f.degree, terms)


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
    return SymFunc(basis, f.degree + g.degree, _union_product(fterms, gterms))


def omega(f: SymFunc) -> SymFunc:
    """The involution sending p_n to (-1)**(n-1) p_n (swaps e and h, conjugates s)."""
    if f.basis is Basis.E:
        return SymFunc(Basis.H, f.degree, f.terms)
    if f.basis is Basis.H:
        return SymFunc(Basis.E, f.degree, f.terms)
    if f.basis is Basis.S:
        return SymFunc(Basis.S, f.degree, {conjugate(lam): c for lam, c in f.terms.items()})
    pvec = _omega_signs(_to_p_terms(f))
    return SymFunc(f.basis, f.degree, _from_p_terms(pvec, f.degree, f.basis))


def scalar_product(f: SymFunc, g: SymFunc) -> Fraction:
    """Hall inner product; zero when the degrees differ."""
    if f.degree != g.degree:
        return Fraction(0)
    fv, gv = _to_p_terms(f), _to_p_terms(g)
    return sum(
        (c * gv[rho] * z_of(rho) for rho, c in fv.items() if rho in gv), Fraction(0)
    )


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
    return _to_p_terms(f).get((1,) * f.degree, Fraction(0)) * factorial(f.degree)


def principal_specialize(f: SymFunc, k: int) -> Fraction:
    """Substitute x_1 = ... = x_k = 1 and all later variables 0.

    Computed from the monomial expansion: m_lam(1^k) counts the distinct
    arrangements of lam's parts into k slots, perm(k, l(lam)) / prod_i
    m_i(lam)!, which is 0 when lam has more than k parts; k! is never
    formed.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = Fraction(0)
    for lam, c in convert(f, Basis.M).terms.items():
        ways = perm(k, len(lam))
        for m in multiplicities(lam).values():
            ways //= factorial(m)
        acc += c * ways
    return acc
