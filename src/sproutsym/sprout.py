"""Sprout sequences: symmetric functions grown from a seed power series.

A seed F(t) = 1 + a_1 t + a_2 t^2 + ... generates the sequence R_0 = 1,
R_1, R_2, ... through prod_i F(x_i t) = sum_n R_n t^n.  Three redundant
construction routes are implemented so that disagreement localizes bugs:

* the monomial route      [m_lam] R_n = a_{lam_1} a_{lam_2} ...
* the power-sum route     [p_lam] R_n = b_{lam_1} b_{lam_2} ... / z_lam
* the hom route           [b_lam] R_n = phi(dual of b_lam), where phi is
  the algebra map sending h_k to a_k: Jacobi-Trudi for s, and for h
  (and e, on the omega seed) a recurrence over partitions in which phi
  meets only power sums and monomials; neither touches ``convert``.
  Both are memoized on the seed and recurse at most l(lam) deep, and
  ``schur_coeff`` reads the s one.

Here b_n are the log coefficients, log F(t) = sum_n b_n t^n / n; they are
derived once at seed construction.

Every ``special_*`` operation evaluates both its closed form and the
generic coefficient extraction and raises ConsistencyError if the two
disagree, rather than returning a silently wrong value.
"""

from fractions import Fraction
from math import factorial, prod

from .errors import ConsistencyError, PrecisionError
from .partitions import enumerate_partitions, multiplicities, partition, z_of
from .series import (
    Poly,
    Series,
    exp_series,
    inverse,
    log_series,
    negate_arg,
    poly_div_one_plus_u,
    poly_trim,
)
from .series import decimate as series_decimate
from .symfunc import (
    Basis,
    SymFunc,
    basis_element,
    convert,
    kronecker,
    principal_specialize,
    scale,
)


class Seed:
    """A seed series together with its derived log coefficients.

    ``a`` holds the series coefficients (a_0 = 1 enforced); ``b[n]`` is
    n times the n-th log coefficient, with the convention b[0] = 1.
    ``_memo`` maps "s" and "h" to the hom route's memos (partition ->
    ``_schur`` or ``_hom`` value), and "omega" to the omega seed.
    """

    __slots__ = ("a", "b", "name", "_memo")

    def __init__(self, a: Series, name: str | None = None):
        if a.coeff(0) != 1:
            raise ValueError("seed series must have constant term 1")
        log = log_series(a)
        self.a = a
        self.b = tuple(
            Fraction(1) if n == 0 else n * log.coeff(n)
            for n in range(a.precision + 1)
        )
        self.name = name
        self._memo = {"s": {(): Fraction(1)}, "h": {(): Fraction(1)}}

    @property
    def precision(self) -> int:
        return self.a.precision

    def a_coeff(self, k: int) -> Fraction:
        """a_k, with a_k = 0 for k < 0 (the Toeplitz/determinant convention)."""
        if k < 0:
            return Fraction(0)
        return self.a.coeff(k)

    def b_coeff(self, n: int) -> Fraction:
        if n < 0 or n > self.precision:
            raise PrecisionError(f"b_{n} beyond seed precision {self.precision}")
        return self.b[n]

    def __repr__(self) -> str:
        label = self.name or "seed"
        return f"Seed({label}, precision {self.precision})"


def _check_degree(seed: Seed, n: int) -> None:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > seed.precision:
        raise PrecisionError(f"degree {n} beyond seed precision {seed.precision}")


def sprout_m(seed: Seed, n: int) -> SymFunc:
    """R_n in the monomial basis: [m_lam] R_n = prod a_{lam_i}."""
    _check_degree(seed, n)
    terms = {}
    for lam in enumerate_partitions(n):
        c = prod((seed.a_coeff(part) for part in lam), start=Fraction(1))
        if c != 0:
            terms[lam] = c
    return SymFunc(Basis.M, n, terms)


def sprout_p(seed: Seed, n: int) -> SymFunc:
    """R_n in the power-sum basis: [p_lam] R_n = prod b_{lam_i} / z_lam."""
    _check_degree(seed, n)
    terms = {}
    for lam in enumerate_partitions(n):
        c = prod((seed.b_coeff(part) for part in lam), start=Fraction(1))
        if c != 0:
            terms[lam] = c / z_of(lam)
    return SymFunc(Basis.P, n, terms)


def schur_coeff(seed: Seed, lam) -> Fraction:
    """<R_n, s_lam> = det[a_{lam_i - i + j}], read from the seed's Schur memo."""
    lam = partition(lam)
    _check_degree(seed, sum(lam))
    return _schur(seed, seed._memo["s"], lam)


def phi_hom(seed: Seed, f: SymFunc) -> Fraction:
    """The algebra homomorphism h_k -> a_k, applied to any symmetric function."""
    _check_degree(seed, f.degree)
    hvec = convert(f, Basis.H)
    acc = Fraction(0)
    for lam, c in hvec.terms.items():
        acc += c * prod((seed.a_coeff(part) for part in lam), start=Fraction(1))
    return acc


def _schur(seed: Seed, memo: dict, lam) -> Fraction:
    """det[a_{lam_i - i + j}] expanded along its last column, memoized in memo.

    Deleting row i and the last column leaves the Jacobi-Trudi matrix of
    mu = (lam_1, ..., lam_{i-1}, lam_{i+1} - 1, ..., lam_l - 1); trailing
    zero parts add a unitriangular block, so they are dropped.  mu has
    one part fewer than lam, so the recursion is at most l(lam) deep.
    """
    value = memo.get(lam)
    if value is None:
        ell, value = len(lam), Fraction(0)
        for i, part in enumerate(lam):
            a = seed.a_coeff(part + ell - 1 - i)
            if a:
                mu = lam[:i] + tuple(p - 1 for p in lam[i + 1 :] if p > 1)
                term = a * _schur(seed, memo, mu)
                value += -term if (ell - 1 - i) % 2 else term
        memo[lam] = value
    return value


def _hom(seed: Seed, memo: dict, nu) -> Fraction:
    """phi(m~_nu) for the augmented monomial m~_nu = m_nu * prod_i m_i(nu)!.

    With k the smallest part and nu = mu + (k), p_k m~_mu = m~_nu +
    sum_r m~_{mu + k e_r} over the positions r of mu, and phi(p_k) = b_k.
    Every partition read has one part fewer than nu, so the recursion is
    at most l(nu) deep.  Memoized in memo.
    """
    value = memo.get(nu)
    if value is None:
        k, mu = nu[-1], nu[:-1]
        value = seed.b_coeff(k) * _hom(seed, memo, mu)
        for r, part in enumerate(mu):
            grown = sorted(mu[:r] + (part + k,) + mu[r + 1 :], reverse=True)
            value -= _hom(seed, memo, tuple(grown))
        memo[nu] = value
    return value


def expansion_in(seed: Seed, n: int, basis: Basis) -> SymFunc:
    """R_n in any basis, with no transition table.

    m and p are the closed forms.  s is the Jacobi-Trudi determinant
    det[a_{lam_i - i + j}], expanded along its last column into smaller
    shapes (``_schur``, which ``schur_coeff`` also reads).  Since R_n =
    sum_nu phi(m_nu) h_nu by the Cauchy identity, h is phi on augmented
    monomials (``_hom``), and e is h on the omega seed 1/F(-t).  Both
    memos live on the seed, so a sweep computes each partition once.
    Agrees exactly with converting the monomial route.
    """
    _check_degree(seed, n)
    if basis is Basis.M:
        return sprout_m(seed, n)
    if basis is Basis.P:
        return sprout_p(seed, n)
    if basis is Basis.S:
        memo = seed._memo["s"]
        terms = {lam: _schur(seed, memo, lam) for lam in enumerate_partitions(n)}
        return SymFunc(basis, n, terms)
    if basis is Basis.E:
        if "omega" not in seed._memo:
            seed._memo["omega"] = omega_seed(seed)
        seed = seed._memo["omega"]
    memo = seed._memo["h"]
    terms = {
        nu: _hom(seed, memo, nu)
        / prod(factorial(m) for m in multiplicities(nu).values())
        for nu in enumerate_partitions(n)
    }
    return SymFunc(basis, n, terms)


def omega_seed(seed: Seed) -> Seed:
    """Seed of the omega-transformed sequence: 1 / F(-t)."""
    name = f"omega({seed.name})" if seed.name else None
    return Seed(inverse(negate_arg(seed.a)), name=name)


def decimate_seed(seed: Seed, d: int) -> Seed:
    """Seed with series sum_n a_{dn} t^n; log coefficients are rebuilt from scratch."""
    name = f"decimate({seed.name},{d})" if seed.name else None
    return Seed(series_decimate(seed.a, d), name=name)


def _consistent(label: str, closed, generic):
    if closed != generic:
        raise ConsistencyError(
            f"{label}: closed form {closed!r} != generic extraction {generic!r}"
        )
    return closed


def special_sn(seed: Seed, n_max: int) -> Series:
    """Series of [s_n] R_n, which reproduces the seed itself.

    Cross-checked against the sum of the h-expansion coefficients of R_n.
    """
    _check_degree(seed, n_max)
    closed = [seed.a_coeff(n) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        hsum = sum(convert(sprout_m(seed, n), Basis.H).terms.values(), Fraction(0))
        _consistent(f"[s_{n}]R_{n}", closed[n], hsum)
    return Series(closed)


def special_hk_series(seed: Seed, k: int, n_max: int) -> Series:
    """Series whose n-th coefficient is [h_k^n] R_{kn} (h_k^n = the n-th power).

    Closed form: 1 / (F(-t) with each log coefficient b_i replaced by
    b_{ki}), the substitution applied at the log level.  The n = 1
    coefficient gives [h_k] R_k = b_k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    _check_degree(seed, k * n_max)
    sub_log = Series(
        [Fraction(0)]
        + [
            Fraction(-1 if n % 2 else 1) * seed.b_coeff(k * n) / n
            for n in range(1, n_max + 1)
        ]
    )
    closed = inverse(exp_series(sub_log))
    for n in range(n_max + 1):
        generic = convert(sprout_m(seed, k * n), Basis.H).coeff((k,) * n)
        _consistent(f"[h_{k}^{n}]R_{k * n}", closed.coeff(n), generic)
    return closed


def special_h_pair(seed: Seed, i: int, j: int) -> Fraction:
    """[h_i h_j] R_{i+j} by the closed form b_i b_j - b_n (halved when i = j)."""
    if i < 1 or j < 1:
        raise ValueError("indices must be positive")
    n = i + j
    _check_degree(seed, n)
    if i != j:
        closed = seed.b_coeff(i) * seed.b_coeff(j) - seed.b_coeff(n)
    else:
        closed = (seed.b_coeff(i) ** 2 - seed.b_coeff(n)) / 2
    generic = convert(sprout_m(seed, n), Basis.H).coeff((max(i, j), min(i, j)))
    return _consistent(f"[h_{i}h_{j}]R_{n}", closed, generic)


def special_ones(seed: Seed, n_max: int, k: int) -> Series:
    """Series of R_n(1^k), which equals F(t)^k coefficientwise.

    Closed form: F(t)^k = exp(k log F(t)) = exp(k sum_n b_n t^n / n), read
    from the seed's log coefficients, so neither side costs more as k
    grows.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_degree(seed, n_max)
    closed = exp_series(
        Series([Fraction(0)] + [k * seed.b[n] / n for n in range(1, n_max + 1)])
    )
    for n in range(n_max + 1):
        generic = principal_specialize(sprout_m(seed, n), k)
        _consistent(f"R_{n}(1^{k})", closed.coeff(n), generic)
    return closed


def _hook(n: int, k: int) -> tuple:
    """The hook partition (n-k, 1^k) of n."""
    return (n - k,) + (1,) * k


def _hook_numerator(seed: Seed, n: int) -> Poly:
    """P_n(u) = [t^n] F(t)/F(-ut) = sum_j a_{n-j} g_j u^j, g = 1/F(-t)."""
    g = inverse(negate_arg(seed.a.truncate(n)))
    return poly_trim([seed.a_coeff(n - j) * g.coeff(j) for j in range(n + 1)])


def special_hooks(seed: Seed, n: int) -> Poly:
    """P_n(u) / (1+u) where F(t)/F(-ut) = sum P_n(u) t^n.

    Since 1/F(-ut) = sum_j g_j u^j t^j with g = 1/F(-t), the seed that
    ``omega_seed`` builds, P_n(u) = sum_j a_{n-j} g_j u^j: one product of
    two series.  The quotient's u^k coefficient is the hook Schur
    coefficient [s_{(n-k,1^k)}] R_n; failure to divide exactly by 1+u
    would mean an arithmetic bug, not a property of the seed (F(t)/F(t)
    = 1 gives P_n(-1) = 0 for n >= 1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_degree(seed, n)
    closed = poly_div_one_plus_u(_hook_numerator(seed, n))
    generic = poly_trim([schur_coeff(seed, _hook(n, k)) for k in range(n)])
    return _consistent(f"P_{n}(u)/(1+u)", closed, generic)


def kronecker_hom_check(seed: Seed, n: int) -> tuple:
    """The power sums rho |- n with R_n * p_rho != b_rho p_rho, in table order.

    The internal product with R = sum_n R_n is the algebra map p_k ->
    b_k p_k (Macdonald I.7), so R_n * p_rho = b_rho p_rho with b_rho =
    prod b_{rho_i}.  R_n is read from the monomial route and converted to
    p once, so the power-sum route's own b_rho / z_rho cannot make the
    check pass by construction.  An empty tuple means every rho passed.
    """
    _check_degree(seed, n)
    r_n = convert(sprout_m(seed, n), Basis.P)
    failed = []
    for rho in enumerate_partitions(n):
        p_rho = basis_element(Basis.P, rho)
        b_rho = prod((seed.b_coeff(part) for part in rho), start=Fraction(1))
        if kronecker(r_n, p_rho) != scale(p_rho, b_rho):
            failed.append(rho)
    return tuple(failed)
