"""Truncated formal power series over exact rationals.

A ``Series`` of precision N stores exactly the coefficients of t^0..t^N.
Coefficients beyond N are unknown, not zero: reading one raises
``PrecisionError`` and arithmetic truncates to the shortest operand.
Nothing is ever silently zero-padded, so identity and positivity checks
can only see coefficients that were really computed.

The seed-file format also lives here: a JSON array of rationals written
as "p/q" strings, index = power of t, entry 0 equal to "1".
"""

import json
from fractions import Fraction

from .errors import ConsistencyError, PrecisionError


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(x: Fraction, always_slash: bool = False) -> str:
    """Canonical "p/q" with q > 0 and gcd(p, q) = 1.

    Integers drop the "/1" unless ``always_slash`` is set (the JSON
    schemas keep it for uniformity).
    """
    x = _frac(x)
    if x.denominator == 1 and not always_slash:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Series:
    """Coefficients a_0..a_N of a truncated power series, all exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(_frac(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs = coeffs

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if n > self.precision:
            raise PrecisionError(
                f"coefficient {n} requested beyond stored precision {self.precision}"
            )
        return self.coeffs[n]

    def truncate(self, n: int) -> "Series":
        if n > self.precision:
            raise PrecisionError(
                f"cannot extend precision {self.precision} to {n}"
            )
        return Series(self.coeffs[: n + 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Series([{', '.join(rat_str(c) for c in self.coeffs)}])"


def mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated to the common precision of the operands."""
    n = min(f.precision, g.precision)
    out = [
        sum((f.coeffs[k] * g.coeffs[m - k] for k in range(m + 1)), Fraction(0))
        for m in range(n + 1)
    ]
    return Series(out)


def power(f: Series, k: int) -> Series:
    """f(t)**k at the precision of f (k = 0 gives the constant series 1)."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    out = Series([Fraction(1)] + [Fraction(0)] * f.precision)
    for _ in range(k):
        out = mul(out, f)
    return out


def inverse(f: Series) -> Series:
    """Multiplicative inverse; requires constant term 1."""
    if f.coeffs[0] != 1:
        raise ValueError("inverse needs constant term 1")
    g = [Fraction(1)]
    for n in range(1, f.precision + 1):
        g.append(-sum((f.coeffs[k] * g[n - k] for k in range(1, n + 1)), Fraction(0)))
    return Series(g)


def log_series(f: Series) -> Series:
    """Formal logarithm of a series with constant term 1."""
    if f.coeffs[0] != 1:
        raise ValueError("log needs constant term 1")
    c = [Fraction(0)]
    for n in range(1, f.precision + 1):
        acc = sum((j * c[j] * f.coeffs[n - j] for j in range(1, n)), Fraction(0))
        c.append(f.coeffs[n] - acc / n)
    return Series(c)


def exp_series(f: Series) -> Series:
    """Formal exponential of a series with constant term 0."""
    if f.coeffs[0] != 0:
        raise ValueError("exp needs constant term 0")
    g = [Fraction(1)]
    for n in range(1, f.precision + 1):
        acc = sum((j * f.coeffs[j] * g[n - j] for j in range(1, n + 1)), Fraction(0))
        g.append(acc / n)
    return Series(g)


def negate_arg(f: Series) -> Series:
    """f(-t): multiply coefficient n by (-1)**n."""
    return Series([c if n % 2 == 0 else -c for n, c in enumerate(f.coeffs)])


def decimate(f: Series, d: int) -> Series:
    """Keep every d-th coefficient: output coefficient n is input coefficient d*n."""
    if d < 1:
        raise ValueError("decimation step must be positive")
    return Series(f.coeffs[::d])


# ---------------------------------------------------------------------------
# Polynomials in u (tuples of Fractions, index = power of u).

Poly = tuple  # tuple[Fraction, ...]; () is the zero polynomial


def poly_trim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(Fraction(x) for x in c)


def poly_div_one_plus_u(p: Poly) -> Poly:
    """Exact quotient p(u) / (1 + u); nonzero remainder is an internal bug."""
    if not p:
        return ()
    q = [Fraction(0)] * (len(p) - 1)
    carry = Fraction(0)
    for k in range(len(p) - 1, 0, -1):
        q[k - 1] = p[k] - carry
        carry = q[k - 1]
    if p[0] - carry != 0:
        raise ConsistencyError(f"polynomial {p!r} is not divisible by 1+u")
    return poly_trim(q)


# ---------------------------------------------------------------------------
# Seed files.


def load_seed_series(path) -> Series:
    """Load a seed file (JSON array of "p/q" strings; entry 0 must be "1")."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed seed file {path}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ValueError(f"malformed seed file {path}: expected a nonempty JSON array")
    try:
        coeffs = [_frac(entry) for entry in data]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed seed file {path}: {exc}") from exc
    if coeffs[0] != 1:
        raise ValueError(f"seed file {path}: constant term must be 1")
    return Series(coeffs)


def dump_seed_series(f: Series) -> str:
    """Serialize a series in the seed-file format."""
    return json.dumps([rat_str(c, always_slash=True) for c in f.coeffs])
