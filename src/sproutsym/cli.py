"""Command-line front end.

Subcommands: expand, seeds, verify, positivity, special, oracle.
Exit codes: 0 success, 1 identity violation, 2 usage error, 3 budget or
precision error.  Rationals print as reduced "p/q"; JSON keeps "/1" on
integers for schema uniformity.
"""

import argparse
import gc
import json
import sys
from fractions import Fraction
from math import factorial

from .errors import BudgetError, ConsistencyError, PrecisionError, check_budget
from .oracles import (
    SkewShape,
    alternating_count,
    chromatic_sym,
    claw_graph,
    cyclically_alternating_count,
    piecewise_alt_count,
    rho_shape,
    rp_histogram,
    syt_count_brute,
    syt_count_det,
    uio_sum,
)
from .partitions import enumerate_partitions, multiplicities, partition
from .positivity import (
    decimation_check,
    expansion_positivity,
    minor_count,
    toeplitz_minors,
)
from .seeds import CATALOG, seed_by_name
from .series import Series, rat_str
from .sprout import (
    expansion_in,
    special_h_pair,
    special_hk_series,
    special_hooks,
    special_ones,
    special_sn,
)
from .suites import SUITES, run_checks
from .symfunc import Basis, SymFunc, convert, scale

def _parse_partition(text: str) -> tuple:
    text = text.strip().strip("[]()")
    if not text:
        return ()
    try:
        return partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from exc


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low, checked before any work."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _display_order(f: SymFunc):
    """Table display order: more parts first, then lexicographically larger."""
    return sorted(f.terms, key=lambda lam: (len(lam), lam), reverse=True)


def _render_terms(f: SymFunc, body) -> str:
    """Join body(lam, |c|) over the terms in display order, signs between."""
    pieces = []
    for lam in _display_order(f):
        c = f.terms[lam]
        sign = ("- " if c < 0 else "+ ") if pieces else ("-" if c < 0 else "")
        pieces.append(sign + body(lam, abs(c)))
    return " ".join(pieces) if pieces else "0"


def render_text(f: SymFunc) -> str:
    def body(lam, mag):
        if not lam:
            return rat_str(mag)
        mono = f"{f.basis.value}[{','.join(str(p) for p in lam)}]"
        return mono if mag == 1 else f"{rat_str(mag)}·{mono}"

    return _render_terms(f, body)


def _latex_monomial(basis: Basis, lam: tuple) -> str:
    if basis in (Basis.P, Basis.E, Basis.H):
        factors = []
        for value, mult in sorted(multiplicities(lam).items(), reverse=True):
            factors.append(
                f"{basis.value}_{{{value}}}"
                + (f"^{{{mult}}}" if mult > 1 else "")
            )
        return " ".join(factors)
    return f"{basis.value}_{{{','.join(str(p) for p in lam)}}}"


def render_latex(f: SymFunc) -> str:
    def body(lam, mag):
        if mag.denominator == 1:
            coeff = "" if (mag == 1 and lam) else str(mag.numerator)
        else:
            coeff = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        if not lam:
            return coeff
        mono = _latex_monomial(f.basis, lam)
        return f"{coeff} {mono}" if coeff else mono

    return _render_terms(f, body)


def _emit_json(obj) -> None:
    print(json.dumps(obj))


def _series_text(series: Series) -> str:
    return ", ".join(rat_str(c) for c in series.coeffs)


def _poly_text(poly) -> str:
    if not poly:
        return "0"
    pieces = []
    for k, c in enumerate(poly):
        if c == 0:
            continue
        if k == 0:
            pieces.append(rat_str(c))
        elif k == 1:
            pieces.append(f"{rat_str(c)}·u" if c != 1 else "u")
        else:
            pieces.append(f"{rat_str(c)}·u^{k}" if c != 1 else f"u^{k}")
    return " + ".join(pieces)


# ---------------------------------------------------------------------------
# Subcommand handlers.


def cmd_expand(args) -> int:
    check_budget("precision", args.n)
    seed = seed_by_name(args.seed, args.n)
    f = expansion_in(seed, args.n, Basis.from_letter(args.basis))
    if args.scale == "fact2n":
        f = scale(f, factorial(2 * args.n))
    if args.format == "json":
        _emit_json(f.to_json_obj())
    elif args.format == "latex":
        print(render_latex(f))
    else:
        print(render_text(f))
    return 0


def cmd_seeds(args) -> int:
    if args.action != "list":
        raise ValueError(f"unknown seeds action {args.action!r}")
    width = max(len(name) for name, _ in CATALOG)
    for name, blurb in CATALOG:
        print(f"{name.ljust(width)}  {blurb}")
    return 0


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    checks = run_checks(suite() if args.nmax is None else suite(args.nmax))
    failures = 0
    for name, ok, detail in checks:
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}" if detail else f"FAIL {name}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def cmd_positivity(args) -> int:
    if args.basis is not None and args.nmax is None:
        raise ValueError("--basis needs --nmax")
    check_budget("minors", minor_count(args.minor_order, args.degree))
    precision = max(args.degree * args.decimate, args.nmax or 0)
    check_budget("precision", precision)
    seed = seed_by_name(args.seed, precision)
    if args.decimate > 1:
        report = decimation_check(seed, args.decimate, args.minor_order, args.degree)
    else:
        report = toeplitz_minors(seed, args.minor_order, args.degree)
    report.write_json(sys.stdout)
    sys.stdout.write("\n")
    if args.basis is not None:
        expansion = expansion_positivity(
            seed, args.nmax, Basis.from_letter(args.basis)
        )
        _emit_json(expansion.to_json_obj())
    return 0


def cmd_special(args) -> int:
    def emit_series(series: Series) -> None:
        if args.format == "json":
            _emit_json([rat_str(c, always_slash=True) for c in series.coeffs])
        else:
            print(_series_text(series))

    if args.op == "hk" and args.k < 1:
        raise ValueError(f"argument --k: must be at least 1 for --op hk, got {args.k}")
    degree, budget = {
        "sn": (args.nmax, "conversion degree"),
        "ones": (args.nmax, "special degree"),
        "hk": (args.k * args.nmax, "conversion degree"),
        "hpair": (args.i + args.j, "conversion degree"),
        "hooks": (args.n, "special degree"),
    }[args.op]
    check_budget(budget, degree)
    seed = seed_by_name(args.seed, degree)
    if args.op == "sn":
        emit_series(special_sn(seed, args.nmax))
    elif args.op == "ones":
        emit_series(special_ones(seed, args.nmax, args.k))
    elif args.op == "hk":
        emit_series(special_hk_series(seed, args.k, args.nmax))
    elif args.op == "hpair":
        value = special_h_pair(seed, args.i, args.j)
        if args.format == "json":
            _emit_json(rat_str(value, always_slash=True))
        else:
            print(rat_str(value))
    else:  # hooks
        poly = special_hooks(seed, args.n)
        if args.format == "json":
            _emit_json([rat_str(c, always_slash=True) for c in poly])
        else:
            print(_poly_text(poly))
    return 0


def cmd_oracle(args) -> int:
    op = args.op
    if op == "rp-hist":
        hist = rp_histogram(args.n)
        for lam in enumerate_partitions(args.n):
            print(f"{','.join(str(p) for p in lam) or '-'}  {hist.get(lam, 0)}")
        print(f"total  {sum(hist.values())}")
    elif op == "alt-count":
        print(alternating_count(args.n))
    elif op == "cyc-alt":
        print(cyclically_alternating_count(args.n))
    elif op == "piecewise":
        if args.partition is None:
            raise ValueError("piecewise needs --partition")
        print(piecewise_alt_count(_parse_partition(args.partition)))
    elif op == "rho":
        if args.partition is None:
            raise ValueError("rho needs --partition")
        print(rho_shape(_parse_partition(args.partition)))
    elif op == "syt":
        if args.outer is None:
            raise ValueError("syt needs --outer (and optionally --inner)")
        shape = SkewShape(
            _parse_partition(args.outer),
            _parse_partition(args.inner or ""),
        )
        print(syt_count_brute(shape) if args.brute else syt_count_det(shape))
    elif op == "uio":
        _emit_json(uio_sum(args.n).to_json_obj())
    elif op == "claw-check":
        expansion = convert(chromatic_sym(claw_graph(), 4), Basis.S)
        negatives = [
            (lam, c) for lam, c in expansion.items_canonical() if c < 0
        ]
        if not negatives:
            print("no negative Schur coefficient found", file=sys.stderr)
            return 1
        for lam, c in negatives:
            print(f"negative Schur coefficient: [{','.join(str(p) for p in lam)}] = {rat_str(c)}")
    else:
        raise ValueError(f"unknown oracle op {op!r}")
    return 0


# ---------------------------------------------------------------------------
# Parser.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sproutsym",
        description="Exact sprout sequences of symmetric functions: expansions, "
        "positivity evidence, and brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand R_n of a seed in a chosen basis")
    p_expand.add_argument("--seed", required=True, help="catalog name, name(args), or file:PATH")
    p_expand.add_argument("--n", type=_int_at_least(0), required=True)
    p_expand.add_argument("--basis", choices=["m", "p", "e", "h", "s"], required=True)
    p_expand.add_argument("--scale", choices=["none", "fact2n"], default="none",
                          help="fact2n multiplies by (2n)!")
    p_expand.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p_expand.set_defaults(func=cmd_expand)

    p_seeds = sub.add_parser("seeds", help="seed catalog")
    p_seeds.add_argument("action", choices=["list"])
    p_seeds.set_defaults(func=cmd_seeds)

    p_verify = sub.add_parser("verify", help="run a named identity suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--nmax", type=_int_at_least(1), default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_pos = sub.add_parser("positivity", help="Toeplitz minor sweep and expansion signs")
    p_pos.add_argument("--seed", required=True)
    p_pos.add_argument("--minor-order", type=_int_at_least(1), default=4)
    p_pos.add_argument("--degree", type=_int_at_least(0), default=10)
    p_pos.add_argument("--decimate", type=_int_at_least(1), default=1)
    p_pos.add_argument("--basis", choices=["s", "e", "h"], default=None)
    p_pos.add_argument("--nmax", type=_int_at_least(1), default=None)
    p_pos.set_defaults(func=cmd_positivity)

    p_special = sub.add_parser("special", help="closed-form specializations")
    p_special.add_argument("--seed", required=True)
    p_special.add_argument("--op", choices=["sn", "ones", "hk", "hpair", "hooks"], required=True)
    p_special.add_argument("--nmax", type=_int_at_least(0), default=8)
    p_special.add_argument("--k", type=_int_at_least(0), default=1)
    p_special.add_argument("--i", type=_int_at_least(1), default=1)
    p_special.add_argument("--j", type=_int_at_least(1), default=1)
    p_special.add_argument("--n", type=_int_at_least(1), default=1)
    p_special.add_argument("--format", choices=["text", "json"], default="text")
    p_special.set_defaults(func=cmd_special)

    p_oracle = sub.add_parser("oracle", help="run a brute-force oracle directly")
    p_oracle.add_argument(
        "--op",
        choices=["rp-hist", "alt-count", "cyc-alt", "piecewise", "syt", "rho", "uio", "claw-check"],
        required=True,
    )
    p_oracle.add_argument("--n", type=_int_at_least(0), default=1)
    p_oracle.add_argument("--partition", default=None, help="comma-separated parts, e.g. 3,1,1")
    p_oracle.add_argument("--outer", default=None)
    p_oracle.add_argument("--inner", default=None)
    p_oracle.add_argument("--brute", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (PrecisionError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # Each command is one process whose import-time objects live until exit;
    # frozen, they are left out of every collection, the ones at exit included.
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
