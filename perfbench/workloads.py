"""Op menus of the three benchmark workloads and the seeded op generator.

An op is the argument list of one ``python -m sproutsym.cli`` process.
Each workload is a fixed list of slots.  A slot fixes what decides an
op's cost (subcommand, degree, basis, minor order, decimation) and
leaves the catalog seed open where several seeds cost about the same;
the workload seed picks that catalog seed and the order the ops run in.
So two workload seeds give different inputs but the same amount of work,
and runs with different seeds can be compared.

No op passes ``--jobs``: the thread pool behind it may be removed.
"""

import random
from math import comb

# Every catalog seed the CLI knows by name.
CATALOG = (
    "one_plus_t",
    "geom",
    "qfn",
    "exp",
    "subset_exp(1,2)",
    "secsqrt",
    "l_genus",
    "ahat",
)

# expand: (basis, n).  Cost is building the symfunc transition tables of
# degree n, which does not depend on the seed.  The m ops convert nothing
# and are controls for seed construction plus JSON output.  n = 13 and 14
# run in h only, so that two rounds fit in one run; n = 16 is left out
# because a single op takes more than 25 s.
EXPAND_SLOTS = (
    ("h", 12), ("s", 12), ("e", 12), ("p", 12),
    ("h", 13),
    ("h", 14),
    ("m", 12), ("m", 13), ("m", 14),
)

# minors: (minor order, degree, decimate, seeds to draw from).  QUIET seeds
# report no or a handful of violations, so the workload seed draws one of
# them.  At order 4 they differ in cost by up to a half (secsqrt the
# most, then exp and subset_exp), so those slots draw from the three
# that cost the same and every workload seed gives the same work.
# l_genus and ahat list 1 to 2.2 MB of violations as JSON, so listing
# cost shows next to sweep cost; their outputs differ in size, so both
# always run rather than being drawn.  The decimated ahat seed has no
# violations, so only l_genus runs decimated.
QUIET = ("secsqrt", "geom", "exp", "qfn", "one_plus_t", "subset_exp(1,2)")
QUIET4 = ("geom", "qfn", "one_plus_t")
MINOR_SLOTS = (
    (3, 9, 1, QUIET),
    (3, 12, 2, QUIET),
    (4, 10, 1, QUIET4),
    (4, 10, 2, QUIET4),
    (3, 12, 1, ("l_genus",)),
    (3, 12, 1, ("ahat",)),
    (4, 10, 1, ("l_genus",)),
    (4, 10, 1, ("ahat",)),
    (4, 10, 2, ("l_genus",)),
)

# verify: suites at nmax near their defaults, oracle ops and special ops.
# Only the special ops take a seed; every catalog seed costs the same there.
VERIFY_FIXED = (
    ("verify", "--suite", "rp", "--nmax", "5"),
    ("verify", "--suite", "m-expansion", "--nmax", "4"),
    ("verify", "--suite", "m-expansion", "--nmax", "5"),
    ("verify", "--suite", "schur-skew", "--nmax", "8"),
    ("verify", "--suite", "routes", "--nmax", "8"),
    ("verify", "--suite", "omega", "--nmax", "8"),
    ("verify", "--suite", "h-specials", "--nmax", "8"),
    ("verify", "--suite", "kronecker", "--nmax", "5"),
    ("verify", "--suite", "uio", "--nmax", "4"),
    ("oracle", "--op", "rp-hist", "--n", "4"),
    ("oracle", "--op", "rp-hist", "--n", "5"),
    ("oracle", "--op", "alt-count", "--n", "9"),
    ("oracle", "--op", "alt-count", "--n", "10"),
    ("oracle", "--op", "alt-count", "--n", "11"),
    ("oracle", "--op", "cyc-alt", "--n", "4"),
    ("oracle", "--op", "cyc-alt", "--n", "5"),
    ("oracle", "--op", "syt", "--outer", "5,4,3", "--inner", "2,1", "--brute"),
    ("oracle", "--op", "syt", "--outer", "5,4,3,2", "--inner", "3,1", "--brute"),
    ("oracle", "--op", "syt", "--outer", "4,3,3,2", "--brute"),
    ("oracle", "--op", "uio", "--n", "4"),
    ("oracle", "--op", "claw-check"),
)
SPECIAL_SLOTS = (
    ("--op", "sn", "--nmax", "8"),
    ("--op", "ones", "--k", "3", "--nmax", "8"),
    ("--op", "hk", "--k", "2", "--nmax", "4"),
    ("--op", "hpair", "--i", "3", "--j", "2"),
    ("--op", "hooks", "--n", "6"),
)

WORKLOADS = ("expand", "minors", "verify")


def _expand_op(seed, basis, n):
    return ("expand", "--seed", seed, "--n", str(n), "--basis", basis, "--format", "json")


def _minors_op(seed, order, degree, decimate):
    return (
        "positivity", "--seed", seed, "--minor-order", str(order),
        "--degree", str(degree), "--decimate", str(decimate),
    )


def _slots(workload: str) -> list:
    """(catalog seeds to draw from, op builder) per slot of a round.

    A fixed op has no seeds to draw from and ignores the builder argument.
    """
    if workload == "expand":
        return [
            (CATALOG, lambda s, b=b, n=n: _expand_op(s, b, n)) for b, n in EXPAND_SLOTS
        ]
    if workload == "minors":
        return [
            (seeds, lambda s, o=o, d=d, x=x: _minors_op(s, o, d, x))
            for o, d, x, seeds in MINOR_SLOTS
        ]
    if workload == "verify":
        return [(None, lambda _, op=op: op) for op in VERIFY_FIXED] + [
            (CATALOG, lambda s, rest=rest: ("special", "--seed", s, *rest))
            for rest in SPECIAL_SLOTS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def draw_round(workload: str, rng: random.Random) -> list:
    """One round of ops: every slot once, catalog seeds drawn from rng."""
    return [
        build(None if seeds is None else rng.choice(seeds))
        for seeds, build in _slots(workload)
    ]


def all_ops(workload: str) -> list:
    """Every op any workload seed can draw, for the reference table."""
    return [
        build(s) for seeds, build in _slots(workload) for s in (seeds or (None,))
    ]


def op_key(op) -> str:
    return " ".join(op)


def minors_indexed(op) -> int:
    """Minors a positivity op must account for, from its arguments alone.

    All r x r minors with row and column indices in 0..degree, r up to
    the minor order.
    """
    if op[0] != "positivity":
        return 0
    args = dict(zip(op[1::2], op[2::2]))
    order, degree = int(args["--minor-order"]), int(args["--degree"])
    return sum(comb(degree + 1, r) ** 2 for r in range(1, min(order, degree + 1) + 1))
