import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import sproutsym
from sproutsym import cli, oracles, sprout, suites
from sproutsym.cli import render_latex, render_text, run
from sproutsym.errors import BUDGETS, BudgetError, ConsistencyError
from sproutsym.positivity import expansion_positivity, toeplitz_minors
from sproutsym.seeds import seed_by_name
from sproutsym.series import dump_seed_series
from sproutsym.symfunc import Basis, SymFunc


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_h_table_row_three(self, capsys):
        code, out, _ = invoke(
            capsys,
            "expand", "--seed", "secsqrt", "--n", "3", "--basis", "h",
            "--scale", "fact2n", "--format", "text",
        )
        assert code == 0
        assert out.strip() == "h[1,1,1] + 12·h[2,1] + 48·h[3]"

    def test_elementary_row(self, capsys):
        code, out, _ = invoke(
            capsys, "expand", "--seed", "one_plus_t", "--n", "5", "--basis", "e"
        )
        assert code == 0
        assert out.strip() == "e[5]"

    def test_h_table_row_four_follows_table_order(self, capsys):
        _, out, _ = invoke(
            capsys,
            "expand", "--seed", "secsqrt", "--n", "4", "--basis", "h",
            "--scale", "fact2n",
        )
        assert out.strip() == (
            "h[1,1,1,1] + 24·h[2,1,1] + 256·h[3,1] + 16·h[2,2] + 1088·h[4]"
        )

    def test_negative_coefficients_render(self, capsys):
        _, out, _ = invoke(
            capsys, "expand", "--seed", "one_plus_t", "--n", "2", "--basis", "h"
        )
        assert out.strip() == "h[1,1] - h[2]"

    def test_negative_leading_term_renders(self):
        f = SymFunc(Basis.H, 3, {(1, 1, 1): -1, (2, 1): Fraction(1, 2), (3,): -4})
        assert render_text(f) == "-h[1,1,1] + 1/2·h[2,1] - 4·h[3]"
        assert render_latex(f) == "-h_{1}^{3} + \\frac{1}{2} h_{2} h_{1} - 4 h_{3}"
        g = SymFunc(Basis.S, 3, {(2, 1): Fraction(-3, 7)})
        assert render_text(g) == "-3/7·s[2,1]"
        assert render_latex(g) == "-\\frac{3}{7} s_{2,1}"

    def test_json_round_trips_byte_identically(self, capsys):
        _, out, _ = invoke(
            capsys,
            "expand", "--seed", "secsqrt", "--n", "4", "--basis", "s",
            "--format", "json",
        )
        line = out.strip()
        assert json.dumps(json.loads(line)) == line
        obj = json.loads(line)
        assert obj["basis"] == "s"
        partitions = [tuple(t["partition"]) for t in obj["terms"]]
        assert partitions == sorted(partitions, reverse=True)  # reverse-lex

    def test_latex(self, capsys):
        _, out, _ = invoke(
            capsys,
            "expand", "--seed", "secsqrt", "--n", "2", "--basis", "h",
            "--scale", "fact2n", "--format", "latex",
        )
        assert out.strip() == "h_{1}^{2} + 4 h_{2}"

    @pytest.mark.parametrize("basis", ["m", "p", "e", "h", "s"])
    @pytest.mark.parametrize("scale", ["none", "fact2n"])
    def test_latex_constant_term_matches_text(self, capsys, basis, scale):
        argv = ["expand", "--seed", "secsqrt", "--n", "0", "--basis", basis,
                "--scale", scale]
        _, text, _ = invoke(capsys, *argv)
        _, latex, _ = invoke(capsys, *argv, "--format", "latex")
        assert text == "1\n"
        assert latex == text

    def test_file_seed(self, capsys, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(dump_seed_series(seed_by_name("geom", 6).a))
        code, out, _ = invoke(
            capsys, "expand", "--seed", f"file:{path}", "--n", "3", "--basis", "h"
        )
        assert code == 0
        assert out.strip() == "h[3]"

    def test_determinism(self, capsys):
        argv = ["expand", "--seed", "qfn", "--n", "5", "--basis", "s", "--format", "json"]
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second


class TestSeedsListing:
    def test_catalog_names_present(self, capsys):
        code, out, _ = invoke(capsys, "seeds", "list")
        assert code == 0
        for name in ("one_plus_t", "geom", "qfn", "exp", "subset_exp", "secsqrt",
                     "l_genus", "ahat", "file"):
            assert name in out


class TestVerify:
    @pytest.mark.parametrize(
        "suite,nmax",
        [
            ("rp", "3"),
            ("m-expansion", "3"),
            ("schur-skew", "4"),
            ("uio", "2"),
            ("h-specials", "4"),
            ("omega", "4"),
            ("routes", "4"),
            ("kronecker", "3"),
        ],
    )
    def test_suites_pass(self, capsys, suite, nmax):
        code, out, _ = invoke(capsys, "verify", "--suite", suite, "--nmax", nmax)
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "suite,nmax",
        [
            ("rp", "4"),
            ("m-expansion", "4"),
            ("schur-skew", "6"),
            ("uio", "3"),
            ("h-specials", "6"),
            ("omega", "6"),
            ("routes", "6"),
            ("kronecker", "4"),
        ],
    )
    def test_default_nmax(self, capsys, suite, nmax):
        without = invoke(capsys, "verify", "--suite", suite)
        assert without[0] == 0 and without[1]
        assert without == invoke(capsys, "verify", "--suite", suite, "--nmax", nmax)

    @staticmethod
    def shift_b2(monkeypatch):
        """Every catalog seed of the suites gets b_2 + 1/7, its a_k untouched."""
        real = suites.seed_by_name

        def shifted(spec, precision):
            seed = real(spec, precision)
            seed.b = seed.b[:2] + (seed.b[2] + Fraction(1, 7),) + seed.b[3:]
            return seed

        monkeypatch.setattr(suites, "seed_by_name", shifted)

    def test_kronecker_catches_a_wrong_log_coefficient(self, capsys, monkeypatch):
        self.shift_b2(monkeypatch)
        code, out, _ = invoke(capsys, "verify", "--suite", "kronecker", "--nmax", "3")
        assert code == 1
        lines = out.splitlines()
        assert "ok   kronecker seed=geom n=1" in lines
        assert "FAIL kronecker seed=geom n=2: 1 violated power sums" in lines
        assert "FAIL kronecker seed=geom n=3: 1 violated power sums" in lines
        assert lines[-1] == "16/32 checks passed"

    def test_routes_catch_a_wrong_log_coefficient(self, capsys, monkeypatch):
        # the power pairing and dimension read the monomial route, so b_2 is
        # checked against the a_k, not against itself
        self.shift_b2(monkeypatch)
        code, out, _ = invoke(capsys, "verify", "--suite", "routes", "--nmax", "3")
        assert code == 1
        lines = out.splitlines()
        assert "ok   routes seed=geom n=1" in lines
        assert "FAIL routes seed=geom n=2: power-sum route disagrees with monomial route" in lines
        pairing = [line for line in lines if " power-pairing " in line]
        assert len(pairing) == len(suites.CATALOG_SPECS)
        for line in pairing:
            assert line.startswith("FAIL routes power-pairing seed=")
            assert line.endswith(": <R_2, p_2^1> != b_2^1")

    def test_rp_brute_check_bites(self, capsys, monkeypatch):
        real = suites.rp_histogram_brute

        def bumped(n):
            hist = real(n)
            hist[(n,)] += 1
            return hist

        monkeypatch.setattr(suites, "rp_histogram_brute", bumped)
        code, out, _ = invoke(capsys, "verify", "--suite", "rp", "--nmax", "4")
        assert code == 1
        assert out.startswith("FAIL rp-histogram n=1: got ")
        assert out.endswith("0/4 checks passed\n")

    def test_failed_check_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(suites, "phi_abs", lambda lam: 0)
        code, out, _ = invoke(capsys, "verify", "--suite", "rp", "--nmax", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("FAIL rp-histogram n=1: got ")
        assert ", expected " in lines[0]
        assert lines[-1] == "0/1 checks passed"

    def test_m_expansion_brute_check_bites(self, capsys, monkeypatch):
        real = suites.piecewise_alt_brute
        monkeypatch.setattr(suites, "piecewise_alt_brute", lambda lam: real(lam) + 1)
        code, out, _ = invoke(capsys, "verify", "--suite", "m-expansion", "--nmax", "2")
        assert code == 1
        assert any(line.startswith("FAIL m-expansion") for line in out.splitlines())

    def test_m_expansion_walks_only_up_to_the_brute_degree(self, capsys, monkeypatch):
        lengths = []
        real = oracles._walk_blocks

        def recording(length, *rest):
            lengths.append(length)
            return real(length, *rest)

        monkeypatch.setattr(oracles, "_walk_blocks", recording)
        code, _, _ = invoke(capsys, "verify", "--suite", "m-expansion", "--nmax", "5")
        assert code == 0
        assert 0 < max(lengths) <= 2 * suites._BRUTE_NMAX

    def test_rp_walks_only_up_to_the_brute_degree(self, capsys, monkeypatch):
        lengths = []
        real = oracles._walk_blocks

        def recording(length, *rest):
            lengths.append(length)
            return real(length, *rest)

        monkeypatch.setattr(oracles, "_walk_blocks", recording)
        code, out, _ = invoke(capsys, "verify", "--suite", "rp", "--nmax", "5")
        assert code == 0
        assert out.endswith("5/5 checks passed\n")
        assert lengths == [2 * n for n in range(1, suites._BRUTE_NMAX + 1)]

    def test_routes_catch_a_broken_e_route(self, capsys, monkeypatch):
        # e read off the h recurrence on F itself, not on the omega seed 1/F(-t)
        monkeypatch.setattr(sprout, "omega_seed", lambda seed: seed)
        code, out, _ = invoke(capsys, "verify", "--suite", "routes", "--nmax", "2")
        assert code == 1
        lines = out.splitlines()
        assert "ok   routes seed=secsqrt n=1" in lines
        assert "FAIL routes seed=secsqrt n=2: hom/e route disagrees with monomial route" in lines

    def test_consistency_error_mid_suite_prints_nothing(self, capsys, monkeypatch):
        def broken(*args):
            raise ConsistencyError("closed form disagrees")

        monkeypatch.setattr(suites, "special_h_pair", broken)
        code, out, err = invoke(capsys, "verify", "--suite", "h-specials", "--nmax", "2")
        assert code == 1
        assert out == ""
        assert "identity violation: closed form disagrees" in err


class TestPositivityCommand:
    def test_minor_report(self, capsys):
        code, out, _ = invoke(
            capsys,
            "positivity", "--seed", "secsqrt", "--minor-order", "3", "--degree", "6",
        )
        assert code == 0
        obj = json.loads(out.strip())
        assert obj["passed"] is True
        assert json.dumps(obj) == out.strip()

    def test_with_basis_sweep(self, capsys):
        code, out, _ = invoke(
            capsys,
            "positivity", "--seed", "secsqrt", "--minor-order", "2", "--degree", "4",
            "--basis", "h", "--nmax", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["passed"] is True

    def test_e_precheck_ignores_scale(self, capsys, tmp_path):
        # F = 1 + 2t makes R_n = 2^n e_n: e-positive, so the pre-check stays silent
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(["1", "2"]))
        code, out, _ = invoke(
            capsys,
            "positivity", "--seed", f"file:{path}", "--minor-order", "1", "--degree", "1",
            "--basis", "e", "--nmax", "1",
        )
        assert code == 0
        sweep = json.loads(out.strip().splitlines()[1])
        assert sweep["passed"] is True
        assert sweep["e_precheck_first_fail"] is None

    def test_decimated(self, capsys):
        code, out, _ = invoke(
            capsys,
            "positivity", "--seed", "secsqrt", "--minor-order", "2", "--degree", "4",
            "--decimate", "2",
        )
        assert code == 0
        assert "submatrix" in json.loads(out.strip())["note"]

    @pytest.mark.parametrize("name,order,degree,basis", [
        ("l_genus", 4, 10, None),  # 20,820 violations, many write batches
        ("secsqrt", 3, 6, None),  # a passing report
        ("l_genus", 2, 4, "s"),  # the basis line follows the report
    ])
    def test_stdout_is_the_report_text(self, capsys, name, order, degree, basis):
        argv = ["positivity", "--seed", name, "--minor-order", str(order),
                "--degree", str(degree)]
        seed = seed_by_name(name, degree)
        report = toeplitz_minors(seed, order, degree)
        want = report.to_json() + "\n"
        if basis is not None:
            argv += ["--basis", basis, "--nmax", str(degree)]
            sweep = expansion_positivity(seed, degree, Basis.from_letter(basis))
            want += json.dumps(sweep.to_json_obj()) + "\n"
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out == want

    def test_report_memory_is_bounded_by_its_classes(self, monkeypatch):
        # the heaviest benchmark op writes 2.2 MB of JSON; the text held at
        # once is one batch, so the traced peak stays far below that
        class Sink:
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            code = run(["positivity", "--seed", "l_genus", "--minor-order", "4",
                        "--degree", "10", "--decimate", "2"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 6 * 2**20


class TestSpecialCommand:
    def test_sn(self, capsys):
        code, out, _ = invoke(
            capsys, "special", "--seed", "secsqrt", "--op", "sn", "--nmax", "3"
        )
        assert code == 0
        assert out.strip() == "1, 1/2, 5/24, 61/720"

    def test_hpair(self, capsys):
        code, out, _ = invoke(
            capsys, "special", "--seed", "secsqrt", "--op", "hpair", "--i", "2", "--j", "1"
        )
        assert code == 0
        assert out.strip() == "1/60"

    def test_hooks_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "special", "--seed", "secsqrt", "--op", "hooks", "--n", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out.strip()) == ["5/24", "1/24"]

    def test_ones(self, capsys):
        code, out, _ = invoke(
            capsys,
            "special", "--seed", "geom", "--op", "ones", "--k", "3", "--nmax", "3",
        )
        assert code == 0
        assert out.strip() == "1, 3, 6, 10"

    def test_hk(self, capsys):
        code, out, _ = invoke(
            capsys, "special", "--seed", "geom", "--op", "hk", "--k", "1", "--nmax", "4"
        )
        assert code == 0
        assert out.strip() == "1, 1, 0, 0, 0"


class TestOracleCommand:
    def test_rho(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--op", "rho", "--partition", "5,3,1,1")
        assert code == 0
        assert out.strip() == "(12,7,6,3,2)/(4,3,2,1)"

    def test_rp_hist(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--op", "rp-hist", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["2  2", "1,1  3", "total  5"]

    def test_alt_and_cyc(self, capsys):
        assert invoke(capsys, "oracle", "--op", "alt-count", "--n", "4")[1].strip() == "5"
        assert invoke(capsys, "oracle", "--op", "cyc-alt", "--n", "2")[1].strip() == "4"

    def test_piecewise(self, capsys):
        code, out, _ = invoke(
            capsys, "oracle", "--op", "piecewise", "--partition", "1,1"
        )
        assert code == 0
        assert out.strip() == "6"

    def test_syt(self, capsys):
        code, out, _ = invoke(
            capsys, "oracle", "--op", "syt", "--outer", "3,2", "--inner", "1"
        )
        assert out.strip() == "5"
        code, out, _ = invoke(
            capsys, "oracle", "--op", "syt", "--outer", "3,2", "--inner", "1", "--brute"
        )
        assert out.strip() == "5"

    def test_uio(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--op", "uio", "--n", "2")
        assert code == 0
        obj = json.loads(out.strip())
        assert obj["terms"][0] == {"partition": [2], "coeff": "5/1"}

    def test_claw_check(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--op", "claw-check")
        assert code == 0
        assert "negative Schur coefficient" in out
        assert "[2,2] = -1" in out


class TestExitCodes:
    def test_usage_error_unknown_seed(self, capsys):
        code, _, err = invoke(
            capsys, "expand", "--seed", "mystery", "--n", "2", "--basis", "m"
        )
        assert code == 2
        assert "usage error" in err

    def test_usage_error_bad_flag(self, capsys):
        code, _, _ = invoke(capsys, "expand", "--seed", "geom", "--n", "2")
        assert code == 2

    def test_usage_error_missing_file(self, capsys):
        code, _, _ = invoke(
            capsys, "expand", "--seed", "file:/does/not/exist", "--n", "2", "--basis", "m"
        )
        assert code == 2

    def test_budget_error(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--op", "rp-hist", "--n", "7")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("suite", ["m-expansion", "rp"])
    def test_suite_budget_checked_before_any_walk(self, capsys, monkeypatch, suite):
        walks = []
        for name in ("_walk_blocks", "_count_by_state", "_candidates"):
            real = getattr(oracles, name)

            def recording(*args, real=real):
                walks.append(args[0])
                return real(*args)

            monkeypatch.setattr(oracles, name, recording)
        code, out, err = invoke(capsys, "verify", "--suite", suite, "--nmax", "7")
        assert code == 3
        assert out == ""
        assert "length 14 exceeds the budget of 12" in err
        assert walks == []

    @pytest.mark.parametrize("decimate", ["1", "2"])
    def test_minor_budget_checked_before_the_seed_is_built(self, capsys, monkeypatch, decimate):
        built = []
        real = cli.seed_by_name
        monkeypatch.setattr(
            cli, "seed_by_name", lambda *args: built.append(args) or real(*args)
        )
        code, out, err = invoke(
            capsys, "positivity", "--seed", "secsqrt", "--degree", "400",
            "--decimate", decimate,
        )
        assert code == 3
        assert out == ""
        assert re.search(r"minors \d+ exceeds the budget of 3000000", err)
        assert built == []

    @pytest.mark.parametrize(
        "op",
        [
            (("hooks", "--n", "1000"), "special degree 1000 exceeds the budget of 24"),
            (("sn", "--nmax", "25"), "conversion degree 25 exceeds the budget of 20"),
            (("ones", "--k", "3", "--nmax", "25"), "special degree 25 exceeds the budget of 24"),
            (("hk", "--k", "5", "--nmax", "5"), "conversion degree 25 exceeds the budget of 20"),
            (("hpair", "--i", "13", "--j", "12"), "conversion degree 25 exceeds the budget of 20"),
        ],
    )
    def test_special_budget_checked_before_the_seed_is_built(self, capsys, monkeypatch, op):
        op, message = op
        built = []
        monkeypatch.setattr(cli, "seed_by_name", lambda *args: built.append(args))
        code, out, err = invoke(capsys, "special", "--seed", "one_plus_t", "--op", *op)
        assert code == 3
        assert out == ""
        assert message in err
        assert built == []

    def test_precision_budget_admits_degree_36(self, capsys):
        code, out, _ = invoke(
            capsys, "expand", "--seed", "secsqrt", "--n", "36", "--basis", "m"
        )
        assert code == 0
        # a_1 = 1/2, so [m_(1^36)] R_36 = 2^-36
        assert out.startswith(f"1/{2**36}·m[{','.join('1' * 36)}] + ")

    def test_special_budget_admits_degree_24(self, capsys):
        code, out, _ = invoke(
            capsys, "special", "--seed", "one_plus_t", "--op", "hooks", "--n", "24"
        )
        assert code == 0
        # (1 + t)/(1 - ut): the only hook of R_24 with a nonzero coefficient is (1^24)
        assert out.strip() == "u^23"

    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "--op", "alt-count", "--n", "13"),
            ("oracle", "--op", "cyc-alt", "--n", "7"),
            ("oracle", "--op", "piecewise", "--partition", "7"),
        ],
    )
    def test_oracle_count_over_budget(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "exceeds the budget of 12" in err

    def test_precision_error_from_file(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(dump_seed_series(seed_by_name("geom", 2).a))
        code, _, _ = invoke(
            capsys, "expand", "--seed", f"file:{path}", "--n", "5", "--basis", "m"
        )
        assert code == 3


def _over(key: str) -> str:
    return str(BUDGETS[key] + 1)


# One argv per BUDGETS key the CLI reaches, one above the limit.
CLI_BUDGET_ROWS = {
    "precision": ("expand", "--seed", "secsqrt", "--n", _over("precision"), "--basis", "m"),
    "special degree": (
        "special", "--seed", "geom", "--op", "hooks", "--n", _over("special degree"),
    ),
    "conversion degree": (
        "special", "--seed", "geom", "--op", "sn", "--nmax", _over("conversion degree"),
    ),
    "suite degree": ("verify", "--suite", "routes", "--nmax", _over("suite degree")),
    "minors": ("positivity", "--seed", "geom", "--minor-order", "1", "--degree", "1732"),
    "permutation length": ("oracle", "--op", "alt-count", "--n", _over("permutation length")),
    "determinant cells": ("oracle", "--op", "syt", "--outer", _over("determinant cells")),
    "brute tableaux": (
        "oracle", "--op", "syt", "--outer", "10,9,8,7,6,5,4,3,2,1",
        "--inner", "9,8,7,6,5,4,3,2,1", "--brute",
    ),
    "interval-order n": ("oracle", "--op", "uio", "--n", _over("interval-order n")),
}

# No sweep indexes exactly limit + 1 minors; order 1, degree 1732 indexes
# 1733^2, the fewest above the limit.  The 10-cell staircase strip has 10!
# tableaux, the first staircase strip above the brute-tableaux limit.
OVER_THE_LIMIT = {"minors": 1733**2, "brute tableaux": 3_628_800}

# Keys no CLI input can reach: a direct call one above the limit.
LIBRARY_BUDGET_ROWS = {
    "matching n": lambda limit: oracles.matchings(limit + 1),
    "chromatic vertices": lambda limit: oracles.chromatic_sym(
        oracles.Graph(limit + 1, ()), limit + 1
    ),
}

# Where each budgeted command starts its work: none may run once a budget fails.
WORK_ENTRY_POINTS = [
    (cli, "seed_by_name"),
    (suites, "seed_by_name"),
    (oracles, "_walk_blocks"),
    (oracles, "_count_by_state"),
    (oracles, "_candidates"),
    (oracles, "matchings"),
    (oracles.SkewShape, "inner_padded"),
]

# Work a key's own check runs, and which is let through: the brute-tableaux
# budget reads the determinant's count, which pads the shape once; the
# tableau walk would pad it a second time.
CHECK_RUNS = {"brute tableaux": ["inner_padded"]}


class TestBudgetTable:
    """Every key of BUDGETS, one row each, refused before any work starts."""

    def test_no_row_without_a_key(self):
        assert not (set(CLI_BUDGET_ROWS) | set(LIBRARY_BUDGET_ROWS)) - set(BUDGETS)

    @pytest.mark.parametrize("key", sorted(BUDGETS))
    def test_refused_above_the_limit(self, capsys, monkeypatch, key):
        limit = BUDGETS[key]
        if key in LIBRARY_BUDGET_ROWS:
            message = f"^{key} {limit + 1} exceeds the budget of {limit}$"
            with pytest.raises(BudgetError, match=message):
                LIBRARY_BUDGET_ROWS[key](limit)
            return
        argv = CLI_BUDGET_ROWS[key]
        value = OVER_THE_LIMIT.get(key, limit + 1)
        started = []
        checked_by = CHECK_RUNS.get(key, [])
        for owner, name in WORK_ENTRY_POINTS:
            real = getattr(owner, name)

            def stand_in(*args, name=name, real=real):
                started.append(name)
                if name in checked_by:
                    return real(*args)

            monkeypatch.setattr(owner, name, stand_in)
        code, out, err = invoke(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"error: {key} {value} exceeds the budget of {limit}\n" == err
        assert started == checked_by

    def test_suite_degree_admits_its_limit(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--suite", "omega", "--nmax", str(BUDGETS["suite degree"])
        )
        assert code == 0
        assert out.endswith("128/128 checks passed\n")

    def test_conversion_degree_admits_its_limit(self, capsys):
        half = str(BUDGETS["conversion degree"] // 2)
        code, out, _ = invoke(
            capsys, "special", "--seed", "one_plus_t", "--op", "hpair",
            "--i", half, "--j", half,
        )
        assert code == 0
        assert out == "1\n"

    def test_readme_table_mirrors_budgets(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Budgets\n", 1)[1].split("\n## ", 1)[0]
        table = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                key, limit = (cell.strip() for cell in line.split("|")[1:3])
                table[key.strip("`")] = int(limit.replace(",", ""))
        assert table == BUDGETS


# Out-of-range integer flags, each with the flag argparse must name.
FLAG_ROWS = [
    (("expand", "--seed", "geom", "--n", "-1", "--basis", "h"), "--n"),
    (("special", "--seed", "geom", "--op", "hooks", "--n", "0"), "--n"),
    (("special", "--seed", "geom", "--op", "hpair", "--i", "0"), "--i"),
    (("special", "--seed", "geom", "--op", "hpair", "--j", "-1"), "--j"),
    (("special", "--seed", "geom", "--op", "sn", "--nmax", "-1"), "--nmax"),
    (("special", "--seed", "geom", "--op", "ones", "--k", "-1"), "--k"),
    (("special", "--seed", "geom", "--op", "hk", "--k", "0"), "--k"),
]


class TestInputContract:
    """Bad arguments exit 2, and budgets 3, before anything reaches stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "rp", "--nmax", "0"),
            ("verify", "--suite", "kronecker", "--nmax", "-3"),
            ("oracle", "--op", "alt-count", "--n", "-5"),
            ("positivity", "--seed", "geom", "--decimate", "0"),
            ("positivity", "--seed", "geom", "--decimate", "-1"),
            ("positivity", "--seed", "secsqrt", "--minor-order", "2", "--degree", "4",
             "--basis", "h"),
            ("positivity", "--seed", "geom", "--degree", "-1"),
            ("positivity", "--seed", "geom", "--degree", "-1", "--decimate", "2"),
            ("positivity", "--seed", "geom", "--degree", "-1", "--basis", "s",
             "--nmax", "2"),
            ("positivity", "--seed", "geom", "--minor-order", "0"),
            ("positivity", "--seed", "geom", "--minor-order", "-2"),
            ("verify", "--suite", "rp", "--nmax", "3", "--jobs", "2"),
            ("positivity", "--seed", "geom", "--minor-order", "2", "--degree", "3",
             "--basis", "s", "--nmax", "0"),
            ("positivity", "--seed", "geom", "--minor-order", "2", "--degree", "3",
             "--basis", "s", "--nmax", "-2"),
            *(argv for argv, _ in FLAG_ROWS),
            ("expand", "--seed", "geom(2)", "--n", "2", "--basis", "m"),
            ("expand", "--seed", "geom()", "--n", "2", "--basis", "m"),
            ("oracle", "--op", "syt", "--outer", "2", "--inner", "3"),
            ("oracle", "--op", "syt", "--outer", "2", "--inner", "1,1"),
        ],
    )
    def test_rejected_before_output(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 2
        assert out == ""

    def test_boolean_seed_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(["1", True, False, "1/2"]))
        code, out, err = invoke(
            capsys, "expand", "--seed", f"file:{path}", "--n", "2", "--basis", "m"
        )
        assert code == 2
        assert out == ""
        assert "malformed seed file" in err

    @pytest.mark.parametrize(
        "argv",
        [
            (("expand", "--seed", "secsqrt", "--n", "37", "--basis", "m"), 37),
            (("positivity", "--seed", "geom", "--minor-order", "1", "--degree", "1",
              "--basis", "h", "--nmax", "37"), 37),
            (("positivity", "--seed", "geom", "--minor-order", "1", "--degree", "2",
              "--decimate", "3000"), 6000),
        ],
    )
    def test_over_precision_budget_before_the_seed_is_built(self, capsys, monkeypatch, argv):
        argv, precision = argv
        built = []
        monkeypatch.setattr(cli, "seed_by_name", lambda *args: built.append(args))
        code, out, err = invoke(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"precision {precision} exceeds the budget of 36" in err
        assert built == []

    @pytest.mark.parametrize("argv,flag", FLAG_ROWS)
    def test_error_names_the_flag(self, capsys, argv, flag):
        code, _, err = invoke(capsys, *argv)
        assert code == 2
        assert f"argument {flag}:" in err

    def test_two_cells_in_long_rows(self, capsys, monkeypatch):
        # (300000,1)/(299999) has 2 cells; no factorial above 2! is formed
        args = []
        real = oracles.factorial
        monkeypatch.setattr(oracles, "factorial", lambda k: args.append(k) or real(k))
        code, out, _ = invoke(
            capsys, "oracle", "--op", "syt", "--outer", "300000,1", "--inner", "299999"
        )
        assert (code, out) == (0, "2\n")
        assert max(args) == 2

    def test_rho_shape_over_the_determinant_budget(self, capsys):
        code, out, err = invoke(capsys, "oracle", "--op", "rho", "--partition", "13")
        assert code == 3
        assert out == ""
        assert err == "error: determinant cells 26 exceeds the budget of 24\n"


def test_cli_import_skips_dataclasses_and_inspect():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sproutsym.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(sproutsym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(result.stdout.split())
    assert "sproutsym.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


class TestProcessExit:
    """main freezes the import-time objects of its one-command process; run,
    which tests and in-process callers use, leaves the collector alone."""

    def test_run_leaves_the_freeze_count(self, capsys):
        before = gc.get_freeze_count()
        code, _, _ = invoke(capsys, "seeds", "list")
        assert code == 0
        assert gc.get_freeze_count() == before

    def test_main_freezes_before_running(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["sproutsym", "seeds", "list"])
        before = gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit) as exited:
                cli.main()
            frozen = gc.get_freeze_count()
        finally:
            gc.unfreeze()
        assert exited.value.code == 0
        assert "secsqrt" in capsys.readouterr().out
        assert frozen > before
