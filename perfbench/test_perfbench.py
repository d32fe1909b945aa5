"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench

Run from the root of a source checkout.  The smoke test runs the minors
workload twice, with and without tracing, and takes about a minute.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS, all_ops, draw_round, op_key  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

# Small ops that between them reach every traced layer.
SMALL_OPS = [
    ("expand", "--seed", "secsqrt", "--n", "8", "--basis", "s", "--format", "json"),
    ("positivity", "--seed", "l_genus", "--minor-order", "3", "--degree", "8", "--decimate", "2"),
    ("verify", "--suite", "m-expansion", "--nmax", "4"),
    ("verify", "--suite", "schur-skew", "--nmax", "5"),
    ("verify", "--suite", "kronecker", "--nmax", "3"),
    ("oracle", "--op", "syt", "--outer", "4,3", "--inner", "1", "--brute"),
    ("oracle", "--op", "uio", "--n", "3"),
    ("special", "--seed", "ahat", "--op", "hooks", "--n", "5"),
]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_generator_is_deterministic(workload):
    def draw(seed):
        rng = random.Random(f"{workload}:{seed}")
        ops = draw_round(workload, rng)
        orders = []
        for _ in range(3):
            order = list(ops)
            rng.shuffle(order)
            orders.append(order)
        return ops, orders

    assert draw(11) == draw(11)
    reference = run.load_reference()
    drawable = set(map(op_key, all_ops(workload)))
    for seed in range(20):
        for op in draw(seed)[0]:
            assert op_key(op) in drawable
            assert op_key(op) in reference


def test_counts_repeat_across_traced_runs():
    env = run.child_env(ROOT)

    def traced_counts():
        results = [run.run_op(op, ROOT, env, traced=True) for op in SMALL_OPS]
        assert all(r.code == 0 and r.trace is not None for r in results)
        metrics = run.layer_round(results)
        return {name: metrics[name] for name in run.COUNTS}

    first = traced_counts()
    assert first == traced_counts()
    for name in ("symfunc.convert.calls", "linalg.det_int_bareiss.calls",
                 "oracles.perms_visited", "suites.checks", "positivity.violations"):
        assert first[name] > 0, name


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minors", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
