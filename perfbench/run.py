"""sproutsym benchmark: cold CLI workloads timed end to end and per layer.

    python3 perfbench/run.py --workload {expand,minors,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is taken from
./src.  One closed-loop client runs one op at a time, each a fresh
``python -m sproutsym.cli`` process, so every op pays for cold
``functools.cache`` tables as a user does.  The workload seed draws one
round of ops (see workloads.py); the round is repeated, in a new order
each time, until S seconds run out, and always runs whole at least
once.  Every op's exit code and the sha256 of its stdout must match
perfbench/reference.json; an op without a reference is refused.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1
one untraced round is followed by rounds run through perfbench/tracer.py,
and the result holds the per-layer metrics of the traced rounds.

The last stdout line is the result object; the line before it is the
run record (host, source digest, seed, CPU probe before and after).
Exits 2 without a result when the checkout or an op's reference is
missing.
"""

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict, namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, draw_round, minors_indexed, op_key  # noqa: E402


def _small_sha256():
    """sha256 without importing hashlib.

    A spawned child starts in this process's address space, and the
    kernel counts that image in the child's ru_maxrss.  hashlib maps
    OpenSSL (3.6 MB), which would lift this process above the op
    processes of the verify workload; the builtin module keeps it at or
    under them.  The run record holds this process's own peak.
    """
    for name in ("_sha256", "_sha2"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    return importlib.import_module("hashlib").sha256


sha256 = _small_sha256()
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 15
PROBE_ITERATIONS = 1_000_000

END_TO_END = {
    "setup_s": "s",
    "op_gmean_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer figures summed over the ops of a round, straight from
# tracer.summarize.
SUMMED = {
    "cli.run.self_s": "s",
    "seeds.seed_by_name.self_s": "s",
    "partitions.enumerate_partitions.self_s": "s",
    "symfunc.convert.calls": "count",
    "symfunc.convert.cold_self_s": "s",
    "symfunc.convert.warm_self_s": "s",
    "symfunc.algebra.self_s": "s",
    "linalg.invert_fraction.calls": "count",
    "linalg.invert_fraction.self_s": "s",
    "linalg.det_fraction.calls": "count",
    "linalg.det_fraction.self_s": "s",
    "linalg.det_int_bareiss.calls": "count",
    "linalg.det_int_bareiss.self_s": "s",
    "positivity.toeplitz_minors.self_s": "s",
    "sprout.sprout_m.self_s": "s",
    "sprout.sprout_p.self_s": "s",
    "sprout.schur_coeff.calls": "count",
    "sprout.schur_coeff.self_s": "s",
    "sprout.expansion_in.self_s": "s",
    "sprout.special.self_s": "s",
    "sprout.kronecker_hom_check.self_s": "s",
    "oracles.enumerate.self_s": "s",
    "oracles.syt_count_brute.self_s": "s",
    "oracles.syt_count_det.self_s": "s",
    "oracles.chromatic.self_s": "s",
    "suites.run_checks.self_s": "s",
}
PER_LAYER = {
    "proc.import_s": "s",
    **SUMMED,
    "cli.stdout_bytes": "bytes",
    "linalg.det_int_bareiss.nonzero_ratio": "1",
    "positivity.minors_indexed": "count",
    "positivity.violations": "count",
    "oracles.perms_visited": "count",
    "suites.checks": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    **{f"share.{layer}": "%" for layer in tracer.LAYERS},
}
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# One finished op process.  Stdout is kept only as its sha256 and size.
Op = namedtuple(
    "Op", "op pid wall_s cpu_s rss_kb code stdout_sha256 stdout_bytes stderr trace"
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # Bytecode is compiled once before timing and must be kept.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _drain(stream, sink: list) -> None:
    sink.append(stream.read())


def run_op(op, root: Path, env: dict, traced: bool = False) -> Op:
    """Run one op in a fresh process; time it from spawn to exit."""
    pass_fds = ()
    if traced:
        read_fd, write_fd = os.pipe()
        argv = [sys.executable, str(HERE / "tracer.py"), str(write_fd), *op]
        pass_fds = (write_fd,)
    else:
        argv = [sys.executable, "-m", "sproutsym.cli", *op]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=env, pass_fds=pass_fds,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    readers, err, trace_raw = [], [], []
    readers.append(threading.Thread(target=_drain, args=(proc.stderr, err)))
    if traced:
        os.close(write_fd)
        trace_stream = os.fdopen(read_fd, "rb")
        readers.append(threading.Thread(target=_drain, args=(trace_stream, trace_raw)))
    for reader in readers:
        reader.start()
    digest, size = sha256(), 0
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
        size += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    t_exit = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    trace = None
    if traced:
        trace_stream.close()
        if trace_raw[0]:
            doc = json.loads(trace_raw[0])
            if doc["pid"] != proc.pid:
                raise BenchError(f"trace of {op_key(op)} came from another process")
            trace = tracer.summarize(doc, t_spawn, t_exit)
            trace["missing"] = doc["missing"]
    return Op(
        op, proc.pid, t_exit - t_spawn, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss, proc.returncode, digest.hexdigest(), size, err[0], trace,
    )


def cpu_probe() -> float:
    """A fixed CPU loop, timed in this process, to show host-speed drift."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i
    return time.perf_counter() - start


def setup_times(root: Path, env: dict) -> list:
    """Cold `import sproutsym.cli` times, after one untimed import that
    compiles the bytecode."""
    argv = [sys.executable, "-c", "import sproutsym.cli"]
    compiled = subprocess.run(argv, cwd=root, env=env, capture_output=True)
    if compiled.returncode != 0:
        raise BenchError("cannot import sproutsym.cli: " + compiled.stderr.decode()[-500:])
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _git_sha(root: Path):
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(root: Path, args) -> dict:
    digest = sha256()
    for path in sorted((root / "src" / "sproutsym").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(root),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def check(result: Op, reference: dict) -> bool:
    want = reference[op_key(result.op)]
    got = result.stdout_sha256
    if result.code == want["exit"] and got == want["sha256"]:
        return True
    print(
        f"MISMATCH {op_key(result.op)}: exit {result.code} (want {want['exit']}), "
        f"stdout sha256 {got[:12]} (want {want['sha256'][:12]}) "
        f"stderr {result.stderr[-300:]!r}",
        file=sys.stderr,
    )
    return False


def run_rounds(ops, rng, seconds, root, env, trace):
    """Rounds of ops, each in a new order, until `seconds` run out.

    Returns a list of (traced, [Op]).  With trace, the first round is
    untraced and the rest traced.  The first round, and with trace the
    first traced round, always run whole.  After them an op runs only if
    its time in the round before still fits in what is left of
    `seconds`, so the last round may stop part way.
    """
    rounds, took = [], {}
    start = time.perf_counter()
    while True:
        traced = trace and bool(rounds)
        whole = len(rounds) < (2 if trace else 1)
        order = list(ops)
        rng.shuffle(order)
        results = []
        for op in order:
            left = seconds - (time.perf_counter() - start)
            if not whole and took[op_key(op)] > left:
                if results:
                    rounds.append((traced, results))
                return rounds
            results.append(run_op(op, root, env, traced))
            took[op_key(op)] = results[-1].wall_s
        rounds.append((traced, results))


def end_to_end(setup, rounds) -> dict:
    """Each distinct op is timed by its median over the rounds, so the
    figures do not hang on how many rounds fit in the run.

    A round holds a handful of op kinds whose costs differ by up to 50x,
    so the median op is one or two kinds and moves with their noise; the
    geometric mean weighs every kind alike and averages over all of them.
    """
    ops = [result for _, results in rounds for result in results]
    walls, cpus = defaultdict(list), defaultdict(list)
    for r in ops:
        walls[op_key(r.op)].append(r.wall_s)
        cpus[op_key(r.op)].append(r.cpu_s)
    wall = [statistics.median(times) for times in walls.values()]
    return {
        "setup_s": statistics.median(setup),
        "op_gmean_s": statistics.geometric_mean(wall),
        "wall_s": sum(wall),
        "cpu_s": sum(statistics.median(times) for times in cpus.values()),
        "peak_rss_mb": max(r.rss_kb for r in ops) / 1024,
    }


def layer_round(results) -> dict:
    """Per-layer metrics of one traced round.  An op that died before
    writing its trace is already a failed op and adds nothing here."""
    traces = [r.trace for r in results if r.trace is not None]
    out = {name: sum(t[name] for t in traces) for name in SUMMED}
    out["proc.import_s"] = statistics.median(t["proc.import_s"] for t in traces)
    out["cli.stdout_bytes"] = sum(r.stdout_bytes for r in results)
    calls = out["linalg.det_int_bareiss.calls"]
    nonzero = sum(t["linalg.det_int_bareiss.nonzero"] for t in traces)
    out["linalg.det_int_bareiss.nonzero_ratio"] = nonzero / calls if calls else 0.0
    out["positivity.minors_indexed"] = sum(minors_indexed(r.op) for r in results)
    out["positivity.violations"] = sum(t["count.violations"] for t in traces)
    out["oracles.perms_visited"] = sum(t["count.perms_visited"] for t in traces)
    out["suites.checks"] = sum(t["count.checks"] for t in traces)
    wall = sum(r.wall_s for r in results)
    out["trace.wall_s"] = wall
    for layer in tracer.LAYERS:
        out[f"share.{layer}"] = 100 * sum(t[f"layer.{layer}_s"] for t in traces) / wall
    return out


def per_layer(rounds) -> dict:
    """Per-layer metrics over the whole rounds; a last round cut short is
    left out."""
    size = max(len(rs) for _, rs in rounds)
    rounds = [(traced, rs) for traced, rs in rounds if len(rs) == size]
    untraced = [sum(r.wall_s for r in rs) for traced, rs in rounds if not traced]
    per_round = [layer_round(rs) for traced, rs in rounds if traced]
    for name in COUNTS:
        if len({m[name] for m in per_round}) != 1:
            raise BenchError(f"count {name} differs between rounds of the same ops")
    out = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "sproutsym" / "cli.py").is_file():
            raise BenchError(f"no sproutsym source under {root / 'src'}")
        reference = load_reference()
        rng = random.Random(f"{args.workload}:{args.seed}")
        ops = draw_round(args.workload, rng)
        missing = [op_key(op) for op in ops if op_key(op) not in reference]
        if missing:
            raise BenchError("no reference output for: " + "; ".join(missing))
        env = child_env(root)
        record = run_record(root, args)
        record["cpu_probe_before_s"] = cpu_probe()
        setup = setup_times(root, env)
        rounds = run_rounds(ops, rng, args.seconds, root, env, bool(args.trace))
        record["cpu_probe_after_s"] = cpu_probe()
        if args.trace:
            metrics, units = per_layer(rounds), PER_LAYER
        else:
            metrics, units = end_to_end(setup, rounds), END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    results = [result for _, results in rounds for result in results]
    failed = sum(not check(result, reference) for result in results)
    pids = [result.pid for result in results]
    fresh = len(set(pids)) == len(pids) and os.getpid() not in pids
    if not fresh:
        print("an op did not run in a fresh process", file=sys.stderr)
    record["bench_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["rounds"] = len(rounds)
    record["setup_samples_s"] = setup
    record["missing_trace_targets"] = sorted(
        {m for r in results if r.trace for m in r.trace["missing"]}
    )
    record["ops"] = [
        {"op": op_key(r.op), "traced": r.trace is not None, "wall_s": r.wall_s,
         "cpu_s": r.cpu_s, "rss_kb": r.rss_kb, "exit": r.code}
        for r in results
    ]
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0 and fresh,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
