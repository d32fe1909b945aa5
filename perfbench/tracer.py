"""Traced runner: one sproutsym CLI command with a span around each layer.

Run as

    python3 perfbench/tracer.py FD ARG...

with the package on PYTHONPATH.  It imports ``sproutsym.cli``, wraps the
public entry points named in SPANS and LEAVES, rebinding each name in
every ``sproutsym`` module that imported it, runs ``cli.run(ARG...)``
exactly as ``python -m sproutsym.cli ARG...`` would, and exits with the
same code and the same stdout.  The spans stay in memory and are written
as one JSON document to the inherited file descriptor FD at exit.

A span is ``[id, parent id, name, start, end, leaves]``.  Hot leaf
functions (one order-4 sweep makes 10^5 determinant calls) get no span
of their own: their calls, total time and nonzero results are added up
in ``leaves`` of the span that called them.  Times are
``time.perf_counter()``, which is CLOCK_MONOTONIC on Linux and so shared
with the parent that spawned this process.

``summarize`` is the parent's half: it turns one document into per-op
layer figures.  A wrapped name that no longer exists in the package is
listed under ``missing`` and its figures read 0.
"""

import json
import os
import sys
import time

# (module, function) -> span name.  Functions sharing a name share a layer.
SPANS = {
    ("seeds", "seed_by_name"): "seeds.seed_by_name",
    ("symfunc", "convert"): "symfunc.convert",
    ("symfunc", "multiply"): "symfunc.algebra",
    ("symfunc", "kronecker"): "symfunc.algebra",
    ("symfunc", "omega"): "symfunc.algebra",
    ("symfunc", "scalar_product"): "symfunc.algebra",
    ("symfunc", "dim"): "symfunc.algebra",
    ("symfunc", "principal_specialize"): "symfunc.algebra",
    ("positivity", "toeplitz_minors"): "positivity.toeplitz_minors",
    ("positivity", "decimation_check"): "positivity.decimation_check",
    ("positivity", "expansion_positivity"): "positivity.expansion_positivity",
    ("sprout", "sprout_m"): "sprout.sprout_m",
    ("sprout", "sprout_p"): "sprout.sprout_p",
    ("sprout", "schur_coeff"): "sprout.schur_coeff",
    ("sprout", "expansion_in"): "sprout.expansion_in",
    ("sprout", "special_sn"): "sprout.special",
    ("sprout", "special_hk_series"): "sprout.special",
    ("sprout", "special_h_pair"): "sprout.special",
    ("sprout", "special_ones"): "sprout.special",
    ("sprout", "special_hooks"): "sprout.special",
    ("sprout", "kronecker_hom_check"): "sprout.kronecker_hom_check",
    ("oracles", "alternating_permutations"): "oracles.enumerate",
    ("oracles", "alternating_count"): "oracles.enumerate",
    ("oracles", "rp_histogram"): "oracles.enumerate",
    ("oracles", "piecewise_alt_count"): "oracles.enumerate",
    ("oracles", "cyclically_alternating_count"): "oracles.enumerate",
    ("oracles", "syt_count_brute"): "oracles.syt_count_brute",
    ("oracles", "syt_count_det"): "oracles.syt_count_det",
    ("oracles", "chromatic_sym"): "oracles.chromatic",
    ("suites", "run_checks"): "suites.run_checks",
}
LEAVES = {
    ("linalg", "invert_fraction"): "linalg.invert_fraction",
    ("linalg", "det_fraction"): "linalg.det_fraction",
    ("linalg", "det_int_bareiss"): "linalg.det_int_bareiss",
    ("partitions", "enumerate_partitions"): "partitions.enumerate_partitions",
}
# The backtracking walk behind the four permutation counters; wrapped only
# to count the permutations it visits.
WALK = ("oracles", "_walk_blocks")

# Layers whose shares of traced time are reported; "proc" is everything
# outside cli.run (interpreter start, import, exit, tracer set-up).
LAYERS = (
    "proc", "cli", "seeds", "partitions", "symfunc", "linalg",
    "positivity", "sprout", "oracles", "suites",
)


class Tracer:
    """Spans and counters of one process, kept in memory until exit."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.seen_degrees = set()
        self.counters = {"perms_visited": 0, "violations": 0, "checks": 0}
        self.missing = []

    def span(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "symfunc.convert":
                degree = args[0].degree
                label = name + (".warm" if degree in self.seen_degrees else ".cold")
                self.seen_degrees.add(degree)
            else:
                label = name
            parent = self.stack[-1][0] if self.stack else None
            record = [len(self.spans), parent, label, 0.0, 0.0, {}]
            self.spans.append(record)
            self.stack.append(record)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                self.stack.pop()
            if name == "positivity.toeplitz_minors":
                self.counters["violations"] += len(result.violations)
            elif name == "suites.run_checks":
                self.counters["checks"] += len(result)
            return result

        return traced

    def leaf(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            leaves = self.stack[-1][5]
            entry = leaves.get(name)
            if entry is None:
                entry = leaves[name] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if result != 0:
                entry[2] += 1
            return result

        return traced

    def walk(self, fn):
        counters = self.counters

        def traced(length, block_starts, visit):
            def counted(word):
                counters["perms_visited"] += 1
                visit(word)

            return fn(length, block_starts, counted)

        return traced

    def install(self, package):
        """Rebind every target, in every loaded module of the package."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for key, name in [*SPANS.items(), *LEAVES.items(), (WALK, None)]:
            module_name, attr = key
            original = getattr(sys.modules.get(f"{package}.{module_name}"), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if key == WALK:
                wrapper = self.walk(original)
            elif key in SPANS:
                wrapper = self.span(name, original)
            else:
                wrapper = self.leaf(name, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)

    def document(self, t_imported):
        return {
            "pid": os.getpid(),
            "t_imported": t_imported,
            "spans": self.spans,
            "counters": self.counters,
            "missing": self.missing,
        }


def summarize(doc, t_spawn, t_exit):
    """Per-op layer figures from one trace document.

    Self time of a span is its duration minus its child spans and the
    leaves aggregated under it.  Returns name -> value; every layer in
    SPANS and LEAVES is present, with 0 when it did not run.
    """
    out = {}
    for name in set(SPANS.values()) | set(LEAVES.values()):
        out[name + ".self_s"] = 0.0
        out[name + ".calls"] = 0
    out.update({
        "symfunc.convert.cold_self_s": 0.0,
        "symfunc.convert.warm_self_s": 0.0,
        "linalg.det_int_bareiss.nonzero": 0,
    })
    spans = doc["spans"]
    children = [0.0] * len(spans)
    for span_id, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent] += end - start
    root_s = 0.0
    for span_id, parent, name, start, end, leaves in spans:
        duration = end - start
        if parent is None:
            root_s += duration
        leaf_s = 0.0
        for leaf, (calls, total, nonzero) in leaves.items():
            out[leaf + ".calls"] += calls
            out[leaf + ".self_s"] += total
            if leaf == "linalg.det_int_bareiss":
                out["linalg.det_int_bareiss.nonzero"] += nonzero
            leaf_s += total
        own = duration - children[span_id] - leaf_s
        if name.startswith("symfunc.convert."):
            kind = name.rsplit(".", 1)[1]
            out[f"symfunc.convert.{kind}_self_s"] += own
            name = "symfunc.convert"
        out.setdefault(name + ".self_s", 0.0)
        out.setdefault(name + ".calls", 0)
        out[name + ".self_s"] += own
        out[name + ".calls"] += 1
    wall = t_exit - t_spawn
    out["proc.import_s"] = doc["t_imported"] - t_spawn
    shares = dict.fromkeys(LAYERS, 0.0)
    shares["proc"] = wall - root_s
    for key, value in out.items():
        if key.endswith(".self_s"):
            shares[key.split(".", 1)[0]] += value
    for layer, value in shares.items():
        out["layer." + layer + "_s"] = value
    for name, value in doc["counters"].items():
        out["count." + name] = value
    return out


def main(argv):
    fd = int(argv[0])
    import sproutsym.cli as cli

    t_imported = time.perf_counter()
    tracer = Tracer()
    tracer.install("sproutsym")
    code = tracer.span("cli.run", cli.run)(argv[1:])
    sys.stdout.flush()
    with os.fdopen(fd, "w") as sink:
        json.dump(tracer.document(t_imported), sink)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
