"""Record reference outputs for every op a workload can draw.

    python3 perfbench/record.py

Run from the root of a source checkout.  Adds to perfbench/reference.json
the exit code, stdout sha256 and stdout size of each op that has no entry
yet; entries already there are never rewritten, so a later change cannot
move the reference to match its own output.  Every workload op must exit
0, since the workloads are meant to have no failing operation.
"""

import json
import sys
from pathlib import Path

from run import REFERENCE, child_env, run_op
from workloads import WORKLOADS, all_ops, op_key


def main() -> int:
    root = Path.cwd()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    env = child_env(root)
    for workload in WORKLOADS:
        for op in all_ops(workload):
            key = op_key(op)
            if key in reference:
                continue
            result = run_op(op, root, env)
            if result.code != 0:
                print(f"{key}: exit {result.code}: {result.stderr[-300:]!r}", file=sys.stderr)
                return 1
            reference[key] = {
                "exit": result.code,
                "sha256": result.stdout_sha256,
                "bytes": result.stdout_bytes,
            }
            print(f"{result.wall_s:7.2f}s  {key}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
