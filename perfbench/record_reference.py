#!/usr/bin/env python3
"""Record the output digests that later runs of the benchmark must match.

Usage, from the repository root:

    python3 perfbench/record_reference.py 0-31

Runs one repetition per seed of `decide` and `extremal`, and one of
`sweep`, whose inputs do not depend on the seed. It refuses to record
unless every op passes its independent check, then writes
perfbench/reference.json. Re-record only at a commit whose outputs are
known to be right.
"""

import json
import sys
from time import perf_counter

import run
import workloads


def record(workload: str, seed: int, ep) -> str:
    ops, meta = workloads.make_ops(workload, seed)
    payload = workloads.payload(ops, meta)
    rep = run.run_worker([sys.executable, run.WORKER], payload, len(ops), True, perf_counter() + 600)
    failed = run.Judge(ep, ops, meta, None).failed(rep)
    if not rep.complete or any(failed):
        raise SystemExit(f"{workload} seed {seed}: {sum(failed)} ops failed; nothing recorded")
    return "".join(run.checks.digest(o) for o in rep.outputs)


def main(argv) -> int:
    first, _, last = argv[0].partition("-")
    seeds = range(int(first), int(last or first) + 1)
    sys.path.insert(0, "src")
    import epiword

    table = {"sweep": {"*": record("sweep", 0, epiword)}}
    for workload in ("decide", "extremal"):
        table[workload] = {str(s): record(workload, s, epiword) for s in seeds}
        print(f"{workload}: seeds {seeds.start}-{seeds.stop - 1} recorded", file=sys.stderr)
    with open(run.REFERENCE, "w") as f:
        json.dump(table, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
