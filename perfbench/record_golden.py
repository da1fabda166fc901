"""Record ``golden.json``: the sha256 of the stdout of every operation in the
first two rounds of seeds 0-9 of each workload, keyed by its input.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose output is the reference.  Refuses to
record a run whose outputs fail their checks.  Later runs of ``run.py``
count operations whose digest differs from these as ``digest_drift``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(10)
ROUNDS = 2


def main() -> int:
    validators = checks.load_validators()
    golden: dict[str, dict] = {}
    out_dir = os.path.join(".perfbench_out", "golden")
    for workload in WORKLOADS:
        entries = golden.setdefault(workload, {})
        for seed in SEEDS:
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1e9", "--max-rounds", str(ROUNDS),
                 "--launched", repr(time.monotonic()), "--out-dir", out_dir],
                check=True, stdout=subprocess.DEVNULL)
            ops = checks.read_ops(out_dir)
            verdict = checks.check_ops(ops, workload, validators, {})
            if verdict["failed"]:
                print(json.dumps(verdict["failures"], indent=1), file=sys.stderr)
                return 1
            entries.update(checks.op_digests(ops))
            print(f"{workload} seed {seed}: {len(entries)} entries", file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(checks.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
