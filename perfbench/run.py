"""Benchmark of the ``danielewski`` command line, run from a checkout's root.

    python3 perfbench/run.py --workload flagship_deep --seed 1 --seconds 20 --trace 0

Each run starts fresh interpreters (``worker.py``) that import the package
from ``src/`` and call ``danielewski.cli.main(argv)`` in process on inputs
generated from ``--seed`` (see ``workloads.py``), one operation at a time,
until ``--seconds`` of operation time have been measured.  Nine extra
interpreters only set up (import and generate the first round), so that
``setup_s`` is a median of ten.  After the workers have ended, every output
is checked (see ``checks.py``).

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` an untraced and then a traced worker run with the same seed,
and the result carries the per-layer metrics and the tracing overhead.
The line before the last is a JSON summary with the per-kind latencies,
the workload's properties and the machine; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Logs of the run are left
in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import RSS_ROUNDS, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
DEADLINE_S = 170.0
KINDS = ("construct", "verify", "analyze")


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-rounds", type=int, default=None,
                   help="stop after this many rounds even if time is left (smoke runs)")
    return p.parse_args(argv)


def _worker(args, out_dir: str, started: float, trace: int = 0, setup_only: bool = False) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    launched = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--launched", repr(launched), "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    if args.max_rounds is not None:
        cmd += ["--max-rounds", str(args.max_rounds)]
    left = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(left, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _properties(ops: list) -> dict:
    counts: dict[str, int] = {}
    for op in ops:
        counts[op["kind"]] = counts.get(op["kind"], 0) + 1
    seen: set = set()
    repeats = 0
    for op in ops:
        if op["kind"] == "analyze":
            key = tuple(op["argv"])
            repeats += key in seen
            seen.add(key)
    analyzed = counts.get("analyze", 0)
    return {
        "ops_by_kind": counts,
        "refused": sum(1 for op in ops if op["rc"] == 1 and op["stderr"].strip()),
        "repeat_share": repeats / analyzed if analyzed else 0.0,
    }


def _machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model}


def _measure(args, out_dir: str, started: float, trace: int, validators, golden) -> dict:
    """One worker run plus the checks of all its operations."""
    worker = _worker(args, out_dir, started, trace=trace)
    ops = checks.read_ops(out_dir)
    os.remove(os.path.join(out_dir, "ops.jsonl"))
    shutil.rmtree(os.path.join(out_dir, "proofs"), ignore_errors=True)
    main_kind = "analyze" if args.workload == "analyze_batch" else "construct"
    rss = worker["rss_mb"]
    return {
        "worker": worker,
        "peak_rss_mb": rss[min(RSS_ROUNDS[args.workload], len(rss)) - 1],
        "ops": ops,
        "wall_s": statistics.median(worker["round_s"]),
        "main_op_p50_s": statistics.median(
            op["seconds"] for op in ops if op["kind"] == main_kind),
        "output_bytes": sum(len(op["stdout"].encode("utf-8")) for op in ops),
        **checks.check_ops(ops, args.workload, validators, golden),
    }


def _end_to_end(plain: dict, setups: list, failed_frac: float) -> dict:
    """Every end-to-end metric the benchmark names, for the summary line."""
    out = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": plain["wall_s"], "unit": "s"},
    }
    for kind in KINDS:
        seconds = [op["seconds"] for op in plain["ops"] if op["kind"] == kind]
        if not seconds:
            continue
        out[f"{kind}_p50_s"] = {"value": statistics.median(seconds), "unit": "s",
                                "n": len(seconds)}
        if len(seconds) >= 100:  # at least ten samples beyond the p90
            out[f"{kind}_p90_s"] = {"value": statistics.quantiles(seconds, n=10)[-1],
                                    "unit": "s", "n": len(seconds)}
    out["failed_frac"] = {"value": failed_frac, "unit": "ratio"}
    out["peak_rss_mb"] = {"value": plain["peak_rss_mb"], "unit": "MB"}
    out["output_bytes"] = {"value": plain["output_bytes"], "unit": "B"}
    return out


def main(argv=None) -> int:
    started = time.monotonic()
    args = _args(argv)
    if not os.path.isfile(os.path.join("src", "danielewski", "cli.py")):
        print("run.py: no src/danielewski here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    validators = checks.load_validators()
    golden = checks.load_golden()
    base = os.path.join(".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(base, ignore_errors=True)

    setups = [_worker(args, os.path.join(base, "setup"), started, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain = _measure(args, os.path.join(base, "plain"), started, 0, validators, golden)
    setups.append(plain["worker"]["setup_s"])
    runs = [plain]
    if args.trace:
        traced = _measure(args, os.path.join(base, "traced"), started, 1, validators, golden)
        runs.append(traced)
    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(r["failed"] for r in runs)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "end_to_end": _end_to_end(plain, setups, failed / attempted),
        "setup_s_samples": setups,
        "rounds": len(plain["worker"]["round_s"]),
        **_properties(plain["ops"]),
        "digest": plain["digest"],
        "digest_drift": sum(r["digest_drift"] for r in runs),
        "golden_checked": sum(r["golden_checked"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:20],
        "machine": _machine(),
    }
    if args.trace:
        common = min(len(plain["digests"]), len(traced["digests"]))
        metrics = dict(traced["worker"]["per_layer"])
        op_seconds = sum(op["seconds"] for op in traced["ops"])
        self_s = sorted(((m["value"], name[:-len(".self_s")]) for name, m in metrics.items()
                         if name.endswith(".self_s")), reverse=True)
        summary["trace"] = {
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "digests_equal": plain["digests"][:common] == traced["digests"][:common],
            "op_seconds": op_seconds,
            "top_self_share": {name: value / op_seconds for value, name in self_s[:5]},
        }
        metrics["trace_overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": plain["wall_s"], "unit": "s"},
            "main_op_p50_s": {"value": plain["main_op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
            "output_bytes_per_op": {"value": plain["output_bytes"] / len(plain["ops"]),
                                    "unit": "B"},
        }
    with open(os.path.join(base, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
