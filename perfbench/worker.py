"""One measured run in a fresh interpreter.

Started by ``run.py`` from the root of a checkout, so the process-wide
caches of the package start cold, as they do for a command-line user.  The
worker imports ``danielewski`` from ``src/``, generates its first round of
inputs, and then calls ``danielewski.cli.main(argv)`` in process, one
operation at a time (a closed loop with one client), round after round,
until the time spent inside operations reaches ``--seconds``.

Everything that is not the operation itself stays outside the per-operation
timers: stdout and stderr are captured in memory, the proof that a
``verify`` reads is written before its timer starts, and each operation's
outputs are appended to ``ops.jsonl`` in the output directory for
``run.py`` to check after this process has ended.

The last line of stdout is a JSON object with ``setup_s``, the operation
time and the peak RSS so far after each round and, with ``--trace 1``, the
per-layer metrics; spans are written to ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--max-rounds", type=int, default=None)
    return p.parse_args(argv)


def run_op(cli, argv) -> tuple:
    """Call the CLI once; return (exit code, seconds, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crashed run
            rc = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue(), error


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    from danielewski import cli

    from workloads import make_round

    proof_dir = os.path.join(args.out_dir, "proofs")
    first_round = make_round(args.workload, args.seed, 0, proof_dir)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(proof_dir, exist_ok=True)
    if args.trace:
        from tracing import Tracer

        tracing = Tracer()
    else:
        tracing = contextlib.nullcontext()
    round_s: list[float] = []
    rss_mb: list[float] = []
    measured = 0.0
    op_id = 0
    with tracing as tracer, open(os.path.join(args.out_dir, "ops.jsonl"), "w",
                                 encoding="utf-8") as log:
        k = 0
        while measured < args.seconds and (args.max_rounds is None or k < args.max_rounds):
            ops = first_round if k == 0 else make_round(args.workload, args.seed, k, proof_dir)
            stdouts: list[str] = []
            spent = 0.0
            for i, op in enumerate(ops):
                if op["kind"] == "verify":
                    with open(op["argv"][1], "w", encoding="utf-8") as fh:
                        fh.write(stdouts[op["proof_of"]])
                if tracer is not None:
                    tracer.op = op_id
                rc, elapsed, out, err, error = run_op(cli, op["argv"])
                spent += elapsed
                stdouts.append(out)
                log.write(json.dumps({
                    "round": k, "index": i, "op": op_id, **op, "rc": rc,
                    "seconds": elapsed, "stdout": out, "stderr": err, "error": error,
                }) + "\n")
                op_id += 1
            round_s.append(spent)
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            measured += spent
            k += 1
    result = {"setup_s": setup_s, "round_s": round_s, "rss_mb": rss_mb}
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        tracer.write_spans(os.path.join(args.out_dir, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
