"""Replay every input recorded in ``perfbench/golden.json`` and compare digests.

    python3 tests/replay_golden.py

Each key of ``golden.json`` is the argv of one benchmark operation and maps
to the sha256 of its stdout.  Every key is run here through
``danielewski.cli.main`` in process, with the package imported from
``src/``.  A key that starts with ``verify`` is keyed by the argv of the
construction whose proof it replays: that proof is written to a temporary
file and verified.  Every input whose digest differs is printed, and the
exit code is 1 if there is one.  The file is only read, never rewritten.

The name keeps pytest from collecting this script; ``tests/test_golden.py``
checks a few cheap inputs in the test run, this replays all of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from danielewski import cli  # noqa: E402


def stdout_of(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except Exception as exc:  # a traceback is reported as a differing digest
            return f"traceback: {exc!r}"
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text("utf-8"))
    outputs: dict[str, str] = {}

    def output(argv: list) -> str:
        """Stdout of a construction or analysis, run once per argv."""
        key = json.dumps(argv)
        if key not in outputs:
            outputs[key] = stdout_of(argv)
        return outputs[key]

    differing = checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        proof = Path(tmp) / "proof.json"
        for workload, entries in golden.items():
            for key, expected in entries.items():
                argv = json.loads(key)
                if argv[0] == "verify":
                    proof.write_text(output(argv[1:]), encoding="utf-8")
                    text = stdout_of(["verify", str(proof)])
                else:
                    text = output(argv)
                checked += 1
                if digest(text) != expected:
                    differing += 1
                    print(f"{workload}: {key} gives {digest(text)}, recorded {expected}")
    print(f"{checked} inputs replayed, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
