"""Output checks and golden digests for the operations of one run.

Runs in ``run.py`` after the worker has ended, so no check is ever inside
a timer.  An operation fails its check when:

- it raised (a traceback) or exited with code 2;
- it was expected to succeed and did not exit 0, or printed a document that
  does not validate against ``schemas/report.schema.json`` (``analyze``) or
  ``schemas/proof.schema.json`` (``cylinder-iso``, ``counterexample``);
- it is a proof whose certificate flags are not all true, or that no
  ``verify`` of the same round replayed with ``"verified": true``;
- it is a ``verify`` that did not report ``"verified": true``;
- it was expected to be refused and did not exit 1 with a message on stderr
  and nothing on stdout.

Digests are sha256 of each operation's stdout.  A digest that differs from
the one recorded in ``golden.json`` for the same input is counted as
``digest_drift``; drift is not a failure.
"""

from __future__ import annotations

import hashlib
import json
import os

import jsonschema

FLAGS = ("forward_well_defined", "backward_well_defined",
         "backward_forward_identity", "forward_backward_identity")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_validators(root: str = ".") -> dict:
    validators = {}
    for name in ("report", "proof"):
        with open(os.path.join(root, "schemas", f"{name}.schema.json"), encoding="utf-8") as fh:
            schema = json.load(fh)
        validators[name] = jsonschema.Draft7Validator(schema)
    return validators


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def read_ops(out_dir: str) -> list:
    """The records a worker appended to ``ops.jsonl``, one per operation."""
    with open(os.path.join(out_dir, "ops.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_key(op: dict, ops_of_round: list) -> str:
    """The input an operation's output depends on; a ``verify`` is keyed by
    the construction whose proof it replays."""
    if op["kind"] == "verify":
        return json.dumps(["verify", *ops_of_round[op["proof_of"]]["argv"]])
    return json.dumps(op["argv"])


def _problem(op: dict, validators: dict) -> str | None:
    """Why ``op`` fails its check, or None."""
    if op["error"] is not None:
        return "traceback: " + op["error"].strip().splitlines()[-1]
    rc = op["rc"]
    if rc == 2:
        return "exit code 2: " + op["stderr"].strip()
    if op["expect"] == "refuse":
        if rc != 1:
            return f"expected a refusal (exit 1), got exit {rc}"
        if op["stdout"] or not op["stderr"].strip() or "Traceback" in op["stderr"]:
            return "a refusal must print only a message on stderr"
        return None
    if op["expect"] == "orbit":
        if rc not in (0, 1):
            return f"exit {rc}"
    elif rc != 0:
        return f"exit {rc}: {op['stderr'].strip()}"
    try:
        doc = json.loads(op["stdout"])
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    kind = op["kind"]
    if kind == "analyze":
        error = jsonschema.exceptions.best_match(validators["report"].iter_errors(doc))
        return f"report schema: {error.message}" if error else None
    if kind == "construct":
        error = jsonschema.exceptions.best_match(validators["proof"].iter_errors(doc))
        if error:
            return f"proof schema: {error.message}"
        flags = doc["certificate"]["flags"]
        if not all(flags.get(f) is True for f in FLAGS):
            return "certificate flags are not all true"
        return None
    if kind == "verify":
        if doc.get("verified") is not True or doc.get("failures"):
            return f"replay failed: {doc.get('failures')}"
        return None
    if kind == "cocycle":
        if doc.get("schema") != "danielewski.cocycle/1":
            return "not a cocycle document"
        if op["expect"] == "orbit" and doc.get("equivalent") is not (rc == 0):
            return "orbit exit code disagrees with the printed verdict"
        return None
    return f"unknown operation kind {kind!r}"


def check_ops(ops: list, workload: str, validators: dict, golden: dict) -> dict:
    """Check every operation of a run; ``ops`` are the records of ``ops.jsonl``."""
    by_round: dict[int, list] = {}
    for op in ops:
        by_round.setdefault(op["round"], []).append(op)
    reference = golden.get(workload, {})
    failures = []
    digests = []
    drift = checked = 0
    for round_ops in by_round.values():
        problems = [_problem(op, validators) for op in round_ops]
        replayed = {op["proof_of"] for op, problem in zip(round_ops, problems)
                    if op["kind"] == "verify" and problem is None}
        for op, problem in zip(round_ops, problems):
            if problem is None and op["kind"] == "construct" and op["index"] not in replayed:
                problem = "proof did not replay through verify"
            if problem is not None:
                failures.append({"op": op["op"], "argv": op["argv"], "problem": problem})
            d = digest(op["stdout"])
            digests.append(d)
            key = golden_key(op, round_ops)
            if key in reference:
                checked += 1
                drift += reference[key] != d
    return {
        "failed": len(failures),
        "failures": failures,
        "digest": digest("\n".join(digests)),
        "digests": digests,
        "digest_drift": drift,
        "golden_checked": checked,
    }


def op_digests(ops: list) -> dict:
    """Golden entries ``{input key: stdout digest}`` for a run's operations."""
    by_round: dict[int, list] = {}
    for op in ops:
        by_round.setdefault(op["round"], []).append(op)
    return {golden_key(op, r): digest(op["stdout"]) for r in by_round.values() for op in r}
