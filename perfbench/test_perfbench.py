"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import WORKLOADS, make_round, singular  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv(workload):
    for k in range(3):
        first = make_round(workload, 7, k, "proofs")
        assert first == make_round(workload, 7, k, "proofs")
    seeds = {json.dumps(make_round(workload, s, 0, "proofs")) for s in range(6)}
    assert len(seeds) > 1


def test_singular_rule():
    assert singular(1, [2], shifted=True)
    assert not singular(2, [2], shifted=True)
    assert singular(3, [1, 2], shifted=False)
    assert not singular(1, [1, 1], shifted=True)


def _originals():
    table = {}
    for key, module in sys.modules.items():
        if key == "danielewski" or key.startswith("danielewski."):
            for names in WRAPPED.values():
                for name in names:
                    if "." not in name and name in module.__dict__:
                        table[(key, name)] = module.__dict__[name]
    mp = sys.modules["danielewski.ratpoly"].MultiPoly
    table[("MultiPoly", "__mul__")] = mp.__dict__["__mul__"]
    return table


def _run_round(ops):
    from danielewski import cli

    stdouts = []
    for op in ops:
        if op["kind"] == "verify":
            with open(op["argv"][1], "w", encoding="utf-8") as fh:
                fh.write(stdouts[op["proof_of"]])
        _, _, out, _, error = run_op(cli, op["argv"])
        assert error is None, error
        stdouts.append(out)
    return [checks.digest(s) for s in stdouts]


def test_traced_run_restores_names_and_output(tmp_path):
    from danielewski import cli  # noqa: F401  (loads every module the tracer patches)

    cheap = make_round("analyze_batch", 3, 0, str(tmp_path))[:12]
    cheap += [
        {"kind": "construct", "expect": "ok",
         "argv": ["cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)"]},
        {"kind": "verify", "expect": "ok", "argv": ["verify", str(tmp_path / "p.json")],
         "proof_of": 12},
    ]
    before = _originals()
    plain = _run_round(cheap)
    tracer = Tracer()
    with tracer:
        assert sys.modules["danielewski.cli"].build_parser is not before[("danielewski.cli", "build_parser")]
        traced = _run_round(cheap)
    after = _originals()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key
    assert traced == plain
    assert tracer.calls["cylinder.cylinder_construction"] == 1
    assert tracer.calls["jsonio.verify_proof"] == 1
    assert tracer.calls["ideals.substitute_reduced"] > 0
    # Every span closed, and self times add up to the root spans' durations.
    assert None not in tracer.spans
    roots = sum(end - start for name, start, end, parent, _ in tracer.spans if parent == -1)
    assert sum(tracer.self_s.values()) == pytest.approx(roots, rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--max-rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(result["metrics"]) == names


def test_checks_flag_bad_outputs(tmp_path):
    from danielewski import cli

    proof_path = str(tmp_path / "p.json")
    ops = [
        {"kind": "construct", "expect": "ok",
         "argv": ["cylinder-iso", "x z = (y - 1) (y + 1)", "x^2 z = (y - 1) (y + 1)"]},
        {"kind": "refuse", "expect": "refuse",
         "argv": ["cylinder-iso", "x z = y (y - 1)", "x^2 z = y (y - 1) (y - 2)"]},
        {"kind": "verify", "expect": "ok", "argv": ["verify", proof_path], "proof_of": 0},
    ]
    records = []
    for i, op in enumerate(ops):
        if op["kind"] == "verify":
            with open(proof_path, "w", encoding="utf-8") as fh:
                fh.write(records[0]["stdout"])
        rc, seconds, out, err, error = run_op(cli, op["argv"])
        records.append({"round": 0, "index": i, "op": i, **op, "rc": rc, "seconds": seconds,
                        "stdout": out, "stderr": err, "error": error})
    validators = checks.load_validators(ROOT)
    clean = checks.check_ops(records, "shallow_mix", validators, {})
    assert clean["failed"] == 0, clean["failures"]

    def failed_ops(mutate):
        bad = json.loads(json.dumps(records))
        mutate(bad)
        return sorted(f["op"] for f in checks.check_ops(bad, "shallow_mix", validators, {})["failures"])

    def unverified(bad):
        doc = json.loads(bad[2]["stdout"])
        doc["verified"], doc["failures"] = False, ["x"]
        bad[2]["stdout"] = json.dumps(doc)

    def no_certificate(bad):
        doc = json.loads(bad[0]["stdout"])
        del doc["certificate"]
        bad[0]["stdout"] = json.dumps(doc)

    assert failed_ops(unverified) == [0, 2]  # the proof no longer replays either
    assert failed_ops(no_certificate) == [0]
    assert failed_ops(lambda bad: bad[1].update(rc=0)) == [1]
    assert failed_ops(lambda bad: bad[1].update(stderr="")) == [1]
    assert failed_ops(lambda bad: bad[0].update(rc=2)) == [0]
    assert failed_ops(lambda bad: bad[0].update(rc=None, error="Traceback\nBoom")) == [0]
    golden = {"shallow_mix": {checks.golden_key(records[1], records): "0" * 64}}
    drift = checks.check_ops(records, "shallow_mix", validators, golden)
    assert (drift["failed"], drift["digest_drift"], drift["golden_checked"]) == (0, 1, 1)
