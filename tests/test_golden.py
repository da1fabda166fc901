"""Byte-identical output for a few cheap inputs recorded in ``perfbench/golden.json``.

``golden.json`` holds the sha256 of the stdout of each benchmark operation,
keyed by its argv (a ``verify`` by the argv of the construction whose proof
it replays).  The benchmark only reports a differing digest as drift; these
tests fail on it.  They read the file and never rewrite it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from danielewski import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text("utf-8")
)

ANALYZE = [
    "x z = (y + 1) (y - 2)",
    "x^2 z = (y + 1) (y - 3)",
    "x z = (y + 2) y - x",
    "x^2 z = (y - 1)^3 - x",
    "x z = (y + 3)^2 (y - 4)^2 - x",  # singular: refused, empty stdout
]

# the source is the deeper surface, so the auxiliary class is the target's
CYLINDER_ISOS = [
    ("shallow_mix", "x^2 z = (y + 2) (y + 3) (y + 1)", "x z = (y + 2) (y + 3) (y + 1)"),
]

COUNTEREXAMPLES = [
    ("shallow_mix", "x z = (y + 1) (y - 2)"),
    ("rational_roots", "x z = (y + 1/2) (y - 1/2) (y + 3/2)"),
]


def stdout_of(argv, capsys) -> str:
    cli.main(argv)
    return capsys.readouterr().out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("equation", ANALYZE)
def test_analyze_matches_golden_digest(equation, capsys):
    argv = ["analyze", equation]
    assert digest(stdout_of(argv, capsys)) == GOLDEN["analyze_batch"][json.dumps(argv)]


def construct_and_verify_match(workload, argv, capsys, tmp_path):
    proof = stdout_of(argv, capsys)
    assert digest(proof) == GOLDEN[workload][json.dumps(argv)]
    path = tmp_path / "proof.json"
    path.write_text(proof, encoding="utf-8")
    verdict = stdout_of(["verify", str(path)], capsys)
    assert digest(verdict) == GOLDEN[workload][json.dumps(["verify", *argv])]


@pytest.mark.parametrize("workload, source, target", CYLINDER_ISOS)
def test_cylinder_iso_and_verify_match_golden_digests(workload, source, target, capsys, tmp_path):
    construct_and_verify_match(workload, ["cylinder-iso", source, target], capsys, tmp_path)


@pytest.mark.parametrize("workload, equation", COUNTEREXAMPLES)
def test_counterexample_and_verify_match_golden_digests(workload, equation, capsys, tmp_path):
    construct_and_verify_match(workload, ["counterexample", equation], capsys, tmp_path)
