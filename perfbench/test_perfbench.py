"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest -q perfbench      # from the repository root, ~1 min
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles import Hull2D, Segment, poly_from_roots, principal_roots  # noqa: E402
from run import END_TO_END, tail_level  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )
    return proc


def test_spec_matches_printed_metrics():
    spec = _spec()
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer_metrics()
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_workload_has_a_tail_percentile():
    for workload in WORKLOADS.values():
        assert tail_level(workload.min_passes * len(workload.ops)) >= 0.75


def test_oracles_on_known_values():
    # <x^3, y^2> in the plane: lct = 1/3 + 1/2
    for oracle in (Hull2D([(3, 0), (0, 2)]), Segment([(3, 0), (0, 2)])):
        assert oracle.threshold((1, 1)) == Fraction(5, 6)
        assert oracle.member((1, 1), Fraction(5, 6), strict=False)
        assert not oracle.member((1, 1), Fraction(5, 6), strict=True)
    assert poly_from_roots(principal_roots(2)) == [Fraction(1, 2), Fraction(3, 2), 1]


def test_smoke_run_prints_every_metric():
    proc = _run("--workload", "ideal-scan", "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    proc = _run("--workload", "bfunction-elim", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["bsato.groebner_basis.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_corrupted_reference_counts_as_failure(tmp_path):
    table = json.loads((HERE / "expected.json").read_text())
    key = "multiplier square [[1,0,0],[1,1,1]] 3/2 relint"
    table[key]["generators"][0][0] += 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(table))
    proc = _run("--workload", "ideal-scan", "--seed", "3", "--seconds", "0.1", "--trace", "0",
                "--expected", str(corrupted))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert key in proc.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ideal-scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_reference_is_present(name):
    table = json.loads((HERE / "expected.json").read_text())
    for op in WORKLOADS[name].ops:
        if not op.principal and op.kind != "guard":
            assert op.key in table, op.key
            assert table[op.key]["crosscheck"]
