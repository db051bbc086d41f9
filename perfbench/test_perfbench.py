"""The benchmark's own tests: smoke runs on tiny inputs and the gate tripping.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import metric_units  # noqa: E402

REPRODUCE = ROOT / "src" / "orbifloer" / "data" / "reproduce"


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def smoke(workload, trace=0, root=ROOT):
    return bench(
        "--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--smoke",
        root=root,
    )


@pytest.mark.parametrize("workload", ["region-square", "region-wp", "fiber-probe"])
def test_smoke_prints_every_end_to_end_metric(workload):
    code, lines = smoke(workload)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = "\n".join(lines[:-1])
    for name, unit in list(END_TO_END.items()) + [("fail_ratio", "ratio")]:
        assert name in table and unit in table
    assert "nproc=" in table and "numpy=" in table


def test_traced_smoke_prints_every_layer_metric():
    code, lines = smoke("region-wp", trace=1)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metric_units()
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # wp:1,2,2 through reproduce p1aa-a2: every candidate is feasible
    assert m["region.scenarios"] == m["region.feasible"] == m["region.scenario_region.calls"] > 0
    assert m["ltsolver.solve.calls"] <= m["region.feasible"]
    assert "self_s" in "\n".join(lines)


def test_benchmark_json_lists_every_metric():
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench_json["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench_json["per_layer"]} == metric_units()


def test_missing_package_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, lines = smoke("fiber-probe", root=tmp_path)
    assert code != 0 and not lines


def test_corrupted_critical_points_trip_the_gate(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    pot = tmp_path / "src" / "orbifloer" / "potential.py"
    pot.write_text(
        pot.read_text()
        + "\n\n_exact_critical_points = critical_points\n\n\n"
        "def critical_points(*args, **kwargs):\n"
        "    return [CriticalPoint(tuple(1.01 * c for c in p.y), p.residual)\n"
        "            for p in _exact_critical_points(*args, **kwargs)]\n"
    )
    code, lines = smoke("fiber-probe", root=tmp_path)
    result = json.loads(lines[-1])
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert any("critical residual" in ln for ln in lines)


def test_changed_expectation_trips_the_gate(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    committed = tmp_path / "src" / "orbifloer" / "data" / "reproduce" / "p1aa-a2.json"
    committed.write_text(committed.read_text().replace('"member": true', '"member": false', 1))
    code, lines = smoke("region-wp", root=tmp_path)
    result = json.loads(lines[-1])
    assert code == 1 and result["failed"] >= 1
    assert any("differs from committed" in ln for ln in lines)


def test_region_check_rejects_a_moved_witness_and_a_bad_certificate():
    doc = json.loads((REPRODUCE / "p135-region.json").read_text())["region"]
    assert gate.RegionCheck(doc).problems == []
    moved = copy.deepcopy(doc)
    moved["pieces"][0]["witness"] = ["100", "100"]
    assert any("witness violates" in p for p in gate.RegionCheck(moved).problems)
    bent = copy.deepcopy(doc)
    numeric = next(p for p in bent["pieces"] if not p["verdict"]["certificate"]["exact"])
    numeric["verdict"]["certificate"]["y"][0]["re"] += 1e-3
    assert any("certificate residual" in p for p in gate.RegionCheck(bent).problems)


def test_query_check_catches_a_wrong_answer():
    from orbifloer.region import QueryReport

    doc = json.loads((REPRODUCE / "p135-region.json").read_text())["region"]
    check = gate.RegionCheck(doc)
    u = (Fraction(-1, 10), Fraction(1, 100))  # a member, per the committed queries
    assert check.query_problems(QueryReport(u, False, ()), u)


def test_reproduce_byte_compare():
    text = (REPRODUCE / "wp-1-3-5-box.json").read_text()
    assert gate.reproduce_problems("wp-1-3-5-box", text, REPRODUCE) == []
    assert gate.reproduce_problems("wp-1-3-5-box", text.replace("1", "2", 1), REPRODUCE)
