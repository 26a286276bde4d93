"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests

Runs shortened workloads in-process (fewer tasks per run than the benchmark
uses) and checks the contract of the output: every metric named in
BENCHMARK.json is printed with its unit, and a corrupted golden is counted
as a failure instead of being ignored.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def short(monkeypatch, tmp_path):
    """Shrink every workload to a round or two and keep reports out of the tree."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for wl in workloads.WORKLOADS.values():
        monkeypatch.setattr(wl, "min_tasks", wl.round_size * (2 if wl.round_size < 16 else 1))
        monkeypatch.setattr(wl, "trace_tasks", wl.round_size)
    return tmp_path


def bench(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_emits_every_end_to_end_metric(short, capsys, workload):
    result = bench(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads((short / f"{workload}-seed3-trace0.json").read_text())
    assert report["failed_share"] == 0 and report["source_lines"]["total"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(short, capsys, workload):
    result = bench(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", "1")
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected("per_layer")
    assert (short / f"{workload}-seed3-profile.txt").stat().st_size > 0
    if workload == "jacobi":
        assert metrics["kernel.substitute.calls"]["value"] == 0
        assert metrics["kernel.mul.calls"]["value"] > 0
    if workload == "models":
        assert metrics["kernel.mul.zero_operand_share"]["value"] > 0.9
        assert metrics["cli.run.calls"]["value"] == workloads.Models.round_size
    if workload == "symmetry":
        assert 0 < metrics["symmetry.prolong.hit_share"]["value"] < 1


def test_corrupted_golden_is_counted(short, capsys, monkeypatch):
    real = run.load_golden

    def corrupted(name, seed):
        tasks = [list(task) for task in real(name, seed)]
        tasks[1][1] = "0" * 16
        return tasks

    monkeypatch.setattr(run, "load_golden", corrupted)
    result = bench(capsys, "--workload", "jacobi", "--seed", str(workloads.DEFAULT_SEED),
                   "--seconds", "0", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == 1
    report = json.loads((short / f"jacobi-seed{workloads.DEFAULT_SEED}-trace0.json").read_text())
    assert report["failed_share"] == 1 / result["attempted"]
    assert "golden" in report["failures"][0]


def test_default_seed_matches_golden(short, capsys):
    result = bench(capsys, "--workload", "symmetry", "--seed", str(workloads.DEFAULT_SEED),
                   "--seconds", "0", "--trace", "0")
    assert result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "jacobi",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
