"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"solve-512": 16, "homogenize-c100": 12, "decompose-512": 16}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload at a tiny N, writing under tmp_path."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    for name, n in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(run.WORKLOADS[name], n=n))
    return tmp_path


def bench(capsys, workload, trace=0, seed=1):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_smoke_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    lines, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    text = "\n".join(lines)
    for m in BENCHMARK["end_to_end"] + (BENCHMARK["per_layer"] if trace else []):
        assert any(m["name"] in line and f" {m['unit']} " in f"{line} " for line in lines), m
    assert "failed_fraction  0 " in text
    record = json.loads((tiny / f"{workload}-seed1" / "result.json").read_text())
    assert record["inputs"]["n"] == TINY[workload]
    assert set(record["environment"]) >= {"python", "numpy", "nproc", "thread_env"}
    if trace:
        assert (tiny / f"{workload}-seed1" / "traced" / "spans.json").is_file()


def test_nonconvergence_counts_as_failed(tiny, monkeypatch, capsys):
    prepare = run.prepare

    def capped(*args):
        plan = prepare(*args)
        plan.cli_args += ["--set", "solver.max_iterations=1"]
        return plan

    monkeypatch.setattr(run, "prepare", capped)
    lines, result = bench(capsys, "solve-512")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    assert any("exit code 2" in line for line in lines)


def test_corrupted_artifact_is_a_hash_mismatch(tiny, monkeypatch, capsys):
    invoke = run.invoke

    def corrupting(plan, rep_dir, mode):
        sample = invoke(plan, rep_dir, mode)
        if rep_dir.name == "rep1":
            with open(rep_dir / "out" / "history.csv", "a", encoding="utf-8") as fh:
                fh.write("#\n")
        return sample

    monkeypatch.setattr(run, "invoke", corrupting)
    lines, result = bench(capsys, "solve-512")
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2
    assert any("differ from the first repetition: ['history.csv']" in line for line in lines)


@pytest.mark.parametrize("workload", list(TINY))
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    w = dataclasses.replace(run.WORKLOADS[workload], n=TINY[workload])
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        (tmp_path / str(i)).mkdir()
        digests.append(run.prepare(w, seed, tmp_path / str(i)).inputs["sha256"])
    assert digests[0] == digests[1] != digests[2]


def test_self_time_and_shares_from_spans():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 1.0, "end": 5.0},
        {"id": 1, "name": "solver.solve_cell", "parent": 0, "start": 1.5, "end": 4.0,
         "iterations": 10, "final_residual": 1e-9},
        {"id": 2, "name": "green.frequency_grid", "parent": 1, "start": 1.5, "end": 2.0},
        {"id": 3, "name": "fieldio.write", "parent": 0, "start": 4.0, "end": 4.5, "bytes": 10**6},
    ]
    probes = {"apply_gamma_s": [0.002, 0.001, 0.003], "fft_s": [0.004]}
    alloc_spans = [{"id": 0, "name": "solver.solve_cell", "parent": None, "start": 0.0,
                    "end": 9.0, "alloc_peak_bytes": 3 * 2**20}]
    metrics, shares = run.per_layer(spans, alloc_spans, probes, 16, 0.0, 4.0)
    assert metrics["solver.solve_cell_s"] == pytest.approx(2.5)
    assert metrics["solver.solve_cell_self_s"] == pytest.approx(2.0)
    assert metrics["solver.iter_ms"] == pytest.approx(250.0)
    assert metrics["solver.alloc_peak_mb"] == pytest.approx(3.0)
    assert metrics["cli.self_s"] == pytest.approx(1.0)
    assert metrics["green.apply_gamma_ms"] == pytest.approx(2.0)
    assert metrics["fieldio.write_mb_per_s"] == pytest.approx(2.0)
    assert metrics["trace.wall_s"] == pytest.approx(5.0)
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    assert metrics["trace.layer_share"] == pytest.approx(0.6)
    assert shares == pytest.approx({"solver.solve_cell": 0.5, "cli.self": 0.2, "fieldio.write": 0.1})


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, exit non-zero and print no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    argv = ["perfbench/run.py", "--workload", "solve-512", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
