"""Benchmark of the platefft CLI: seeded inputs, timed invocations, output checks.

    python3 perfbench/run.py --workload solve-512 --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from its `src/`.  The
benchmark is one closed-loop client: every invocation is a fresh child
process (child.py) that calls `platefft.cli.main`, started only after the
previous one has exited, never two at once.

Set-up writes the seeded inputs (inputs.py) and spawns SETUP_SPAWNS children
that only import platefft.  Then invocations run back to back until
`--seconds` have passed and at least two have run, so that every run checks
that repeated invocations write byte-identical artifacts.  Each invocation's
outputs are checked outside its timing; an invocation that exits non-zero or
fails a check counts in `failed`.

With `--trace 0` the metrics are the end-to-end ones, medians over the run.
With `--trace 1` timed invocations run until a traced one would overrun
`--seconds` (at least one runs), then a traced one, which records spans
around each layer call (tracing.py) and doubles as a repetition; the metrics
are then the per-layer ones.  The last line of standard output is the JSON
result.  Every sample, the input record and the environment go to
perfbench/.work/<workload>-seed<seed>/result.json, and the traced run's spans
to traced/spans.json beside it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from tracing import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"

TOLERANCE = 1e-8
SETUP_SPAWNS = 5
INVOCATION_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the platefft subcommand
    n: int


# BENCHMARK.json records why each workload was chosen.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-512", "solve", 512),
        Workload("homogenize-c100", "homogenize", 64),
        Workload("decompose-512", "decompose", 512),
    )
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "microstructure.load_s": "s",
    "microstructure.mandel_grid_s": "s",
    "green.frequency_grid_s": "s",
    "green.apply_gamma_ms": "ms",
    "green.fft_ms": "ms",
    "green.fft_gflop_s": "GFLOP/s",
    "green.weyl_decompose_s": "s",
    "green.to_real_s": "s",
    "solver.select_reference_s": "s",
    "solver.apriori_bound_s": "s",
    "solver.solve_cell_s": "s",
    "solver.solve_cell_self_s": "s",
    "solver.iterations": "count",
    "solver.iter_ms": "ms",
    "solver.final_residual": "1",
    "solver.alloc_peak_mb": "MiB",
    "homogenize.effective_tensor_s": "s",
    "homogenize.iterations": "count",
    "homogenize.iter_ms": "ms",
    "homogenize.bounds_s": "s",
    "fieldio.read_s": "s",
    "fieldio.read_mb_per_s": "MB/s",
    "fieldio.write_s": "s",
    "fieldio.write_mb": "MB",
    "fieldio.write_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_share": "1",
}


@dataclass
class Plan:
    """A workload's CLI arguments, its input record and its output checks."""

    workload: Workload
    cli_args: list[str]
    inputs: dict
    check: Callable[[Path], list[str]]  # the outputs of every invocation
    check_once: Callable[[Path], list[str]] = lambda out: []  # those of the first only


# ---------------------------------------------------------------- inputs


def voigt_reuss(record: dict) -> tuple[np.ndarray, np.ndarray]:
    """Voigt and Reuss averages of a generated microstructure's phases.

    Computed from the generator's own phase table, not by the program, so a
    defect in the program's bounds cannot hide one in its solver.
    """
    voigt = np.zeros((3, 3))
    reuss_inv = np.zeros((3, 3))
    for pid, fraction in record["volume_fractions"].items():
        stiffness = np.array(record["phases"][pid])
        voigt += fraction * stiffness
        reuss_inv += fraction * np.linalg.inv(stiffness)
    return voigt, np.linalg.inv(reuss_inv)


def prepare(workload: Workload, seed: int, run_dir: Path) -> Plan:
    """Write the workload's inputs for `seed` into run_dir."""
    rng = np.random.default_rng(seed)
    pinned = ["--set", "reference.strategy=arithmetic", "--set", f"solver.tolerance={TOLERANCE}"]
    if workload.command == "solve":
        micro = run_dir / "inclusion.micro"
        record = inputs.inclusion_micro(micro, rng, workload.n, contrast=10.0)
        e0 = np.array([1.0, 0.0, 0.0])
        voigt, reuss = voigt_reuss(record)
        energy_range = (float(e0 @ reuss @ e0), float(e0 @ voigt @ e0))
        record["energy_range"] = list(energy_range)
        args = ["solve", "--set", f"micro.file={micro}", "--set", "e0=1,0,0", *pinned]
        return Plan(workload, args, record, lambda out: check_solve(out, energy_range))
    if workload.command == "homogenize":
        micro = run_dir / "three_phase.micro"
        record = inputs.three_phase_micro(micro, rng, workload.n, contrast=100.0)
        args = ["homogenize", "--set", f"micro.file={micro}", *pinned]
        return Plan(workload, args, record, check_homogenize)
    field = run_dir / "gaussian.field"
    record = inputs.gaussian_field(field, rng, workload.n)
    return Plan(
        workload,
        ["decompose", str(field)],
        record,
        lambda out: check_decompose(out, record["mean_square"]),
        lambda out: check_reconstruction(out, field),
    )


# ---------------------------------------------------------------- checks


def read_report(path: Path) -> dict[str, str]:
    """`key rest-of-line` pairs of a report, after its header line."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return dict(line.split(" ", 1) for line in lines if " " in line)


def check_solve(out: Path, energy_range: tuple[float, float]) -> list[str]:
    report = read_report(out / "report.txt")
    problems = []
    if report["converged"] != "true":
        problems.append("solve did not converge")
    residual = float(report["residual"])
    if not residual <= TOLERANCE:
        problems.append(f"residual {residual} above tolerance {TOLERANCE}")
    lo, hi = energy_range
    energy = float(report["energy"])
    slack = 1e-9 * hi
    if not lo - slack <= energy <= hi + slack:
        problems.append(f"energy {energy} outside the Reuss-Voigt range [{lo}, {hi}]")
    for name in ("solution_E.field", "moment_J.field", "history.csv"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    return problems


def check_homogenize(out: Path) -> list[str]:
    report = read_report(out / "report.txt")
    problems = []
    if "verdict bracketed" not in (out / "bounds.txt").read_text(encoding="utf-8").splitlines():
        problems.append("C_hom is not bracketed by the Voigt-Reuss bounds")
    asymmetry = float(report["asymmetry"])
    if not asymmetry < 1e-8:
        problems.append(f"asymmetry {asymmetry} not below 1e-8")
    if not (out / "c_hom.txt").is_file():
        problems.append("missing c_hom.txt")
    return problems


def check_decompose(out: Path, mean_square: float) -> list[str]:
    report = read_report(out / "decompose_report.txt")
    inner = {k: float(v) for k, v in report.items() if k.startswith("inner_")}
    problems = [] if len(inner) == 3 else [f"expected 3 inner products, got {sorted(inner)}"]
    for name, value in inner.items():
        if not abs(value) <= 1e-10 * mean_square:
            problems.append(f"{name} {value} is not near zero")
    return problems


def check_reconstruction(out: Path, field: Path) -> list[str]:
    """pot + sol + mean must give back the input field."""
    original = inputs.read_field(field)
    parts = [inputs.read_field(out / f"part_{p}.field") for p in ("pot", "sol", "mean")]
    error = float(np.abs(sum(parts) - original).max())
    scale = float(np.abs(original).max())
    return [] if error <= 1e-10 * scale else [f"parts differ from the input by {error}"]


def guarded(check: Callable[[Path], list[str]], out: Path) -> list[str]:
    try:
        return check(out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def artifact_hashes(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


# ---------------------------------------------------------------- children


def wait(proc: subprocess.Popen, timeout: float):
    """Reap the child, killing it after `timeout` s; returns (rusage, timed_out)."""
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        if timed_out:
            proc.kill()
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, timed_out


def invoke(plan: Plan, rep_dir: Path, mode: str) -> dict:
    """Run one child (see child.py for `mode`) and time it from outside."""
    rep_dir.mkdir(parents=True)
    stamp = rep_dir / "stamp"
    argv = [sys.executable, str(CHILD), str(stamp), mode, str(rep_dir / "spans.json"), str(plan.workload.n)]
    if mode != "import":
        argv += [*plan.cli_args, "--out", str(rep_dir / "out")]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    with open(rep_dir / "stdout.txt", "wb") as stdout, open(rep_dir / "stderr.txt", "wb") as stderr:
        start = clock()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr
        )
        usage, timed_out = wait(proc, INVOCATION_TIMEOUT_S)
        end = clock()
    sample = {
        "start": start,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
        "setup_s": None,
        "problems": [],
    }
    if timed_out:
        sample["problems"].append(f"killed after {INVOCATION_TIMEOUT_S} s")
    if proc.returncode != 0:
        sample["problems"].append(f"exit code {proc.returncode}")
    if stamp.is_file():
        imported, origin = stamp.read_text(encoding="utf-8").split(maxsplit=1)
        sample["setup_s"] = float(imported) - start
        if not Path(origin.strip()).resolve().is_relative_to(SRC.resolve()):
            sample["problems"].append(f"platefft imported from {origin.strip()}, not from {SRC}")
    else:
        sample["problems"].append("the child never finished importing platefft")
    return sample


def execute(plan: Plan, rep_dir: Path, mode: str, reference: dict | None) -> dict:
    """One CLI invocation with its output checks and artifact hashes."""
    sample = invoke(plan, rep_dir, mode)
    out = rep_dir / "out"
    sample["problems"] += guarded(plan.check, out)
    if reference is None:
        sample["problems"] += guarded(plan.check_once, out)
    sample["hashes"] = artifact_hashes(out)
    if reference is not None and sample["hashes"] != reference:
        differ = sorted(k for k in reference.keys() | sample["hashes"].keys()
                        if reference.get(k) != sample["hashes"].get(k))
        sample["problems"].append(f"artifacts differ from the first repetition: {differ}")
    shutil.rmtree(out, ignore_errors=True)
    return sample


# ---------------------------------------------------------------- metrics


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, if above the median."""
    n = len(samples)
    if n < 22:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(invocations: list[dict], setup_samples: list[dict]) -> dict[str, list[float]]:
    """Samples of each end-to-end metric."""
    samples = {name: [s[name] for s in invocations] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [
        s["setup_s"] for s in setup_samples + invocations if s["setup_s"] is not None
    ]
    return samples


def per_layer(spans: list[dict], alloc_spans: list[dict], probes: dict, n: int,
              traced_start: float, wall_s: float):
    """Per-layer metrics of one traced run, and each top-level layer's share of it.

    Times come from `spans`; allocation peaks from `alloc_spans`, a second
    pass of the same command under tracemalloc.
    """
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration[s["id"]]

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str) -> float:
        return sum(duration[s["id"]] for s in named(name))

    def self_time(name: str) -> float:
        return sum(duration[s["id"]] - covered[s["id"]] for s in named(name))

    root = named("cli.main")[0]
    traced_s = root["end"] - traced_start
    solves = named("solver.solve_cell")
    solve_s = total("solver.solve_cell")
    iterations = sum(s["iterations"] for s in solves)
    homogenize_s = total("homogenize.effective_tensor")
    homogenize_iterations = sum(s["iterations"] for s in named("homogenize.effective_tensor"))
    write_s, write_mb = total("fieldio.write"), sum(s["bytes"] for s in named("fieldio.write")) / 1e6
    read_s, read_mb = total("fieldio.read"), sum(s["bytes"] for s in named("fieldio.read")) / 1e6
    fft_s = statistics.median(probes["fft_s"])
    nominal_flops = 5 * n * n * math.log2(n * n) * 3  # three complex 2-D transforms
    top = [s for s in spans if s["parent"] == root["id"]]
    shares = defaultdict(float)
    for s in top:
        shares[s["name"]] += duration[s["id"]] / traced_s
    shares["cli.self"] = self_time("cli.main") / traced_s
    metrics = {
        "microstructure.load_s": total("microstructure.load"),
        "microstructure.mandel_grid_s": total("microstructure.mandel_grid"),
        "green.frequency_grid_s": total("green.frequency_grid"),
        "green.apply_gamma_ms": 1e3 * statistics.median(probes["apply_gamma_s"]),
        "green.fft_ms": 1e3 * fft_s,
        "green.fft_gflop_s": nominal_flops / fft_s / 1e9,
        "green.weyl_decompose_s": total("green.weyl_decompose"),
        "green.to_real_s": total("green.to_real"),
        "solver.select_reference_s": total("solver.select_reference"),
        "solver.apriori_bound_s": total("solver.apriori_bound"),
        "solver.solve_cell_s": solve_s,
        "solver.solve_cell_self_s": self_time("solver.solve_cell"),
        "solver.iterations": iterations,
        "solver.iter_ms": 1e3 * ratio(solve_s, iterations),
        "solver.final_residual": max((s["final_residual"] for s in solves), default=0.0),
        "solver.alloc_peak_mb": max(
            (s["alloc_peak_bytes"] for s in alloc_spans if "alloc_peak_bytes" in s), default=0
        ) / 2**20,
        "homogenize.effective_tensor_s": homogenize_s,
        "homogenize.iterations": homogenize_iterations,
        "homogenize.iter_ms": 1e3 * ratio(homogenize_s, homogenize_iterations),
        "homogenize.bounds_s": total("homogenize.bounds"),
        "fieldio.read_s": read_s,
        "fieldio.read_mb_per_s": ratio(read_mb, read_s),
        "fieldio.write_s": write_s,
        "fieldio.write_mb": write_mb,
        "fieldio.write_mb_per_s": ratio(write_mb, write_s),
        "cli.self_s": self_time("cli.main"),
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - wall_s,
        "trace.layer_share": sum(duration[s["id"]] for s in top) / traced_s,
    }
    return metrics, dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def environment() -> dict:
    threads = {
        k: v for k, v in os.environ.items() if "THREAD" in k or k.startswith(("OMP_", "MKL_"))
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "thread_env": threads,
    }


# ---------------------------------------------------------------- driver


def traced_budget(invocations: list[dict], trace: bool) -> float:
    """Time to leave for the traced child within `--seconds`.

    The traced child runs the command twice when it solves a cell problem
    (the second time under tracemalloc), so twice the last invocation's wall
    time is set aside; without tracing nothing is.
    """
    return 2.0 * invocations[-1]["wall_s"] if trace and invocations else 0.0


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Set up, measure and check one run; returns its full record."""
    setup_start = clock()
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = prepare(workload, seed, run_dir)
    setup_samples = [invoke(plan, run_dir / f"import{i}", "import") for i in range(SETUP_SPAWNS)]
    setup_end = clock()
    invocations: list[dict] = []
    reference = None
    while len(invocations) < (1 if trace else 2) or clock() - setup_end + traced_budget(
        invocations, trace
    ) < seconds:
        invocations.append(execute(plan, run_dir / f"rep{len(invocations)}", "run", reference))
        reference = invocations[0]["hashes"]
    samples = end_to_end(invocations, setup_samples)
    record = {
        "workload": workload.name,
        "command": workload.command,
        "n": workload.n,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "inputs": plan.inputs,
        "benchmark_setup_s": setup_end - setup_start,
        "setup_samples": setup_samples,
        "invocations": invocations,
        "samples": samples,
        "end_to_end": {name: statistics.median(v) if v else 0.0 for name, v in samples.items()},
    }
    if trace:
        traced = execute(plan, run_dir / "traced", "trace", reference)
        record["traced"] = traced
        spans_file = run_dir / "traced" / "spans.json"
        if spans_file.is_file():
            spans = json.loads(spans_file.read_text(encoding="utf-8"))
            record["span_file"] = str(spans_file)
            record["per_layer"], record["layer_shares"] = per_layer(
                spans["spans"], spans["alloc_spans"], spans["probes"], workload.n, traced["start"],
                record["end_to_end"]["wall_s"],
            )
        else:
            traced["problems"].append("the traced run wrote no spans")
    (run_dir / plan.inputs["file"]).unlink()
    cli_runs = invocations + ([record["traced"]] if trace else [])
    record["attempted"] = len(cli_runs)
    record["failed"] = sum(1 for s in cli_runs if s["problems"])
    record["setup_failed"] = sum(1 for s in setup_samples if s["problems"])
    return record


def result(record: dict) -> dict:
    """The one-line JSON result of a run."""
    if record["trace"]:
        values, units = record.get("per_layer", {}), PER_LAYER
    else:
        values, units = record["end_to_end"], END_TO_END
    correct = record["failed"] == 0 and record["setup_failed"] == 0 and values.keys() == units.keys()
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
    }


def summary(record: dict) -> list[str]:
    """Human-readable lines: every metric by name with unit, n and tail."""
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}"
        f"  trace {record['trace']}"
    ]
    for name, unit in END_TO_END.items():
        samples = record["samples"][name]
        t = tail(samples)
        tail_text = f"p{t[0]:.0f} {t[1]:.6g}" if t else "no tail percentile (n < 22)"
        lines.append(
            f"  {name:<16} median {record['end_to_end'][name]:<12.6g} {unit:<4} n={len(samples):<3} {tail_text}"
        )
    lines.append(
        f"  {'failed_fraction':<16} {ratio(record['failed'], record['attempted']):<19.6g} 1    "
        f"n={record['attempted']:<3} ({record['failed']} of {record['attempted']} invocations failed)"
    )
    for s in record["setup_samples"] + record["invocations"] + [record.get("traced") or {}]:
        for problem in s.get("problems", []):
            lines.append(f"  problem: {problem}")
    if record["trace"]:
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:<30} {record.get('per_layer', {}).get(name, float('nan')):<14.6g} {unit}")
        for name, share in record.get("layer_shares", {}).items():
            lines.append(f"  share of traced wall  {name:<30} {share:7.2%}")
    lines.append("inputs " + json.dumps({k: v for k, v in record["inputs"].items() if k != "phases"}))
    lines.append("environment " + json.dumps(record["environment"]))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "platefft" / "cli.py").is_file():
        print(f"error: no platefft sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    record = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(summary(record)))
    print(json.dumps(result(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
