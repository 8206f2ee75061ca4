"""Compare the benchmark's end-to-end metrics of the working tree and a parent revision in alternating pairs.

    python3 tools/bench_pairs.py --workload W [--parent REV] [--seed S]

Run from anywhere inside the repository.  The script exports REV (default HEAD) with `git archive` and runs
`python3 perfbench/run.py --workload W --seed S --seconds T` PAIRS (10) times from the export and PAIRS times
from the working tree, one run at a time, in pairs that alternate which side goes first (the parent in even
pairs); T is BENCHMARK.json's run_seconds, and S defaults to 7.  It reads each run's last line of standard
output, the benchmark's JSON result, and writes BENCH_<W>.json at the repository root: both revisions, the
environment (nproc, numpy, Python, and the thread counts OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
OMP_NUM_THREADS as the runs inherit them, null where unset), every run's result, each end-to-end metric's
per-run values, medians and quartiles on both sides, the pairs in which the change was better (by
BENCHMARK.json's direction), and the failed counts.  It then prints one summary line per metric and one for
the failures.  A run that exits non-zero or prints no JSON result counts as failed.  Standard library only.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
# The thread counts that OpenBLAS reads when numpy loads; platefft loads it with one thread unless one is set.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The `src` and `perfbench` directories of revision rev, extracted under dest, which it returns."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src", "perfbench"], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON result of one benchmark run from the tree at root, or None if the run failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def spread(values: list[float]) -> dict:
    """The values with their median and quartiles (inclusive method; a single value is its own quartiles)."""
    if not values:
        return {"values": [], "median": None, "q1": None, "q3": None}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric, each side's spread and the pairs the change won; and each side's failed counts.

    runs holds one {"parent": result, "change": result} per pair, a result being run.py's JSON line or None
    for a failed run; directions maps each metric to "lower" or "higher", whichever is better.  A pair counts
    towards a metric only if both of its runs report it; a tie is not a win.
    """
    metrics = {}
    for name, better in directions.items():
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"]) for r in runs
                 if all(r[side] is not None and name in r[side]["metrics"] for side in SIDES)]
        won = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
        unit = next((r[s]["metrics"][name]["unit"] for r in runs for s in SIDES
                     if r[s] is not None and name in r[s]["metrics"]), "")
        metrics[name] = {
            "unit": unit,
            "better": better,
            "parent": spread([p for p, _ in pairs]),
            "change": spread([c for _, c in pairs]),
            "pairs": len(pairs),
            "change_better_pairs": won,
        }
    failed = {}
    for side in SIDES:
        results = [r[side] for r in runs]
        failed[side] = {
            "failed_runs": sum(r is None for r in results),
            "failed_invocations": sum(r["failed"] for r in results if r is not None),
            "attempted_invocations": sum(r["attempted"] for r in results if r is not None),
        }
    return {"metrics": metrics, "failed": failed}


def summary_lines(summary: dict) -> list[str]:
    """One line per metric, then one for the failures, as CHANGES.md quotes them."""
    lines = []
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        if not m["pairs"]:
            lines.append(f"{name}: no pair reported it")
            continue
        change = 100.0 * (c["median"] - p["median"]) / p["median"] if p["median"] else float("nan")
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): parent {p['median']:.4g} (q1 {p['q1']:.4g}, q3 {p['q3']:.4g})"
            f" -> change {c['median']:.4g} (q1 {c['q1']:.4g}, q3 {c['q3']:.4g}), {change:+.1f} %,"
            f" change better in {m['change_better_pairs']} of {m['pairs']} pairs"
        )
    f = summary["failed"]
    lines.append("failed: " + ", ".join(
        f"{side} {f[side]['failed_invocations']} of {f[side]['attempted_invocations']} invocations"
        f" and {f[side]['failed_runs']} runs" for side in SIDES))
    return lines


def environment() -> dict:
    """The CPUs, the numpy and Python versions, and each of THREAD_VARS as the runs inherit it (None where
    unset), so that runs made under a preset thread count say so."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": importlib.metadata.version("numpy"),
        "python": platform.python_version(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--parent", default="HEAD", help="revision to compare with (default HEAD)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {"parent": export(args.parent, Path(tmp) / "export"), "change": ROOT}
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            record = {"pair": i, "first": order[0]}
            for side in order:
                print(f"pair {i + 1} of {PAIRS}: {side}", file=sys.stderr, flush=True)
                record[side] = run_once(roots[side], args.workload, args.seed, seconds)
            runs.append(record)
    summary = summarize(runs, directions)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
        "change": {"rev": "working tree", "base": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "environment": environment(),
        "runs": runs,
        **summary,
    }
    (ROOT / f"BENCH_{args.workload}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"== {args.workload}: parent {args.parent} against the working tree, {PAIRS} pairs, seed {args.seed}")
    print("\n".join(summary_lines(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
