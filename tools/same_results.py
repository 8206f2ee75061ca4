"""Check that the working tree writes the same artifacts as a parent revision.

    python3 tools/same_results.py [--parent REV]

Run from anywhere inside the repository.  The script exports REV (default
HEAD) with `git archive`, writes the seeded inputs once with the benchmark's
generator (perfbench/inputs.py, imported unchanged), and runs one fixed case
list through `platefft.cli.main` against the parent's `src` and against the
working tree's `src`.  Each side runs on all usable CPUs and on one; a
one-CPU child pins itself with os.sched_setaffinity before it imports numpy,
so only its own process is affected.  Every case runs in a fresh process,
one at a time.

Three comparisons are printed, one line per artifact (the files a case
writes, plus its stdout, stderr and exit code): parent against change on
all CPUs, parent against change on one CPU, and the change's one-CPU run
against its all-CPU run.  A line reads `identical`, or `differs` with the
number of changed values and the largest absolute and relative difference.
The exit code is 0 when every artifact is identical and 1 otherwise.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

# argv[1] is "all" or the CPU to pin to, argv[2] the src directory to import platefft from
CHILD = """import os, sys
if sys.argv[1] != "all":
    os.sched_setaffinity(0, {int(sys.argv[1])})
sys.path.insert(0, sys.argv[2])
from platefft.cli import main
sys.exit(main(sys.argv[3:]))
"""


def diff_values(a: bytes, b: bytes) -> str:
    """`identical`, or `differs` with the changed values among the whitespace- or comma-separated tokens."""
    if a == b:
        return "identical"
    ta, tb = a.replace(b",", b" ").split(), b.replace(b",", b" ").split()
    if len(ta) != len(tb):
        return f"differs: {len(ta)} against {len(tb)} values"
    changed = [(x, y) for x, y in zip(ta, tb) if x != y]
    max_abs = max_rel = 0.0
    for x, y in changed:
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            continue
        size = max(abs(fx), abs(fy))
        max_abs = max(max_abs, abs(fx - fy))
        max_rel = max(max_rel, abs(fx - fy) / size if size else 0.0)
    return f"differs: {len(changed)} of {len(ta)} values, max abs {max_abs:.3g}, max rel {max_rel:.3g}"


def compare_trees(a: Path, b: Path) -> dict[str, str]:
    """diff_values of every file under either tree, keyed by its path relative to the tree's root."""
    names = sorted({p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*") if p.is_file()})
    verdicts = {}
    for name in names:
        pa, pb = a / name, b / name
        if pa.is_file() and pb.is_file():
            verdicts[name] = diff_values(pa.read_bytes(), pb.read_bytes())
        else:
            verdicts[name] = f"differs: only in {a if pa.is_file() else b}"
    return verdicts


def export(rev: str, dest: Path) -> Path:
    """The `src` directory of revision rev, extracted under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest / "src"


def cases(inputs_dir: Path) -> dict[str, list[str]]:
    """The fixed case list, as CLI arguments without --out; writes the seeded inputs into inputs_dir.

    It covers every subcommand, the split loop (N = 512), an odd grid (N = 33), a generated chessboard, all three
    reference strategies (geometric on the chessboard, manual in spectrum) and homogenize's analytic anchor lines
    for a laminate and a chessboard.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    inputs_dir.mkdir(parents=True)
    inclusion = inputs_dir / "inclusion512.micro"
    inputs.inclusion_micro(inclusion, np.random.default_rng(SEED), 512, contrast=10.0)
    three_phase = inputs_dir / "three_phase64.micro"
    inputs.three_phase_micro(three_phase, np.random.default_rng(SEED), 64, contrast=100.0)
    fields = {n: inputs_dir / f"gaussian{n}.field" for n in (33, 512)}
    for n, path in fields.items():
        inputs.gaussian_field(path, np.random.default_rng(SEED), n)
    pinned = ["--set", "reference.strategy=arithmetic", "--set", "solver.tolerance=1e-8"]
    generated = ["--set", "micro.generator=inclusion", "--set", "micro.n=33", "--set", "micro.beta=10"]
    chessboard = ["--set", "micro.generator=chessboard", "--set", "micro.n=16", "--set", "micro.beta=3"]
    laminate = ["--set", "micro.generator=laminate", "--set", "micro.n=16", "--set", "micro.beta=3",
                "--set", "micro.fraction=0.25", "--set", "micro.axis=1"]
    geometric = ["--set", "reference.strategy=geometric", "--set", "solver.tolerance=1e-8"]
    manual = ["--set", "reference.strategy=manual", "--set", "reference.lambda0=6"]
    return {
        "solve-512": ["solve", "--set", f"micro.file={inclusion}", "--set", "e0=1,0,0", *pinned],
        "solve-33": ["solve", *generated, "--set", "e0=1,0.5,0.25", *pinned],
        "solve-chessboard-16": ["solve", *chessboard, "--set", "e0=0,0,1", *pinned],
        "solve-chessboard-16-geometric": ["solve", *chessboard, "--set", "e0=1,0.5,0", *geometric],
        "homogenize-c100": ["homogenize", "--set", f"micro.file={three_phase}", *pinned],
        "homogenize-laminate-16": ["homogenize", *laminate, *pinned],
        "homogenize-chessboard-16": ["homogenize", *chessboard, *pinned],
        "spectrum-512": ["spectrum", "--set", f"micro.file={inclusion}", "--seed", str(SEED)],
        "spectrum-33": ["spectrum", *generated, "--seed", str(SEED)],
        "spectrum-33-manual": ["spectrum", *generated, *manual, "--seed", str(SEED)],
        "green-8": ["green", "--y", "0.25,0.5", "--cutoff", "8"],
        "green-40": ["green", "--y", "0.25,0.5", "--cutoff", "40"],
        "generate": ["generate", *generated],
        "decompose-33": ["decompose", str(fields[33])],
        "decompose-512": ["decompose", str(fields[512])],
    }


def run_case(src: Path, cpus: str, argv: list[str], out: Path) -> None:
    """Run one case in a fresh process with out as its working directory and --out; keep stdout, stderr and exit code."""
    out.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-c", CHILD, cpus, str(src), *argv, "--out", "."], cwd=out, capture_output=True)
    (out / "stdout").write_bytes(proc.stdout)
    (out / "stderr").write_bytes(proc.stderr)
    (out / "exit_code").write_text(f"{proc.returncode}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare the working tree's artifacts with a parent revision's.")
    parser.add_argument("--parent", default="HEAD", help="revision to compare with (default HEAD)")
    args = parser.parse_args(argv)
    one_cpu = str(min(os.sched_getaffinity(0)))
    with tempfile.TemporaryDirectory(prefix="same_results-") as tmp:
        tmp = Path(tmp)
        sides = {"parent": export(args.parent, tmp / "export"), "change": ROOT / "src"}
        case_args = cases(tmp / "inputs")
        for side, src in sides.items():
            for cpus in ("all", one_cpu):
                for name, case in case_args.items():
                    where = "all CPUs" if cpus == "all" else f"CPU {cpus}"
                    print(f"running {side} on {where}: {name}", file=sys.stderr, flush=True)
                    run_case(src, cpus, case, tmp / side / cpus / name)
        comparisons = {
            f"parent {args.parent} against change, all CPUs": (tmp / "parent" / "all", tmp / "change" / "all"),
            f"parent {args.parent} against change, CPU {one_cpu} only": (tmp / "parent" / one_cpu, tmp / "change" / one_cpu),
            f"change, CPU {one_cpu} only against all CPUs": (tmp / "change" / one_cpu, tmp / "change" / "all"),
        }
        summary = []
        for title, (a, b) in comparisons.items():
            verdicts = compare_trees(a, b)
            print(f"== {title}")
            for name, verdict in verdicts.items():
                print(f"{name}: {verdict}")
            same = sum(v == "identical" for v in verdicts.values())
            summary.append((title, same, len(verdicts)))
    print("== summary")
    for title, same, total in summary:
        print(f"{title}: {same} of {total} artifacts identical")
    return 0 if all(same == total for _, same, total in summary) else 1


if __name__ == "__main__":
    sys.exit(main())
