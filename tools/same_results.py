"""Check that the working tree writes the same artifacts as a parent revision.

    python3 tools/same_results.py [--parent REV]

Run from anywhere inside the repository.  The script exports REV (default
HEAD) with `git archive`, writes the seeded inputs once with the benchmark's
generator (perfbench/inputs.py, imported unchanged), and runs one fixed case
list through `platefft.cli.main` against the parent's `src` and against the
working tree's `src`.  Each side runs on all usable CPUs and on one; a
one-CPU child pins itself with os.sched_setaffinity before it imports numpy,
so only its own process is affected.  Every case runs in a fresh process,
one at a time.  The cases cover every subcommand and every stop of the
solver's loop (see `cases`).

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

    It covers every subcommand, the split loop (N = 512) under CG and under the fixed point (the manual rule at
    the arithmetic lam0 of that file, 5.5), the split loop on a cell where every plane of C varies
    (solve-256-aniso: perfbench's three-phase generator at N = 256, whose rows of C:X sum three terms on each
    half), an odd grid (N = 33), a generated chessboard, all three reference strategies (geometric on the
    chessboard, manual in spectrum and in a divergent chessboard solve that exits 2), homogenize's analytic anchor
    lines for a laminate and a chessboard, and an N = 16 file whose phase table holds a stiff phase that is absent
    from the map, so that the eigen-range, the Voigt-Reuss fractions and the a-priori bound run over present
    phases only.  solve-12-overflow runs the geometric fixed point on a
    contrast-7 inclusion until its iterates overflow (714 iterations, residual inf, exit 2): the one path where x
    holds inf, so a product 0 * x would be nan, not +-0.  decompose-8 weighs the Nyquist rows, which hold 15 of its 64
    modes (0.4 % at N = 512), and which weyl_decompose projects where Gamma annihilates them.  Two cases exit 1:
    homogenize-singular-4, whose one phase converges but has no usable inverse for the Reuss bound, and
    decompose-8-overflow, an N = 8 field near 1e307 whose L2 inner products overflow.  The solve-33-* cases reach
    each stop of the solver's loop that the others do not, on solve-33's cell and load under CG: the rounding
    floor (tolerance 1e-14; 68 iterations, residual 6.1e-14, exit 2), an underflowing <r, z> (tolerance 1e-300;
    427 iterations, exit 2), the budget (max_iterations 5, exit 2), and a first iteration that overflows
    (e0 = 1e200, exit 1).
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    inputs_dir.mkdir(parents=True)
    inclusion = inputs_dir / "inclusion512.micro"
    inputs.inclusion_micro(inclusion, np.random.default_rng(SEED), 512, contrast=10.0)
    three_phase = inputs_dir / "three_phase64.micro"
    inputs.three_phase_micro(three_phase, np.random.default_rng(SEED), 64, contrast=100.0)
    three_phase256 = inputs_dir / "three_phase256.micro"
    inputs.three_phase_micro(three_phase256, np.random.default_rng(SEED), 256, contrast=100.0)
    absent = inputs_dir / "absent_phase16.micro"  # phase 1 is in the table only; the map holds phases 0 and 2
    stripes = np.where(np.add.outer(np.arange(16), np.arange(16)) % 4 == 0, 2, 0)  # diagonal stripes of phase 2
    anisotropic = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    inputs.write_micro(absent, {0: np.eye(3), 1: 1000.0 * np.eye(3), 2: anisotropic}, stripes)
    singular = inputs_dir / "singular4.micro"  # positive definite, but below StiffTensor4.inverse's threshold
    inputs.write_micro(singular, {0: np.diag([1.0, 1.0, 1e-13])}, np.zeros((4, 4), dtype=np.int64))
    fields = {n: inputs_dir / f"gaussian{n}.field" for n in (8, 33, 512)}
    for n, path in fields.items():
        inputs.gaussian_field(path, np.random.default_rng(SEED), n)
    huge = inputs_dir / "huge8.field"  # finite entries whose L2 inner products overflow
    with open(huge, "w", encoding="utf-8") as fh:
        fh.write("plate-field v1 d 2 N 8 m 3\n")
        np.savetxt(fh, np.random.default_rng(SEED).standard_normal((64, 3)) * 1e307, fmt="%.17g")
    arithmetic = ["--set", "reference.strategy=arithmetic"]
    pinned = [*arithmetic, "--set", "solver.tolerance=1e-8"]
    generated = ["--set", "micro.generator=inclusion", "--set", "micro.n=33", "--set", "micro.beta=10"]
    chessboard = ["--set", "micro.generator=chessboard", "--set", "micro.n=16", "--set", "micro.beta=3"]
    laminate = ["--set", "micro.generator=laminate", "--set", "micro.n=16", "--set", "micro.beta=3",
                "--set", "micro.fraction=0.25", "--set", "micro.axis=1"]
    geometric = ["--set", "reference.strategy=geometric", "--set", "solver.tolerance=1e-8"]
    manual = ["--set", "reference.strategy=manual", "--set", "reference.lambda0=6"]
    fixed_point = ["--set", "reference.strategy=manual", "--set", "reference.lambda0=5.5", "--set", "solver.tolerance=1e-8"]
    divergent = ["--set", "micro.generator=chessboard", "--set", "micro.n=8", "--set", "micro.beta=3",
                 "--set", "reference.strategy=manual", "--set", "reference.lambda0=0.05", "--set", "solver.max_iterations=100"]
    overflow = ["--set", "micro.generator=inclusion", "--set", "micro.n=12", "--set", "micro.beta=7",
                "--set", "reference.strategy=geometric"]
    return {
        "solve-512": ["solve", "--set", f"micro.file={inclusion}", "--set", "e0=1,0,0", *pinned],
        "solve-512-fixed-point": ["solve", "--set", f"micro.file={inclusion}", "--set", "e0=1,0,0", *fixed_point],
        "solve-256-aniso": ["solve", "--set", f"micro.file={three_phase256}", "--set", "e0=1,0.5,0.25", *pinned],
        "solve-33": ["solve", *generated, "--set", "e0=1,0.5,0.25", *pinned],
        "solve-33-rounding-floor": ["solve", *generated, "--set", "e0=1,0.5,0.25", *arithmetic,
                                    "--set", "solver.tolerance=1e-14"],
        "solve-33-rz-underflow": ["solve", *generated, "--set", "e0=1,0.5,0.25", *arithmetic,
                                  "--set", "solver.tolerance=1e-300"],
        "solve-33-budget": ["solve", *generated, "--set", "e0=1,0.5,0.25", *pinned, "--set", "solver.max_iterations=5"],
        "solve-33-e0-overflow": ["solve", *generated, "--set", "e0=1e200,0,0", *pinned],
        "solve-chessboard-16": ["solve", *chessboard, "--set", "e0=0,0,1", *pinned],
        "solve-chessboard-16-geometric": ["solve", *chessboard, "--set", "e0=1,0.5,0", *geometric],
        "solve-chessboard-8-divergent": ["solve", *divergent, "--set", "e0=1,0,0"],
        "solve-12-overflow": ["solve", *overflow, "--set", "e0=1,0,0"],
        "homogenize-c100": ["homogenize", "--set", f"micro.file={three_phase}", *pinned],
        "homogenize-laminate-16": ["homogenize", *laminate, *pinned],
        "homogenize-chessboard-16": ["homogenize", *chessboard, *pinned],
        "homogenize-absent-phase-16": ["homogenize", "--set", f"micro.file={absent}", *pinned],
        "homogenize-singular-4": ["homogenize", "--set", f"micro.file={singular}"],
        "spectrum-512": ["spectrum", "--set", f"micro.file={inclusion}", "--seed", str(SEED)],
        "spectrum-absent-phase-16": ["spectrum", "--set", f"micro.file={absent}", "--seed", str(SEED)],
        "spectrum-33": ["spectrum", *generated, "--seed", str(SEED)],
        "spectrum-33-manual": ["spectrum", *generated, *manual, "--seed", str(SEED)],
        "green-8": ["green", "--y", "0.25,0.5", "--cutoff", "8"],
        "green-40": ["green", "--y", "0.25,0.5", "--cutoff", "40"],
        "generate": ["generate", *generated],
        "decompose-8": ["decompose", str(fields[8])],
        "decompose-8-overflow": ["decompose", str(huge)],
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
