import contextlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platefft
from platefft import fieldio, green
from platefft.cli import main
from platefft.fieldio import read_field, write_field
from platefft.green import SpectralField, weyl_decompose
from platefft.mandel import StiffTensor4
from platefft.microstructure import generate_inclusion, save_microstructure


SRC = os.path.dirname(os.path.dirname(platefft.__file__))


def run(*argv):
    return main(list(argv))


def run_rejected(capsys, *argv):
    """Run the CLI on an input it must reject: exit 1, one `error:` line, no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert [str(w.message) for w in caught] == []
    return err


def process_rejected(*argv):
    """Run `python -W error -m platefft.cli` on an input it must reject: exit 1, one `error:` line, no traceback."""
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "platefft.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr
    return proc.stderr


CHESSBOARD = (
    "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
    "--set", "micro.beta=3", "--set", "micro.n=4",
)

DIVERGENT = (
    "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
    "--set", "micro.beta=3", "--set", "micro.n=8",
    "--set", "reference.strategy=manual", "--set", "reference.lambda0=0.05",
    "--set", "solver.max_iterations=100", "--set", "e0=1,0,0",
)

OVERFLOWING = {  # the command, its load and the error it prints
    "solve-e0": ("solve", ["--set", "e0=1e308,0,0"],
                 "the first iteration overflows: e0 [1e+308, 0.0, 0.0] is too large"),
    "solve-e0-squared": ("solve", ["--set", "e0=1e155,0,0"],
                         "the first iteration overflows: e0 [1e+155, 0.0, 0.0] is too large"),
    "spectrum-lambda0": ("spectrum", ["--set", "reference.strategy=manual", "--set", "reference.lambda0=1e308"],
                         "the power iteration overflows: lambda0 1e+308 is too large"),
    "spectrum-lambda0-tiny": ("spectrum", ["--set", "reference.strategy=manual", "--set", "reference.lambda0=1e-160"],
                              "the power iteration overflows: lambda0 1e-160 is too far below the stiffness 3"),
}

HUGE_REFERENCE = {
    "solve-lambda0": ("solve", ["--set", "e0=1,0,0", "--set", "reference.strategy=manual",
                                "--set", "reference.lambda0=1e308"]),
    "homogenize-lambda0": ("homogenize", ["--set", "reference.strategy=manual", "--set", "reference.lambda0=1e308"]),
}


def report_dict(path):
    out = {}
    for line in path.read_text().splitlines()[1:]:
        key, _, value = line.partition(" ")
        out[key] = value
    return out


class TestSolveCommand:
    def test_homogeneous_run(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "solve", "--out", str(out),
            "--set", "micro.generator=chessboard",
            "--set", "micro.alpha=2", "--set", "micro.beta=2",
            "--set", "micro.n=8", "--set", "e0=1,0,0",
        )
        assert code == 0
        report = report_dict(out / "report.txt")
        assert report["converged"] == "true"
        assert report["iterations"] == "1"
        assert float(report["residual"]) == 0.0
        for name in ("solution_E.field", "moment_J.field", "history.csv"):
            assert (out / name).exists()
        e = read_field(out / "solution_E.field")
        np.testing.assert_array_equal(e, np.broadcast_to([1.0, 0, 0], (8, 8, 3)))

    def test_artifact_headers_carry_version(self, tmp_path):
        out = tmp_path / "run"
        run(
            "solve", "--out", str(out),
            "--set", "micro.generator=laminate", "--set", "micro.alpha=1",
            "--set", "micro.beta=3", "--set", "micro.n=8", "--set", "e0=1,0,0",
        )
        assert (out / "report.txt").read_text().startswith("plate-report v1\n")
        assert (out / "history.csv").read_text().startswith("# plate-history v1\n")
        assert (out / "solution_E.field").read_text().startswith("plate-field v1 ")

    def test_missing_micro_file_exits_1_without_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "solve", "--out", str(out),
            "--set", "micro.file=/nonexistent/cell.micro", "--set", "e0=1,0,0",
        )
        assert code == 1
        assert not out.exists()

    def test_three_dimensional_micro_file_exits_1_without_outputs(self, tmp_path):
        identity6 = np.eye(6)[np.triu_indices(6)]
        micro = tmp_path / "cube.micro"
        micro.write_text(
            "plate-micro v1\n"
            "d 3 N 2 phases 1\n"
            "phase 0 " + " ".join(f"{v:g}" for v in identity6) + "\n"
            + "0 0\n" * 4
        )
        out = tmp_path / "run"
        code = run("solve", "--out", str(out), "--set", f"micro.file={micro}", "--set", "e0=1,0,0")
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("e0", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_nonfinite_e0_exits_1_without_report(self, tmp_path, e0):
        out = tmp_path / "run"
        code = run(
            "solve", "--out", str(out),
            "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
            "--set", "micro.beta=3", "--set", "micro.n=8", "--set", f"e0={e0}",
        )
        assert code == 1
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("setting", ["micro.beta=nan", "micro.beta=inf", "micro.alpha=-inf"])
    def test_nonfinite_phase_stiffness_exits_1(self, tmp_path, capsys, setting):
        out = tmp_path / "run"
        err = run_rejected(
            capsys, "solve", "--out", str(out), "--set", "micro.generator=chessboard",
            "--set", "micro.n=8", "--set", setting, "--set", "e0=1,0,0",
        )
        assert "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "phase_row, phase_map",
        [("phase 0 1 0 0 1 0 1", "0 0 0 99999999999999999999"), ("phase 0 inf 0 0 1 0 1", "0 0 0 0")],
        ids=["map-entry-beyond-int64", "infinite-phase-row"],
    )
    def test_bad_micro_file_exits_1(self, tmp_path, capsys, phase_row, phase_map):
        micro = tmp_path / "bad.micro"
        micro.write_text(f"plate-micro v1\nd 2 N 2 phases 1\n{phase_row}\n{phase_map}\n")
        out = tmp_path / "run"
        run_rejected(capsys, "solve", "--out", str(out), "--set", f"micro.file={micro}", "--set", "e0=1,0,0")
        assert not out.exists()

    def test_negative_grid_size_in_micro_file_exits_1(self, tmp_path, capsys):
        micro = tmp_path / "negative.micro"
        micro.write_text("plate-micro v1\nd 2 N -2 phases 1\nphase 0 1 0 0 1 0 1\n0 0 0 0\n")
        out = tmp_path / "run"
        err = run_rejected(capsys, "solve", "--out", str(out), "--set", f"micro.file={micro}", "--set", "e0=1,0,0")
        assert "got N=-2" in err
        assert not out.exists()

    @pytest.mark.parametrize("stiffness", ["1e-200", "1e200"])
    def test_geometric_reference_at_the_ends_of_the_float_range(self, tmp_path, stiffness):
        # mu_min * mu_max underflows to 0 or overflows to inf here; the geometric rule still finds lambda0
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                "solve", "--out", str(out), "--set", "micro.generator=chessboard", "--set", "micro.n=8",
                "--set", f"micro.alpha={stiffness}", "--set", f"micro.beta={stiffness}",
                "--set", "reference.strategy=geometric", "--set", "e0=1,0,0",
            )
        assert code == 0
        strategy, _, lambda0 = report_dict(out / "report.txt")["reference"].split()
        assert strategy == "geometric" and float(lambda0) == pytest.approx(float(stiffness), rel=1e-15)

    def test_divergent_manual_reference_exits_2_with_flag(self, tmp_path):
        out = tmp_path / "run"
        code = run("solve", "--out", str(out), *DIVERGENT)
        assert code == 2
        report = report_dict(out / "report.txt")
        assert report["converged"] == "false"
        assert report["series_factor"] == "divergent"

    def test_series_factor_potential_next_to_trace_factor(self, tmp_path, capsys):
        # series_factor is the paper's trace-reference estimate and reads divergent for every
        # arithmetic run; series_factor_potential is the one of the lam0 * Id reference the solver runs
        cell = ["--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
                "--set", "micro.beta=3", "--set", "micro.n=8"]
        assert run("solve", "--out", str(tmp_path / "solve"), *cell, "--set", "e0=1,0,0") == 0
        report = report_dict(tmp_path / "solve" / "report.txt")
        keys = list(report)
        assert keys.index("series_factor_potential") == keys.index("series_factor") + 1
        assert report["series_factor"] == "divergent"
        want = 1.0 / (1.0 - float(report["spectral_bound"]))
        assert float(report["series_factor_potential"]) == pytest.approx(want, rel=1e-14)
        assert run("homogenize", "--out", str(tmp_path / "hom"), *cell) == 0
        assert run("spectrum", "--out", str(tmp_path / "spec"), *cell) == 0
        for path in (tmp_path / "hom" / "report.txt", tmp_path / "spec" / "spectrum.txt"):
            assert report_dict(path)["series_factor_potential"] == report["series_factor_potential"]

    def test_series_factor_potential_divergent_for_geometric_contrast_100(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "solve", "--out", str(out),
            "--set", "micro.generator=inclusion", "--set", "micro.alpha=1",
            "--set", "micro.beta=100", "--set", "micro.n=16",
            "--set", "reference.strategy=geometric",
            "--set", "solver.max_iterations=20", "--set", "e0=1,0,0",
        )
        assert code == 2
        report = report_dict(out / "report.txt")
        assert report["series_factor"] == report["series_factor_potential"] == "divergent"

    @pytest.mark.parametrize("source", ["generator", "file"])
    def test_non_positive_definite_phase_exits_1(self, tmp_path, capsys, source):
        if source == "generator":
            micro = ["--set", "micro.generator=chessboard", "--set", "micro.n=8", "--set", "micro.alpha=-1"]
        else:
            path = tmp_path / "indefinite.micro"
            path.write_text("plate-micro v1\nd 2 N 2 phases 1\nphase 0 1 0 0 -1 0 1\n0 0 0 0\n")
            micro = ["--set", f"micro.file={path}"]
        out = tmp_path / "run"
        err = run_rejected(capsys, "solve", "--out", str(out), *micro, "--set", "e0=1,0,0")
        assert "phases must be positive definite" in err
        assert not out.exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "micro.generator = chessboard\n"
            "micro.alpha = 1\nmicro.beta = 3\nmicro.n = 8\n"
            "e0 = 1 0 0\n"
        )
        out = tmp_path / "run"
        code = run("solve", "--config", str(cfg), "--out", str(out),
                   "--set", "micro.beta=2")
        assert code == 0
        report = report_dict(out / "report.txt")
        assert report["eigen_range"] == "1 2"

    def test_unknown_key_exits_1(self, tmp_path):
        assert run("solve", "--set", "bogus=1") == 1

    def test_both_sources_rejected(self, tmp_path):
        code = run(
            "solve", "--set", "micro.generator=chessboard",
            "--set", "micro.file=x.micro", "--set", "e0=1,0,0",
        )
        assert code == 1


class TestGenerateAndFileInput:
    def test_generate_then_solve_from_file(self, tmp_path):
        gen = tmp_path / "gen"
        code = run(
            "generate", "--out", str(gen),
            "--set", "micro.generator=laminate", "--set", "micro.alpha=1",
            "--set", "micro.beta=3", "--set", "micro.n=16",
            "--set", "micro.fraction=0.5",
        )
        assert code == 0
        micro = gen / "microstructure.micro"
        assert micro.exists()
        out = tmp_path / "run"
        code = run(
            "solve", "--out", str(out),
            "--set", f"micro.file={micro}", "--set", "e0=1,0,0",
        )
        assert code == 0
        report = report_dict(out / "report.txt")
        assert report["converged"] == "true"
        # across-layer mean moment is the harmonic mean
        assert float(report["mean_moment"].split()[0]) == pytest.approx(1.5, rel=1e-8)


class TestHomogenizeCommand:
    def test_laminate_report_matches_analytic(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "homogenize", "--out", str(out),
            "--set", "micro.generator=laminate", "--set", "micro.alpha=1",
            "--set", "micro.beta=3", "--set", "micro.n=32",
        )
        assert code == 0
        report = report_dict(out / "report.txt")
        assert float(report["computed_across"]) == pytest.approx(1.5, rel=0.01)
        assert float(report["computed_along"]) == pytest.approx(2.0, rel=0.01)
        assert report["bracketing"] == "bracketed"
        assert (out / "c_hom.txt").read_text().startswith("plate-chom v1 d 2 m 3\n")
        assert (out / "bounds.txt").read_text().startswith("plate-bounds v1\n")
        for j in range(3):
            assert (out / f"history_case{j}.csv").exists()

    def test_chessboard_anchor_lines(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "homogenize", "--out", str(out),
            "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
            "--set", "micro.beta=4", "--set", "micro.n=16",
        )
        assert code == 0
        report = report_dict(out / "report.txt")
        assert float(report["analytic_chessboard"]) == 2.0
        computed = float(report["computed_1111"])
        assert float(report["difference"]) == pytest.approx(computed - 2.0, abs=1e-12)

    def test_homogeneous_returns_phase_verbatim(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "homogenize", "--out", str(out),
            "--set", "micro.generator=inclusion", "--set", "micro.alpha=2.5",
            "--set", "micro.beta=2.5", "--set", "micro.n=8",
        )
        assert code == 0
        rows = (out / "c_hom.txt").read_text().splitlines()[1:]
        chom = np.array([[float(v) for v in row.split()] for row in rows])
        np.testing.assert_allclose(chom, 2.5 * np.eye(3), atol=1e-12)

    def test_non_convergence_exits_2(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "homogenize", "--out", str(out),
            "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
            "--set", "micro.beta=3", "--set", "micro.n=8",
            "--set", "reference.strategy=manual", "--set", "reference.lambda0=0.05",
            "--set", "solver.max_iterations=40",
        )
        assert code == 2

    def test_singular_phase_exits_1(self, tmp_path, capsys):
        # diag(1, 1, 1e-13) is positive definite, so the solve converges; the Reuss bound's inverse rejects it.
        micro = tmp_path / "singular.micro"
        micro.write_text("plate-micro v1\nd 2 N 4 phases 1\nphase 0 1 0 0 1 0 1e-13\n" + "0 0 0 0\n" * 4)
        out = tmp_path / "run"
        err = run_rejected(capsys, "homogenize", "--out", str(out), "--set", f"micro.file={micro}")
        assert err == "error: stiffness tensor is singular (smallest |eigenvalue| below 1e-12 of largest)\n"
        assert not (out / "c_hom.txt").exists()


class TestSpectrumCommand:
    def test_homogeneous_zero_bound_and_estimate(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            "spectrum", "--out", str(out), "--seed", "3",
            "--set", "micro.generator=chessboard", "--set", "micro.alpha=2",
            "--set", "micro.beta=2", "--set", "micro.n=8",
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "bound 0\n" in text
        assert "estimate 0\n" in text

    def test_contrast3_arithmetic_prints_bound(self, tmp_path, capsys):
        code = run(
            "spectrum", "--out", str(tmp_path / "run"), "--seed", "7",
            "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
            "--set", "micro.beta=3", "--set", "micro.n=16",
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        bound = [l for l in lines if l.startswith("bound ")]
        assert bound and float(bound[0].split()[1]) == 0.5

    def test_geometric_reference_claims_no_bound(self, tmp_path, capsys):
        code = run(
            "spectrum", "--out", str(tmp_path / "run"), "--seed", "7",
            "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
            "--set", "micro.beta=3", "--set", "micro.n=16",
            "--set", "reference.strategy=geometric",
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert not any(l.startswith("bound ") for l in lines)
        assert any(l.startswith("estimate ") for l in lines)

    def test_huge_manual_reference_gives_finite_estimate(self, tmp_path, capsys):
        # Gamma's output is O(1) while dC:E and its scalars are O(lambda0): their squares must not be formed
        code = run(
            "spectrum", "--out", str(tmp_path / "run"), "--seed", "7", *CHESSBOARD,
            "--set", "reference.strategy=manual", "--set", "reference.lambda0=1e200",
        )
        assert code == 0
        estimate = [l for l in capsys.readouterr().out.splitlines() if l.startswith("estimate ")]
        assert math.isfinite(float(estimate[0].split()[1]))


class TestGreenCommand:
    def test_eight_term_value(self, capsys):
        assert run("green", "--y", "0,0", "--cutoff", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        value = float([l for l in lines if l.startswith("value ")][0].split()[1])
        assert value == pytest.approx(-5.0 * (2 * math.pi) ** -4, rel=1e-12)

    def test_bad_point_exits_1(self):
        assert run("green", "--y", "0,0,1", "--cutoff", "1") == 1

    def test_negative_first_coordinate_as_separate_argument(self, capsys):
        # argparse alone reads a separate "-0.75,0.5" as an option and exits 1
        values = []
        for y in ("-0.75,0.5", "0.25,0.5"):
            assert run("green", "--y", y, "--cutoff", "2") == 0
            values.append(capsys.readouterr().out.splitlines()[-1])
        assert values[0] == values[1]
        assert run_rejected(capsys, "green", "--y", "-x,0", "--cutoff", "2").startswith("error: bad evaluation point")
        assert run_rejected(capsys, "green", "--y", "-inf,0", "--cutoff", "2").startswith("error: evaluation point must")

    @pytest.mark.parametrize("y", ["nan,0", "0.25,inf", "-inf,0.5"])
    def test_nonfinite_point_exits_1(self, capsys, y):
        run_rejected(capsys, "green", "--y", y, "--cutoff", "8")

    @pytest.mark.parametrize("shifted, base", [("3.25,0.5", "0.25,0.5"), ("-0.75,0.5", "0.25,0.5"),
                                               ("1e17,0.5", "0,0.5"), ("0.25,-1e17", "0.25,0"), ("1e308,0", "0,0")])
    def test_point_reduced_modulo_one(self, capsys, shifted, base):
        # the series has period 1; n . y formed before the reduction loses y's fraction, or overflows near 1e308
        values = []
        for y in (shifted, base):
            assert run("green", f"--y={y}", "--cutoff", "4") == 0
            values.append(capsys.readouterr().out.splitlines()[-1])
        assert values[0] == values[1] and math.isfinite(float(values[0].split()[1]))


class TestDecomposeCommand:
    @pytest.mark.parametrize(
        "text",
        ["plate-field v1 d 2 N 1 m 3\n0 0 0\n", "plate-field v1 d 2 N 2 m 3\n0 0 0\n0 nan 0\n0 0 0\n0 0 0\n",
         "plate-field v1 d 2 N 2 m 3\n0 0 0\n0 0 0\ninf 0 0\n0 0 -inf\n", "plate-field v1 d 2 N 2 m 3\n" + "0 0\n" * 4,
         # finite entries whose transform or L2 inner products overflow
         "plate-field v1 d 2 N 4 m 3\n" + "".join(f"{a!r} {b!r} {c!r}\n" for a, b, c in
                                                  (np.random.default_rng(0).standard_normal((16, 3)) * 1e160).tolist()),
         "plate-field v1 d 2 N 2 m 3\n" + "1e308 1e308 1e308\n" * 4],
        ids=["one-point-grid", "nan-entry", "inf-entries", "two-reals-per-row", "entries-near-1e160", "entries-1e308"],
    )
    def test_bad_field_exits_1(self, tmp_path, capsys, text):
        src = tmp_path / "bad.field"
        src.write_text(text)
        out = tmp_path / "run"
        run_rejected(capsys, "decompose", str(src), "--out", str(out))
        assert not out.exists()

    def test_constant_field_has_zero_parts(self, tmp_path, capsys):
        src = tmp_path / "const.field"
        write_field(src, np.ones((8, 8, 3)) * np.array([1.0, 2.0, 3.0]))
        out = tmp_path / "run"
        assert run("decompose", str(src), "--out", str(out)) == 0
        pot = read_field(out / "part_pot.field")
        sol = read_field(out / "part_sol.field")
        mean = read_field(out / "part_mean.field")
        assert np.abs(pot).max() < 1e-13 and np.abs(sol).max() < 1e-13
        np.testing.assert_allclose(mean[0, 0], [1.0, 2.0, 3.0], atol=1e-14)

    @pytest.mark.parametrize("n", [15, 16])
    def test_random_field_inner_products_small(self, tmp_path, capsys, n):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((n, n, 3))
        src = tmp_path / "rand.field"
        write_field(src, values)
        out = tmp_path / "run"
        assert run("decompose", str(src), "--out", str(out)) == 0
        report = dict(line.split() for line in (out / "decompose_report.txt").read_text().splitlines()[2:])
        for key, value in report.items():
            assert abs(float(value)) <= 1e-10, key
        # Both parts have a zero mean mode, so their products with the constant part print exactly 0.
        assert report["inner_pot_mean"] == report["inner_sol_mean"] == "0"
        mean = SpectralField.from_real(values).mean().mandel
        written = read_field(out / "part_mean.field").reshape(-1, 3)
        assert (written.view(np.int64) == mean.view(np.int64)).all()
        # parts reconstruct the input
        total = (
            read_field(out / "part_pot.field")
            + read_field(out / "part_sol.field")
            + read_field(out / "part_mean.field")
        )
        np.testing.assert_allclose(total, values, atol=1e-12)

    def test_matches_library_decomposition(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((8, 8, 3))
        src = tmp_path / "rand.field"
        write_field(src, values)
        out = tmp_path / "run"
        run("decompose", str(src), "--out", str(out))
        pot, sol, mean = weyl_decompose(SpectralField.from_real(values))
        np.testing.assert_allclose(read_field(out / "part_pot.field"), pot.to_real(), atol=1e-12)


class TestDeterminism:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_decompose_outputs_independent_of_cpu_count(self, tmp_path):
        # N = 64: 12288 products per inner product, enough for a threaded BLAS to split a dot product and so
        # sum it in another order on two CPUs than on one.  platefft loads OpenBLAS with one thread unless a
        # count is set, so the all-CPU run sets one.
        src = tmp_path / "in.field"
        write_field(src, np.random.default_rng(7).standard_normal((64, 64, 3)))
        cli = "import sys; from platefft.cli import main; sys.exit(main(sys.argv[1:]))"
        one_cpu = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " + cli
        threads = {"OPENBLAS_NUM_THREADS": str(len(os.sched_getaffinity(0)))}
        for out, code, preset in (("all", cli, threads), ("one", one_cpu, {})):
            proc = subprocess.run(
                [sys.executable, "-c", code, "decompose", str(src), "--out", str(tmp_path / out)],
                capture_output=True, env={**os.environ, **preset, "PYTHONPATH": SRC}, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("part_pot.field", "part_sol.field", "part_mean.field", "decompose_report.txt"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_solve_outputs_byte_identical(self, tmp_path):
        args = [
            "--set", "micro.generator=inclusion", "--set", "micro.alpha=1",
            "--set", "micro.beta=5", "--set", "micro.n=16",
            "--set", "micro.radius=0.25", "--set", "e0=1,0.5,0.25",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("solve", "--out", str(out1), *args) == 0
        assert run("solve", "--out", str(out2), *args) == 0
        for name in ("report.txt", "history.csv", "solution_E.field", "moment_J.field"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_spectrum_byte_identical_with_equal_seed(self, tmp_path, capsys):
        args = [
            "--seed", "42",
            "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
            "--set", "micro.beta=3", "--set", "micro.n=16",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("spectrum", "--out", str(out1), *args) == 0
        assert run("spectrum", "--out", str(out2), *args) == 0
        assert (out1 / "spectrum.txt").read_bytes() == (out2 / "spectrum.txt").read_bytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
class TestStartup:
    """`import platefft` loads OpenBLAS with one thread unless the caller set a thread count, and leaves
    os.environ as it found it."""

    THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    PROBE = (
        "import os; before = dict(os.environ); import platefft; "
        "print(len(os.listdir('/proc/self/task')), os.environ == before, os.environ.get('OPENBLAS_NUM_THREADS'))"
    )

    def probe(self, **preset):
        env = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        proc = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True, text=True,
                              env={**env, **preset, "PYTHONPATH": SRC}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        threads, unchanged, value = proc.stdout.split()
        return int(threads), unchanged == "True", value

    def test_one_thread_and_no_variable_left(self):
        assert self.probe() == (1, True, "None")

    def test_caller_thread_count_is_kept(self):
        _, unchanged, value = self.probe(OPENBLAS_NUM_THREADS="2")
        assert unchanged and value == "2"


class TestErrorBoundary:
    """Errors no command checks for itself still end in main as exit 1 with one `error:` line."""

    @pytest.mark.parametrize("command", ["solve", "homogenize", "spectrum", "generate", "green", "decompose"])
    def test_out_under_regular_file_exits_1(self, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        field = tmp_path / "in.field"
        write_field(field, np.zeros((4, 4, 3)))
        argv = {
            "solve": ["solve", *CHESSBOARD, "--set", "e0=1,0,0"],
            "homogenize": ["homogenize", *CHESSBOARD],
            "spectrum": ["spectrum", *CHESSBOARD],
            "generate": ["generate", *CHESSBOARD],
            "green": ["green", "--y", "0.25,0.5", "--cutoff", "2"],
            "decompose": ["decompose", str(field)],
        }[command]
        err = run_rejected(capsys, *argv, "--out", str(blocker / "run"))
        assert str(blocker) in err

    def test_spectrum_out_naming_regular_file_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        err = run_rejected(capsys, "spectrum", *CHESSBOARD, "--out", str(blocker))
        assert str(blocker) in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--set", "micro.n"], "--set expects key=value, got 'micro.n'"),
        (["solve", "--config", "run.cfg"], "run.cfg:2: expected key=value, got 'micro.n 8'"),
        (["solve", "--set", "micro.generator=chessboard", "--set", "e0=1,0,0"], "generators require micro.n"),
        (["solve", *CHESSBOARD], "solve requires e0"),
        (["generate", "--set", "micro.n=4"], "generate requires micro.generator"),
        (["solve", *CHESSBOARD, "--set", "e0=1,0,0", "--set", "solver.max_iterations=0"],
         "max_iterations must be >= 1, got 0"),
        (["green", "--y", "x,0", "--cutoff", "2"], "bad evaluation point"),
        (["green", "--y", "0.25,0.5", "--cutoff", "0"], "cutoff must be >= 1, got 0"),
    ], ids=["set-without-equals", "config-line-without-equals", "generator-without-n", "solve-without-e0",
            "generate-without-generator", "zero-iteration-budget", "unparsable-point", "zero-cutoff"])
    def test_incomplete_or_malformed_arguments_exit_1(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("micro.generator = chessboard\nmicro.n 8\n")
        err = run_rejected(capsys, *argv, "--out", "run")
        assert message in err
        assert not (tmp_path / "run").exists()

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"micro.n = 4\n# \xff\xfe\n")
        err = run_rejected(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert "cannot read config file" in err

    @pytest.mark.parametrize("command", ["solve", "homogenize", "spectrum"])
    def test_infinite_manual_reference_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        err = run_rejected(
            capsys, command, "--out", str(out), *CHESSBOARD, "--set", "e0=1,0,0",
            "--set", "reference.strategy=manual", "--set", "reference.lambda0=inf",
        )
        assert "reference coefficient must be positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "spectrum"])
    def test_subnormal_reference_exits_1_as_too_small(self, tmp_path, capsys, command):
        # the arithmetic rule gives lambda0 = 1e-320, whose reciprocal overflows
        out = tmp_path / "run"
        err = run_rejected(capsys, command, "--out", str(out), *CHESSBOARD, "--set", "e0=1,0,0",
                           "--set", "micro.alpha=1e-320", "--set", "micro.beta=1e-320")
        assert len(err.splitlines()) == 1
        assert "too small" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "homogenize"])
    def test_arithmetic_reference_past_double_precision_names_the_eigen_range(self, tmp_path, capsys, command):
        # (1 + 1e308) / 2 rounds to mu_max / 2, which the midpoint rule must exceed
        out = tmp_path / "run"
        err = run_rejected(capsys, command, "--out", str(out), "--set", "micro.generator=chessboard",
                           "--set", "micro.n=8", "--set", "micro.alpha=1e308", "--set", "e0=1,0,0")
        assert len(err.splitlines()) == 1
        assert "mu_max/2" in err and "eigen-range [1, 1e+308]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "homogenize", "spectrum"])
    def test_unknown_strategy_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        err = run_rejected(capsys, command, "--out", str(out), *CHESSBOARD, "--set", "e0=1,0,0",
                           "--set", "reference.strategy=bogus")
        assert err == "error: unknown strategy 'bogus'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, load, message", OVERFLOWING.values(), ids=OVERFLOWING.keys())
    def test_overflowing_first_step_exits_1(self, tmp_path, capsys, command, load, message):
        out = tmp_path / "run"
        err = run_rejected(capsys, command, "--out", str(out), *CHESSBOARD, *load)
        assert len(err.splitlines()) == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("command, load", HUGE_REFERENCE.values(), ids=HUGE_REFERENCE.keys())
    def test_reference_near_the_float_range_exits_2(self, tmp_path, capsys, monkeypatch, command, load):
        # lam0 enters the fixed point only through 1 / (lam0 |n|^4), so nothing overflows: the step underflows
        # and the loop ends unconverged after one iteration, split or not
        def outcome(out):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(command, "--out", str(out), *CHESSBOARD, *load)
            assert [str(w.message) for w in caught] == []
            report = report_dict(out / "report.txt") if command == "solve" else {}
            return code, capsys.readouterr().err, report

        unsplit = outcome(tmp_path / "unsplit")
        monkeypatch.setattr(green, "_CPUS", 2)
        monkeypatch.setattr(green, "_SPLIT_MIN_N", 2)
        assert outcome(tmp_path / "split") == unsplit
        code, err, report = unsplit
        assert code == 2 and len(err.splitlines()) == 1
        assert "did not converge after 1 iteration (residual " in err  # not the budget: the loop stopped at once
        if command == "solve":
            assert report["converged"] == "false"
            values = [report["residual"], report["energy"], *report["mean_moment"].split()]
            assert all(math.isfinite(float(v)) for v in values)

    def test_split_loop_keeps_exits_and_messages_without_warnings(self, tmp_path, capsys, monkeypatch):
        # np.errstate is per context: the worker's halves must run under the caller's
        def outcomes():
            errors = [run_rejected(capsys, command, "--out", str(tmp_path / "run"), *CHESSBOARD, *load)
                      for command, load, _ in OVERFLOWING.values()]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run("solve", "--out", str(tmp_path / "divergent"), *DIVERGENT)
            assert [str(w.message) for w in caught] == []
            return errors, code, capsys.readouterr().err, (tmp_path / "divergent" / "report.txt").read_text()

        unsplit = outcomes()
        monkeypatch.setattr(green, "_CPUS", 2)
        monkeypatch.setattr(green, "_SPLIT_MIN_N", 2)
        assert outcomes() == unsplit
        assert unsplit[1] == 2

    def test_failed_field_writer_exits_1_and_is_reaped(self, tmp_path, capfd, monkeypatch, split_writer):
        field = tmp_path / "in.field"
        write_field(field, np.random.default_rng(2).standard_normal((8, 8, 3)))
        split_writer.clear()  # the input's writer
        monkeypatch.setattr(fieldio, "_WRITER", str(tmp_path / "missing.py"))
        err = run_rejected(capfd, "decompose", str(field), "--out", str(tmp_path / "run"))
        assert len(err.splitlines()) == 1 and "field writer process exited" in err  # its own stderr is discarded
        assert len(split_writer) == 1 and split_writer[0].returncode not in (None, 0)

    def test_unwritable_field_fails_before_any_writer_starts(self, tmp_path, capsys, split_writer):
        field = tmp_path / "in.field"
        write_field(field, np.random.default_rng(2).standard_normal((8, 8, 3)))
        split_writer.clear()  # the input's writer
        (tmp_path / "run" / "part_pot.field").mkdir(parents=True)
        err = run_rejected(capsys, "decompose", str(field), "--out", str(tmp_path / "run"))
        assert "part_pot.field" in err
        assert split_writer == []

    def test_process_exits_1_with_one_error_line(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        process_rejected("solve", "--out", str(blocker / "x"), *CHESSBOARD, "--set", "e0=1,0,0")

    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["solve", "homogenize"])
    def test_tolerance_outside_zero_to_inf_exits_1(self, tmp_path, capsys, command, tolerance):
        # an infinite tolerance would stop after one iteration and report the solve converged
        out = tmp_path / "run"
        err = run_rejected(capsys, command, "--out", str(out), *CHESSBOARD, "--set", "e0=1,0,0",
                           "--set", f"solver.tolerance={tolerance}")
        assert err == f"error: tolerance must be positive and finite, got {float(tolerance)}\n"
        assert not out.exists()

    def test_process_rejects_infinite_tolerance_and_oversized_phase_count(self, tmp_path):
        process_rejected("solve", "--out", str(tmp_path / "a"), *CHESSBOARD, "--set", "e0=1,0,0",
                         "--set", "solver.tolerance=inf")
        micro = tmp_path / "count.micro"
        micro.write_text("plate-micro v1\nd 2 N 2 phases 12345678901234567890\nphase 0 1 0 0 1 0 1\n0 0 0 0\n")
        err = process_rejected("solve", "--out", str(tmp_path / "b"), "--set", f"micro.file={micro}", "--set", "e0=1,0,0")
        assert "phases 12345678901234567890" in err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    @pytest.mark.parametrize("argv", [
        ("solve", "--set", "micro.generator=inclusion", "--set", "micro.n=10000000", "--set", "e0=1,0,0"),
        ("green", "--y", "0.25,0.5", "--cutoff", "5000000"),
    ], ids=["solve-grid", "green-lattice"])
    def test_unallocatable_grid_exits_1(self, tmp_path, argv):
        # 10^7 x 10^7 entries (728 TiB) is beyond a 47-bit address space: the allocation fails at once and touches no memory
        err = process_rejected(*argv, "--out", str(tmp_path / "run"))
        assert "allocate" in err


EDGE_TOKENS = ["0", "-1", "1e300", "-1e300", "1e308", "inf", "-inf", "nan", "5e-324", "", "x",
               "12345678901234567890", "-0", "1.5", "1e400"]
VALID_FIELD = "plate-field v1 d 2 N 2 m 3\n1 0 0\n0 2 0\n0 0 3\n1 1 1\n"
VALID_MICRO = "plate-micro v1\nd 2 N 2 phases 2\nphase 0 1 0 0 1 0 1\nphase 1 3 0 0 3 0 3\n0 1 1 0\n"


@st.composite
def mutated(draw, text: str) -> bytes:
    """text with one token replaced by an edge value, one line dropped or duplicated, a non-UTF-8 byte inserted,
    or the bytes cut short."""
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(["token", "drop", "duplicate", "byte", "truncate"]))
    if kind == "token":
        i, j = draw(st.sampled_from([(i, j) for i, line in enumerate(lines) for j in range(len(line.split()))]))
        words = lines[i].split()
        words[j] = draw(st.sampled_from(EDGE_TOKENS))
        lines[i] = " ".join(words) + "\n"
    elif kind in ("drop", "duplicate"):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i : i + 1] = [] if kind == "drop" else [lines[i]] * 2
    data = "".join(lines).encode()
    if kind in ("byte", "truncate"):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:] if kind == "byte" else data[:k]
    return data


def run_contract(argv: list[str]) -> int:
    """main(argv) with warnings as errors: exit 0, 1 or 2, and exit 1 prints one `error:` line; returns the code."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return code


class TestMutatedInputFiles:
    """A mutated field or microstructure file ends in exit 0, 1 or 2; exit 1 prints one `error:` line, and no
    exception or warning leaves main."""

    def check_contract(self, data: bytes, name: str, argv) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write(data)
            run_contract([*argv(path), "--out", os.path.join(tmp, "run")])

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(mutated(VALID_FIELD))
    def test_mutated_field_through_decompose(self, data):
        self.check_contract(data, "in.field", lambda path: ["decompose", path])

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(mutated(VALID_MICRO))
    def test_mutated_microstructure_through_solve(self, data):
        self.check_contract(data, "in.micro", lambda path: ["solve", "--set", f"micro.file={path}", "--set", "e0=1,0,0"])


# Each key's ordinary values, which let a drawn run get far, and edge values, which probe the key's checks. The
# loop budgets' edges are small: a 20-digit budget is work the user asked for, not a fault.
SET_EDGES = ["0", "-1", "1e300", "1e-300", "-1e300", "1e308", "inf", "-inf", "nan", "5e-324", "1e-320", "", "x",
             "12345678901234567890"]
SET_VALUES = {
    "micro.generator": (["chessboard", "laminate", "inclusion"], SET_EDGES),
    "micro.alpha": (["1", "3", "100"], SET_EDGES),
    "micro.beta": (["1", "3", "100"], SET_EDGES),
    "micro.fraction": (["0.25", "0.5"], SET_EDGES),
    "micro.axis": (["0", "1"], SET_EDGES),
    "micro.radius": (["0.25", "0.4"], SET_EDGES),
    "reference.strategy": (["arithmetic", "geometric", "manual"], SET_EDGES),
    "reference.lambda0": (["2", "50"], SET_EDGES),
    "solver.tolerance": (["1e-8", "1e-3"], SET_EDGES),
    "solver.max_iterations": (["1", "3", "40"], ["0", "-1", "", "x", "nan", "1e300"]),
    "spectrum.iterations": (["10", "25"], ["0", "-1", "9", "", "x", "inf"]),
    "e0": (["1,0,0", "1,0.5,0.25"], SET_EDGES),
    "seed": (["0", "7"], SET_EDGES),
}
REQUIRED = {"micro.generator", "e0", "solver.max_iterations"}  # set unless at an edge; max_iterations' default is 5000


@st.composite
def run_settings(draw) -> list[str]:
    """--set arguments: micro.n from {4, 5, 8, 16}, up to two keys at edge values (e0's edge is one value or three),
    and each other key ordinary, or absent unless REQUIRED."""
    edged = draw(st.sets(st.sampled_from(sorted(SET_VALUES)), max_size=2))
    sets = {"micro.n": draw(st.sampled_from(["4", "5", "8", "16"]))}
    for key, (ordinary, edges) in SET_VALUES.items():
        if key in edged:
            edge = st.sampled_from(edges)
            sets[key] = draw(st.lists(edge, min_size=3, max_size=3).map(",".join) | edge if key == "e0" else edge)
        else:
            sets[key] = draw(st.sampled_from(ordinary if key in REQUIRED else [None, *ordinary]))
    return [arg for key, value in sets.items() if value is not None for arg in ("--set", f"{key}={value}")]


def assert_finite_artifacts(out: str, drawn) -> None:
    """No artifact under out holds nan or inf; drawn names the input in the failure message."""
    for root, _, names in os.walk(out):
        for name in names:
            with open(os.path.join(root, name), "rb") as fh:
                tokens = fh.read().replace(b",", b" ").lower().split()
            assert not {b"nan", b"inf", b"-inf"} & set(tokens), (name, drawn)


class TestConfigContract:
    """Drawn --set configurations end in exit 0, 1 or 2 with no exception or warning leaving main; exit 1 prints
    one `error:` line, and no artifact of an exit-0 run holds nan or inf."""

    @pytest.mark.parametrize("command", ["solve", "homogenize", "spectrum", "generate"])
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(sets=run_settings())
    def test_drawn_settings_keep_the_contract(self, command, sets):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "run")
            if run_contract([command, *sets, "--out", out]) == 0:
                assert_finite_artifacts(out, sets)


class TestNumericRangeContract:
    """green at drawn points and decompose on finite fields drawn across the float range keep the same contract
    as TestConfigContract."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(y=st.lists(st.sampled_from(["0.25", "0.5", "1e17", "-1e17", *SET_EDGES]), min_size=2, max_size=2),
           cutoff=st.sampled_from(["1", "2", "8", "0", "-1", "", "x"]))
    def test_drawn_green_points(self, y, cutoff):
        # --y=... and --cutoff=...: argparse would read a separate "-1e17,0.5" as an option
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "run")
            if run_contract(["green", f"--y={','.join(y)}", f"--cutoff={cutoff}", "--out", out]) == 0:
                assert_finite_artifacts(out, (y, cutoff))

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(n=st.sampled_from([2, 3, 4, 8]), exponent=st.sampled_from([-320, -300, 0, 150, 155, 200, 300, 307]),
           seed=st.integers(0, 2**32 - 1))
    def test_drawn_field_scales(self, n, exponent, seed):
        values = np.random.default_rng(seed).standard_normal((n, n, 3)) * 10.0**exponent
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "in.field"), os.path.join(tmp, "run")
            write_field(path, values)
            if run_contract(["decompose", path, "--out", out]) == 0:
                assert_finite_artifacts(out, (n, exponent, seed))


class TestBenchmarkReach:
    """The benchmark's tracer (perfbench/tracing.py) patches program names; each must still be reached."""

    SPANS = {
        "microstructure.load", "microstructure.mandel_grid", "green.frequency_grid",
        "solver.select_reference", "solver.apriori_bound", "solver.solve_cell",
        "homogenize.effective_tensor", "homogenize.bounds", "fieldio.write", "fieldio.read",
        "green.weyl_decompose", "green.to_real",
    }

    def test_every_traced_name_records_a_span(self, tmp_path):
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        micro = tmp_path / "cell.micro"
        save_microstructure(generate_inclusion(StiffTensor4.identity(), StiffTensor4(3.0 * np.eye(3)), 0.3, 8), str(micro))
        field = tmp_path / "in.field"
        write_field(field, np.random.default_rng(4).standard_normal((8, 8, 3)))
        cell = ("--set", f"micro.file={micro}")
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            assert run("solve", "--out", str(tmp_path / "solve"), *cell, "--set", "e0=1,0,0") == 0
            assert run("homogenize", "--out", str(tmp_path / "homogenize"), *cell) == 0
            assert run("decompose", str(field), "--out", str(tmp_path / "decompose")) == 0
        assert {span["name"] for span in tracer.spans} == self.SPANS
        assert set(tracing.probe_green(8)) == {"apply_gamma_s", "fft_s"}
