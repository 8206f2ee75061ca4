import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import platefft
from platefft.cli import main
from platefft.fieldio import read_field, write_field
from platefft.green import SpectralField, weyl_decompose


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


CHESSBOARD = (
    "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
    "--set", "micro.beta=3", "--set", "micro.n=4",
)


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

    def test_divergent_manual_reference_exits_2_with_flag(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "solve", "--out", str(out),
            "--set", "micro.generator=chessboard", "--set", "micro.alpha=1",
            "--set", "micro.beta=3", "--set", "micro.n=8",
            "--set", "reference.strategy=manual", "--set", "reference.lambda0=0.05",
            "--set", "solver.max_iterations=100", "--set", "e0=1,0,0",
        )
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


class TestGreenCommand:
    def test_eight_term_value(self, capsys):
        assert run("green", "--y", "0,0", "--cutoff", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        value = float([l for l in lines if l.startswith("value ")][0].split()[1])
        assert value == pytest.approx(-5.0 * (2 * math.pi) ** -4, rel=1e-12)

    def test_bad_point_exits_1(self):
        assert run("green", "--y", "0,0,1", "--cutoff", "1") == 1

    @pytest.mark.parametrize("y", ["nan,0", "0.25,inf", "-inf,0.5"])
    def test_nonfinite_point_exits_1(self, capsys, y):
        run_rejected(capsys, "green", "--y", y, "--cutoff", "8")


class TestDecomposeCommand:
    @pytest.mark.parametrize(
        "text",
        ["plate-field v1 d 2 N 1 m 3\n0 0 0\n", "plate-field v1 d 2 N 2 m 3\n0 0 0\n0 nan 0\n0 0 0\n0 0 0\n",
         "plate-field v1 d 2 N 2 m 3\n0 0 0\n0 0 0\ninf 0 0\n0 0 -inf\n"],
        ids=["one-point-grid", "nan-entry", "inf-entries"],
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

    def test_random_field_inner_products_small(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((16, 16, 3))
        src = tmp_path / "rand.field"
        write_field(src, values)
        out = tmp_path / "run"
        assert run("decompose", str(src), "--out", str(out)) == 0
        for line in (out / "decompose_report.txt").read_text().splitlines():
            if line.startswith("inner_"):
                assert abs(float(line.split()[1])) <= 1e-10
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

    @pytest.mark.parametrize(
        "command, load",
        [
            ("solve", ["--set", "e0=1e308,0,0"]),
            ("solve", ["--set", "e0=1,0,0", "--set", "reference.strategy=manual",
                       "--set", "reference.lambda0=1e308"]),
            ("homogenize", ["--set", "reference.strategy=manual", "--set", "reference.lambda0=1e308"]),
        ],
        ids=["solve-e0", "solve-lambda0", "homogenize-lambda0"],
    )
    def test_overflowing_first_step_exits_1(self, tmp_path, capsys, command, load):
        out = tmp_path / "run"
        err = run_rejected(capsys, command, "--out", str(out), *CHESSBOARD, *load)
        assert len(err.splitlines()) == 1
        assert "overflows" in err
        assert not out.exists()

    def test_process_exits_1_with_one_error_line(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        src = os.path.dirname(os.path.dirname(platefft.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "platefft.cli", "solve", "--out", str(blocker / "x"),
             *CHESSBOARD, "--set", "e0=1,0,0"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr
