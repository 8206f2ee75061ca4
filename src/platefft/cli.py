"""Batch command-line front end.

Subcommands: solve, homogenize, spectrum, green, decompose, generate.
Configuration is a flat key=value text file plus repeatable --set overrides;
every artifact starts with a one-line versioned format header and is written
with full (17 significant digit) precision, so identical configurations and
seeds reproduce byte-identical outputs.

Exit codes: 0 success, 1 usage/config error, 2 non-convergence.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .fieldio import read_field, write_field
from .green import SpectralField, green_evaluate, l2_inner, weyl_decompose
from .homogenize import (
    NonConvergenceError,
    analytic_chessboard,
    analytic_laminate,
    bracket_check,
    effective_tensor,
    voigt_reuss_bounds,
)
from .mandel import M, StiffTensor4, SymTensor2
from .microstructure import (
    CoefficientField,
    MicrostructureFormatError,
    generate_chessboard,
    generate_inclusion,
    generate_laminate,
    load_microstructure,
    save_microstructure,
)
from .solver import (
    SolverConfig,
    apriori_bound,
    estimate_spectral_radius,
    select_reference,
    solve_cell,
    spectral_bound,
)


class ConfigError(ValueError):
    """Usage or configuration problem (exit code 1)."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class RunConfig:
    micro_file: str | None = None
    generator: str | None = None
    n: int | None = None
    alpha: float = 1.0
    beta: float = 1.0
    fraction: float = 0.5
    axis: int = 0
    radius: float = 0.25
    strategy: str = "arithmetic"
    lambda0: float | None = None
    tolerance: float = 1e-8
    max_iterations: int = 5000
    e0: tuple[float, ...] | None = None
    seed: int = 0
    power_iterations: int = 30


def _parse_e0(text: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ConfigError(f"e0 needs 3 Mandel components, got {len(parts)}")
    return tuple(float(p) for p in parts)


_KEYS = {
    "micro.file": ("micro_file", str),
    "micro.generator": ("generator", str),
    "micro.n": ("n", int),
    "micro.alpha": ("alpha", float),
    "micro.beta": ("beta", float),
    "micro.fraction": ("fraction", float),
    "micro.axis": ("axis", int),
    "micro.radius": ("radius", float),
    "reference.strategy": ("strategy", str),
    "reference.lambda0": ("lambda0", float),
    "solver.tolerance": ("tolerance", float),
    "solver.max_iterations": ("max_iterations", int),
    "e0": ("e0", _parse_e0),
    "seed": ("seed", int),
    "spectrum.iterations": ("power_iterations", int),
}


def _assign(cfg: RunConfig, key: str, value: str) -> None:
    key = key.strip()
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    attr, parser = _KEYS[key]
    try:
        setattr(cfg, attr, parser(value.strip()))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def load_run_config(path: str | None, sets: list[str], seed: int | None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            _assign(cfg, key, value)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        _assign(cfg, key, value)
    if seed is not None:
        cfg.seed = seed
    return cfg


def build_field(cfg: RunConfig) -> tuple[CoefficientField, str]:
    """Materialize the microstructure; returns the field and a description line."""
    if (cfg.micro_file is None) == (cfg.generator is None):
        raise ConfigError("exactly one of micro.file and micro.generator is required")
    if cfg.micro_file is not None:
        try:
            field = load_microstructure(cfg.micro_file)
        except (OSError, MicrostructureFormatError, ValueError) as exc:
            raise ConfigError(f"cannot load microstructure: {exc}") from None
        return field, f"file {cfg.micro_file}"
    if cfg.n is None:
        raise ConfigError("generators require micro.n")
    a = cfg.alpha * StiffTensor4.identity()
    b = cfg.beta * StiffTensor4.identity()
    try:
        if cfg.generator == "laminate":
            field = generate_laminate(a, b, cfg.fraction, cfg.axis, cfg.n)
            desc = f"laminate alpha {_fmt(cfg.alpha)} beta {_fmt(cfg.beta)} fraction {_fmt(cfg.fraction)} axis {cfg.axis}"
        elif cfg.generator == "chessboard":
            field = generate_chessboard(a, b, cfg.n)
            desc = f"chessboard alpha {_fmt(cfg.alpha)} beta {_fmt(cfg.beta)}"
        elif cfg.generator == "inclusion":
            field = generate_inclusion(a, b, cfg.radius, cfg.n)
            desc = f"inclusion alpha {_fmt(cfg.alpha)} beta {_fmt(cfg.beta)} radius {_fmt(cfg.radius)}"
        else:
            raise ConfigError(f"unknown generator {cfg.generator!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return field, desc


def _reference(cfg: RunConfig, field: CoefficientField):
    try:
        return select_reference(field, cfg.strategy, cfg.lambda0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _solver_config(cfg: RunConfig, e0: SymTensor2 | None) -> SolverConfig:
    try:
        return SolverConfig(e0=e0, tolerance=cfg.tolerance, max_iterations=cfg.max_iterations)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_text(out: str | None, name: str, lines: list[str], echo: bool = False) -> None:
    """Write `lines` as the artifact out/name (skipped if out is None); echo prints them first."""
    text = "\n".join(lines) + "\n"
    if echo:
        print(text, end="")
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_history(path, history) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# plate-history v1\n")
        fh.write("iter,residual,delta,energy\n")
        for i, r, d, e in zip(
            history.iterations, history.residuals, history.deltas, history.energies
        ):
            fh.write(f"{i},{_fmt(r)},{_fmt(d)},{_fmt(e)}\n")


def _series_factor_line(field, ref) -> str:
    factor = apriori_bound(field, ref)
    return "divergent" if math.isinf(factor) else _fmt(factor)


def _reference_lines(ref) -> list[str]:
    return [
        f"reference {ref.strategy} lambda0 {_fmt(ref.lambda0)}",
        f"eigen_range {_fmt(ref.mu_min)} {_fmt(ref.mu_max)}",
    ]


def cmd_solve(cfg: RunConfig, out: str) -> int:
    field, desc = build_field(cfg)
    if cfg.e0 is None:
        raise ConfigError("solve requires e0")
    ref = _reference(cfg, field)
    solution = solve_cell(field, ref, _solver_config(cfg, SymTensor2(np.array(cfg.e0))))
    os.makedirs(out, exist_ok=True)
    write_field(os.path.join(out, "solution_E.field"), solution.curvature)
    write_field(os.path.join(out, "moment_J.field"), solution.moment)
    _write_history(os.path.join(out, "history.csv"), solution.history)
    lines = [
        "plate-report v1",
        "command solve",
        f"microstructure {desc}",
        f"d 2 N {field.n}",
        *_reference_lines(ref),
        f"tolerance {_fmt(cfg.tolerance)}",
        f"max_iterations {cfg.max_iterations}",
        "e0 " + " ".join(_fmt(v) for v in cfg.e0),
        f"converged {'true' if solution.converged else 'false'}",
        f"iterations {solution.iterations}",
        f"residual {_fmt(solution.final_residual)}",
        f"series_factor {_series_factor_line(field, ref)}",
        f"energy {_fmt(solution.energy())}",
        "mean_moment " + " ".join(_fmt(v) for v in solution.mean_moment().mandel),
    ]
    if ref.strategy == "arithmetic":
        lines.insert(6, f"spectral_bound {_fmt(spectral_bound(ref.mu_min, ref.mu_max))}")
    _write_text(out, "report.txt", lines)
    if not solution.converged:
        print("solve did not converge within the iteration budget", file=sys.stderr)
        return 2
    return 0


def _matrix_lines(matrix: np.ndarray) -> list[str]:
    return [" ".join(_fmt(v) for v in row) for row in matrix]


def cmd_homogenize(cfg: RunConfig, out: str) -> int:
    field, desc = build_field(cfg)
    ref = _reference(cfg, field)
    try:
        effective = effective_tensor(field, ref, _solver_config(cfg, None))
    except NonConvergenceError as exc:
        print(f"homogenize failed: {exc}", file=sys.stderr)
        return 2
    bounds = voigt_reuss_bounds(field)
    verdict = bracket_check(bounds, effective.tensor)
    os.makedirs(out, exist_ok=True)
    chom = effective.tensor.mandel_matrix
    _write_text(out, "c_hom.txt", [f"plate-chom v1 d 2 m {M}", *_matrix_lines(chom)])
    _write_text(out, "bounds.txt", [
        "plate-bounds v1",
        "voigt",
        *_matrix_lines(bounds.voigt.mandel_matrix),
        "reuss",
        *_matrix_lines(bounds.reuss.mandel_matrix),
        "eig_voigt_minus_chom " + " ".join(_fmt(v) for v in verdict.upper_slack),
        "eig_chom_minus_reuss " + " ".join(_fmt(v) for v in verdict.lower_slack),
        f"verdict {'bracketed' if verdict.bracketed else 'violated'}",
    ])
    for case in effective.load_cases:
        _write_history(os.path.join(out, f"history_case{case.index}.csv"), case.history)
    lines = [
        "plate-report v1",
        "command homogenize",
        f"microstructure {desc}",
        f"d 2 N {field.n}",
        *_reference_lines(ref),
        f"tolerance {_fmt(cfg.tolerance)}",
        f"asymmetry {_fmt(effective.asymmetry)}",
        "iterations " + " ".join(str(c.iterations) for c in effective.load_cases),
        f"series_factor {_series_factor_line(field, ref)}",
        f"bracketing {'bracketed' if verdict.bracketed else 'violated'}",
    ]
    if cfg.generator == "laminate":
        along, across = analytic_laminate(cfg.alpha, cfg.beta, cfg.fraction)
        across_idx = cfg.axis
        along_idx = 1 - cfg.axis
        lines += [
            f"analytic_laminate_across {_fmt(across)}",
            f"computed_across {_fmt(chom[across_idx, across_idx])}",
            f"analytic_laminate_along {_fmt(along)}",
            f"computed_along {_fmt(chom[along_idx, along_idx])}",
        ]
    if cfg.generator == "chessboard":
        anchor = analytic_chessboard(cfg.alpha, cfg.beta)
        lines += [
            f"analytic_chessboard {_fmt(anchor)}",
            f"computed_1111 {_fmt(chom[0, 0])}",
            f"difference {_fmt(chom[0, 0] - anchor)}",
        ]
    _write_text(out, "report.txt", lines)
    return 0


def cmd_spectrum(cfg: RunConfig, out: str | None) -> int:
    field, desc = build_field(cfg)
    ref = _reference(cfg, field)
    try:
        estimate = estimate_spectral_radius(field, ref, cfg.power_iterations, cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = [
        "plate-spectrum v1",
        f"microstructure {desc}",
        *_reference_lines(ref),
    ]
    if ref.strategy == "arithmetic":
        lines.append(f"bound {_fmt(spectral_bound(ref.mu_min, ref.mu_max))}")
    lines += [
        f"estimate {_fmt(estimate)}",
        f"seed {cfg.seed}",
        f"series_factor {_series_factor_line(field, ref)}",
    ]
    _write_text(out, "spectrum.txt", lines, echo=True)
    return 0


def cmd_green(y_text: str, cutoff: int, out: str | None) -> int:
    try:
        y = np.array([float(v) for v in y_text.replace(",", " ").split()])
    except ValueError as exc:
        raise ConfigError(f"bad evaluation point: {exc}") from None
    if y.shape[0] != 2:
        raise ConfigError(f"evaluation point needs 2 coordinates, got {y.shape[0]}")
    if cutoff < 1:
        raise ConfigError(f"cutoff must be >= 1, got {cutoff}")
    value = green_evaluate(y, cutoff)
    lines = [
        "plate-green v1",
        "y " + " ".join(_fmt(v) for v in y),
        f"cutoff {cutoff}",
        f"value {_fmt(value)}",
    ]
    _write_text(out, "green.txt", lines, echo=True)
    return 0


def cmd_decompose(field_path: str, out: str) -> int:
    try:
        values = read_field(field_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field: {exc}") from None
    spectral = SpectralField.from_real(values)
    pot, sol, mean = weyl_decompose(spectral)
    n = spectral.n
    os.makedirs(out, exist_ok=True)
    write_field(os.path.join(out, "part_pot.field"), pot.to_real())
    write_field(os.path.join(out, "part_sol.field"), sol.to_real())
    mean_grid = np.broadcast_to(mean.mandel, (n, n, M))
    write_field(os.path.join(out, "part_mean.field"), np.array(mean_grid))
    mean_field = SpectralField.from_real(np.array(mean_grid))
    inner = {
        "pot_sol": l2_inner(pot, sol),
        "pot_mean": l2_inner(pot, mean_field),
        "sol_mean": l2_inner(sol, mean_field),
    }
    lines = ["plate-decompose v1", f"d 2 N {n}"]
    lines += [f"inner_{k} {_fmt(v)}" for k, v in inner.items()]
    _write_text(out, "decompose_report.txt", lines, echo=True)
    return 0


def cmd_generate(cfg: RunConfig, out: str) -> int:
    if cfg.generator is None:
        raise ConfigError("generate requires micro.generator")
    field, desc = build_field(cfg)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "microstructure.micro")
    save_microstructure(field, path)
    print(f"wrote {path} ({desc})")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors, per the contract
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="platefft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")

    for name in ("solve", "homogenize", "spectrum", "generate"):
        common(sub.add_parser(name))
    green = sub.add_parser("green")
    green.add_argument("--y", required=True, help="evaluation point, e.g. 0.25,0.5")
    green.add_argument("--cutoff", type=int, required=True)
    green.add_argument("--out", default=None)
    decomp = sub.add_parser("decompose")
    decomp.add_argument("field_path")
    decomp.add_argument("--out", default=".")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "green":
            return cmd_green(args.y, args.cutoff, args.out)
        if args.command == "decompose":
            return cmd_decompose(args.field_path, args.out)
        cfg = load_run_config(args.config, args.set, args.seed)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "homogenize":
            return cmd_homogenize(cfg, args.out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.out)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
