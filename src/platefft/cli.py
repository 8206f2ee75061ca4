"""Batch command-line front end.

Subcommands: solve, homogenize, spectrum, green, decompose, generate.
Configuration is a flat key=value text file plus repeatable --set overrides;
every artifact starts with a one-line versioned format header and is written
with full (17 significant digit) precision, so identical configurations and
seeds reproduce byte-identical outputs.

Exit codes: 0 success, 2 non-convergence, 1 any other error: a bad option,
config, microstructure or field, an unreadable input or an unwritable --out.
`main` is the one place that turns an error into exit 1: every ValueError or
OSError ends there as a one-line `error: ...` on stderr.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .fieldio import FLOAT_FMT, read_field, write_field
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
    series_factor,
    solve_cell,
    spectral_bound,
)


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


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
    tolerance: float = SolverConfig.tolerance
    max_iterations: int = SolverConfig.max_iterations
    e0: tuple[float, ...] | None = None
    seed: int = 0
    power_iterations: int = 30


def _parse_e0(text: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ValueError(f"needs 3 Mandel components, got {len(parts)}")
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
        raise ValueError(f"unknown configuration key {key!r}")
    attr, parser = _KEYS[key]
    try:
        setattr(cfg, attr, parser(value.strip()))
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}") from None


def load_run_config(path: str | None, sets: list[str], seed: int | None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read config file: {exc}") from None
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            _assign(cfg, key, value)
    for item in sets:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        _assign(cfg, key, value)
    if seed is not None:
        cfg.seed = seed
    return cfg


def build_field(cfg: RunConfig) -> tuple[CoefficientField, str]:
    """Materialize the microstructure; returns the field and a description line."""
    if (cfg.micro_file is None) == (cfg.generator is None):
        raise ValueError("exactly one of micro.file and micro.generator is required")
    if cfg.micro_file is not None:
        try:
            field = load_microstructure(cfg.micro_file)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load microstructure: {exc}") from None
        return field, f"file {cfg.micro_file}"
    if cfg.n is None:
        raise ValueError("generators require micro.n")
    # Not alpha * identity: 0 * inf would warn before StiffTensor4 rejects the infinite entry.
    a = StiffTensor4(np.diag([cfg.alpha] * M))
    b = StiffTensor4(np.diag([cfg.beta] * M))
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
        raise ValueError(f"unknown generator {cfg.generator!r}")
    return field, desc


def _write_text(out: str | None, name: str, lines: list[str], echo: bool = False) -> None:
    """Write `lines` as the artifact out/name (skipped if out is None); echo prints them first."""
    text = "\n".join(lines) + "\n"
    if echo:
        print(text, end="")
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_history(out: str, name: str, history) -> None:
    rows = zip(history.iterations, history.residuals, history.deltas, history.energies)
    _write_text(out, name, [
        "# plate-history v1",
        "iter,residual,delta,energy",
        *(f"{i},{_fmt(r)},{_fmt(d)},{_fmt(e)}" for i, r, d, e in rows),
    ])


def _series_factor_lines(field, ref) -> list[str]:
    """The paper's trace-reference factor, then 1/(1 - q) of the reference lam0 * Id the solver runs.

    q = max |mu - lam0| / lam0 over the eigen-range; under the arithmetic rule it is spectral_bound.
    """
    q = max(ref.mu_max - ref.lambda0, ref.lambda0 - ref.mu_min) / ref.lambda0
    factors = (("series_factor", apriori_bound(field, ref)), ("series_factor_potential", series_factor(q)))
    return [f"{key} {'divergent' if math.isinf(f) else _fmt(f)}" for key, f in factors]


def _reference_lines(ref) -> list[str]:
    return [
        f"reference {ref.strategy} lambda0 {_fmt(ref.lambda0)}",
        f"eigen_range {_fmt(ref.mu_min)} {_fmt(ref.mu_max)}",
    ]


def _report_head(command: str, desc: str, n: int, ref) -> list[str]:
    """The first lines of solve's and homogenize's report.txt: format, command, cell, grid and reference."""
    return ["plate-report v1", f"command {command}", f"microstructure {desc}", f"d 2 N {n}", *_reference_lines(ref)]


def _bound_lines(key: str, ref) -> list[str]:
    """The spectral_bound line of the arithmetic rule; the other rules claim no bound."""
    if ref.strategy != "arithmetic":
        return []
    return [f"{key} {_fmt(spectral_bound(ref.mu_min, ref.mu_max))}"]


def cmd_solve(cfg: RunConfig, out: str) -> int:
    field, desc = build_field(cfg)
    if cfg.e0 is None:
        raise ValueError("solve requires e0")
    ref = select_reference(field, cfg.strategy, cfg.lambda0)
    config = SolverConfig(SymTensor2(np.array(cfg.e0)), cfg.tolerance, cfg.max_iterations)
    solution = solve_cell(field, ref, config)
    os.makedirs(out, exist_ok=True)
    write_field(os.path.join(out, "solution_E.field"), solution.curvature)
    write_field(os.path.join(out, "moment_J.field"), solution.moment)
    _write_history(out, "history.csv", solution.history)
    lines = [
        *_report_head("solve", desc, field.n, ref),
        *_bound_lines("spectral_bound", ref),
        f"tolerance {_fmt(cfg.tolerance)}",
        f"max_iterations {cfg.max_iterations}",
        "e0 " + " ".join(_fmt(v) for v in cfg.e0),
        f"converged {'true' if solution.converged else 'false'}",
        f"iterations {solution.iterations}",
        f"residual {_fmt(solution.final_residual)}",
        *_series_factor_lines(field, ref),
        f"energy {_fmt(solution.energy)}",
        "mean_moment " + " ".join(_fmt(v) for v in solution.mean_moment.mandel),
    ]
    _write_text(out, "report.txt", lines)
    if not solution.converged:
        print(f"solve did not converge {solution.stopped()}", file=sys.stderr)
        return 2
    return 0


def _matrix_lines(matrix: np.ndarray) -> list[str]:
    return [" ".join(_fmt(v) for v in row) for row in matrix]


def cmd_homogenize(cfg: RunConfig, out: str) -> int:
    field, desc = build_field(cfg)
    ref = select_reference(field, cfg.strategy, cfg.lambda0)
    try:
        effective = effective_tensor(field, ref, SolverConfig(None, cfg.tolerance, cfg.max_iterations))
    except NonConvergenceError as exc:
        print(f"homogenize failed: {exc}", file=sys.stderr)
        return 2
    bounds = voigt_reuss_bounds(field)
    verdict = bracket_check(bounds, effective.tensor)
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
        _write_history(out, f"history_case{case.index}.csv", case.history)
    lines = [
        *_report_head("homogenize", desc, field.n, ref),
        f"tolerance {_fmt(cfg.tolerance)}",
        f"asymmetry {_fmt(effective.asymmetry)}",
        "iterations " + " ".join(str(c.iterations) for c in effective.load_cases),
        *_series_factor_lines(field, ref),
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


def cmd_spectrum(cfg: RunConfig, out: str) -> int:
    field, desc = build_field(cfg)
    ref = select_reference(field, cfg.strategy, cfg.lambda0)
    estimate = estimate_spectral_radius(field, ref, cfg.power_iterations, cfg.seed)
    lines = [
        "plate-spectrum v1",
        f"microstructure {desc}",
        *_reference_lines(ref),
        *_bound_lines("bound", ref),
        f"estimate {_fmt(estimate)}",
        f"seed {cfg.seed}",
        *_series_factor_lines(field, ref),
    ]
    _write_text(out, "spectrum.txt", lines, echo=True)
    return 0


def cmd_green(y_text: str, cutoff: int, out: str | None) -> int:
    try:
        y = np.array([float(v) for v in y_text.replace(",", " ").split()])
    except ValueError as exc:
        raise ValueError(f"bad evaluation point: {exc}") from None
    if y.shape[0] != 2:
        raise ValueError(f"evaluation point needs 2 coordinates, got {y.shape[0]}")
    if not np.isfinite(y).all():
        raise ValueError(f"evaluation point must be finite, got {y_text!r}")
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
        raise ValueError(f"cannot read field: {exc}") from None
    n = values.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, before anything is written
        pot, sol, mean = weyl_decompose(SpectralField.from_real(values))
        # A part's L2 product with the constant part is the product of their means; einsum sums from +0.0, not -0.0.
        inner = {
            "pot_sol": l2_inner(pot, sol),
            "pot_mean": float(np.einsum("a,a->", pot.mean().mandel, mean.mandel)),
            "sol_mean": float(np.einsum("a,a->", sol.mean().mandel, mean.mandel)),
        }
    # A non-finite coefficient in either part makes pot_sol non-finite, so this covers the parts too.
    if not (np.isfinite(mean.mandel).all() and np.isfinite(list(inner.values())).all()):
        raise ValueError("field is too large to decompose: its mean or L2 inner products overflow")
    os.makedirs(out, exist_ok=True)
    write_field(os.path.join(out, "part_pot.field"), pot.to_real())
    write_field(os.path.join(out, "part_sol.field"), sol.to_real())
    write_field(os.path.join(out, "part_mean.field"), np.broadcast_to(mean.mandel, (n, n, M)))
    lines = ["plate-decompose v1", f"d 2 N {n}"]
    lines += [f"inner_{k} {_fmt(v)}" for k, v in inner.items()]
    _write_text(out, "decompose_report.txt", lines, echo=True)
    return 0


def cmd_generate(cfg: RunConfig, out: str) -> int:
    if cfg.generator is None:
        raise ValueError("generate requires micro.generator")
    field, desc = build_field(cfg)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "microstructure.micro")
    save_microstructure(field, path)
    print(f"wrote {path} ({desc})")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors, per the contract
        raise ValueError(message)


def _build_parser() -> _Parser:
    """The subcommands; each one's `run` default maps the parsed arguments to its cmd_* call."""
    parser = _Parser(prog="platefft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in (
        ("solve", cmd_solve), ("homogenize", cmd_homogenize),
        ("spectrum", cmd_spectrum), ("generate", cmd_generate),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(run=lambda a, cmd=cmd: cmd(load_run_config(a.config, a.set, a.seed), a.out))
    green = sub.add_parser("green")
    green.add_argument("--y", required=True, help="evaluation point, e.g. 0.25,0.5")
    green.add_argument("--cutoff", type=int, required=True)
    green.add_argument("--out", default=None)
    green.set_defaults(run=lambda a: cmd_green(a.y, a.cutoff, a.out))
    decomp = sub.add_parser("decompose")
    decomp.add_argument("field_path")
    decomp.add_argument("--out", default=".")
    decomp.set_defaults(run=lambda a: cmd_decompose(a.field_path, a.out))
    return parser


def _join_points(argv: list[str]) -> list[str]:
    """argv with each `--y` that a `-`-leading token follows joined to it as `--y=<token>`.

    argparse takes only plain negative numbers as values, so it would read a separate `-0.75,0.5` as an option.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] == "--y" and token.startswith("-") and not token.startswith("--"):
            joined[-1] = f"--y={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(_join_points(sys.argv[1:] if argv is None else argv))
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
