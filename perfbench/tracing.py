"""Spans for the traced run, recorded from outside the program.

`instrument` wraps the public entry points of each platefft module at the
names through which the CLI reaches them, so one `cli.main` call records a
span (name, start, end, parent) per layer call, in the order the command
makes them and with its inputs.  Spans are kept in memory; the child writes
them out once the call has returned.  Nothing in the program is copied: the
per-stage split inside one solver iteration needs timers in the program and
is not measured here.
"""
from __future__ import annotations

import os
import time
import tracemalloc
from contextlib import contextmanager


def clock() -> float:
    """The clock shared by the benchmark and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": clock(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(args, result)` adds counts after the span ends."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.update(count(args, result))
            return result

        return traced

    def wrap_solve_cell(self, fn, allocations: bool):
        """solve_cell in a span, with its counts and, if `allocations`, its tracemalloc peak.

        tracemalloc hooks every allocation and slows small-grid solves by
        half, so the traced run measures allocations in a second pass whose
        times it discards.
        """

        def traced(*args, **kwargs):
            if allocations:
                tracemalloc.start()
            try:
                with self.span("solver.solve_cell") as record:
                    solution = fn(*args, **kwargs)
                if allocations:
                    record["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                if allocations:
                    tracemalloc.stop()
            record["iterations"] = solution.iterations
            record["final_residual"] = solution.final_residual
            return solution

        return traced


def _file_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _load_case_iterations(_args, effective) -> dict:
    return {"iterations": sum(case.iterations for case in effective.load_cases)}


@contextmanager
def instrument(tracer: Tracer, allocations: bool = False):
    """Replace the layer entry points with traced wrappers for the duration."""
    from platefft import cli, green, homogenize, microstructure, solver

    field_cls = microstructure.CoefficientField
    solve_cell = tracer.wrap_solve_cell(solver.solve_cell, allocations)
    frequency_grid = tracer.wrap("green.frequency_grid", green.FrequencyGrid)
    patches = [
        (cli, "load_microstructure", tracer.wrap("microstructure.load", cli.load_microstructure)),
        (field_cls, "mandel_grid", tracer.wrap("microstructure.mandel_grid", field_cls.mandel_grid)),
        (solver, "FrequencyGrid", frequency_grid),
        (green, "FrequencyGrid", frequency_grid),
        (cli, "select_reference", tracer.wrap("solver.select_reference", cli.select_reference)),
        (cli, "apriori_bound", tracer.wrap("solver.apriori_bound", cli.apriori_bound)),
        (cli, "solve_cell", solve_cell),
        (homogenize, "solve_cell", solve_cell),
        (
            cli,
            "effective_tensor",
            tracer.wrap("homogenize.effective_tensor", cli.effective_tensor, _load_case_iterations),
        ),
        (cli, "voigt_reuss_bounds", tracer.wrap("homogenize.bounds", cli.voigt_reuss_bounds)),
        (cli, "write_field", tracer.wrap("fieldio.write", cli.write_field, _file_bytes)),
        (cli, "read_field", tracer.wrap("fieldio.read", cli.read_field, _file_bytes)),
        (cli, "weyl_decompose", tracer.wrap("green.weyl_decompose", cli.weyl_decompose)),
        (green.SpectralField, "to_real", tracer.wrap("green.to_real", green.SpectralField.to_real)),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def probe_green(n: int, repeats: int = 7) -> dict:
    """Seconds per call of the Green multiply and of the FFT on an (N, N, 3) complex array."""
    import numpy as np

    from platefft.green import FrequencyGrid, apply_gamma_coeffs

    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((n, n, 3)) + 1j * rng.standard_normal((n, n, 3))
    grid = FrequencyGrid(2, n)

    def timed(call) -> list[float]:
        samples = []
        for _ in range(repeats):
            start = clock()
            call()
            samples.append(clock() - start)
        return samples

    return {
        "apply_gamma_s": timed(lambda: apply_gamma_coeffs(coeffs, grid, 1.0)),
        "fft_s": timed(lambda: np.fft.fftn(coeffs, axes=(0, 1))),
    }
