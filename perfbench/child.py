"""One platefft CLI invocation, spawned by `perfbench/run.py`.

    python3 child.py STAMP MODE SPANS PROBE_N [CLI ARGS ...]

Writes to STAMP the CLOCK_MONOTONIC time at which `import platefft` finished,
and the file it was imported from, then calls `platefft.cli.main(CLI ARGS)`
and exits with its code.  MODE is `run`; `import`, which stops after the
stamp; or `trace`, which records spans of the call (see tracing.py), repeats
the call with allocation tracing if it solved a cell problem, times the Green
multiply and the FFT at N = PROBE_N, and writes all of it to SPANS as JSON.
"""
import sys
import time

import platefft

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    stamp, mode, spans_path, probe_n, cli_args = argv[0], argv[1], argv[2], int(argv[3]), argv[4:]
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(f"{IMPORTED!r} {platefft.__file__}\n")
    if mode == "import":
        return 0
    from platefft.cli import main as cli_main

    if mode == "run":
        return cli_main(cli_args)

    import json

    import tracing

    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.span("cli.main"):
        code = cli_main(cli_args)
    record = {"spans": tracer.spans, "alloc_spans": []}
    if any(s["name"] == "solver.solve_cell" for s in tracer.spans):
        alloc_tracer = tracing.Tracer()
        with tracing.instrument(alloc_tracer, allocations=True):
            cli_main(cli_args)
        record["alloc_spans"] = alloc_tracer.spans
    record["probes"] = tracing.probe_green(probe_n)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
