import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(wall, rss=None, failed=0):
    """A run's JSON result as perfbench/run.py prints it, with wall_s and, if given, peak_rss_mb."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    if rss is not None:
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    return {"correct": failed == 0, "attempted": 2, "failed": failed, "metrics": metrics}


def test_summary_of_canned_pairs():
    runs = [
        {"pair": 0, "first": "parent", "parent": result(2.0, 80.0), "change": result(1.0, 79.0)},
        {"pair": 1, "first": "change", "parent": result(3.0, 80.0), "change": result(3.0, 81.0, failed=1)},
        {"pair": 2, "first": "parent", "parent": result(4.0), "change": result(2.0, 79.0)},
        {"pair": 3, "first": "change", "parent": None, "change": result(9.0, 79.0)},
        {"pair": 4, "first": "parent", "parent": result(5.0, 80.0), "change": result(6.0, 78.0)},
    ]
    directions = {"wall_s": "lower", "peak_rss_mb": "lower", "fft_gflop_s": "higher"}
    summary = bench_pairs.summarize(runs, directions)
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"] == {"values": [2.0, 3.0, 4.0, 5.0], "median": 3.5, "q1": 2.75, "q3": 4.25}
    assert wall["change"]["values"] == [1.0, 3.0, 2.0, 6.0] and wall["change"]["median"] == 2.5
    assert (wall["pairs"], wall["change_better_pairs"]) == (4, 2)  # the tie in pair 1 is no win; pair 3 failed
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["parent"]["values"] == [80.0, 80.0, 80.0]  # pair 2's parent did not report it
    assert (rss["pairs"], rss["change_better_pairs"]) == (3, 2)
    assert summary["metrics"]["fft_gflop_s"]["pairs"] == 0
    assert summary["failed"] == {
        "parent": {"failed_runs": 1, "failed_invocations": 0, "attempted_invocations": 8},
        "change": {"failed_runs": 0, "failed_invocations": 1, "attempted_invocations": 10},
    }
    assert bench_pairs.summary_lines(summary) == [
        "wall_s (s, lower is better): parent 3.5 (q1 2.75, q3 4.25) -> change 2.5 (q1 1.75, q3 3.75), -28.6 %,"
        " change better in 2 of 4 pairs",
        "peak_rss_mb (MiB, lower is better): parent 80 (q1 80, q3 80) -> change 79 (q1 78.5, q3 80), -1.2 %,"
        " change better in 2 of 3 pairs",
        "fft_gflop_s: no pair reported it",
        "failed: parent 0 of 8 invocations and 1 runs, change 1 of 10 invocations and 0 runs",
    ]


def test_higher_is_better_and_a_single_pair():
    runs = [{"pair": 0, "first": "parent", "parent": result(1.0), "change": result(2.0)}]
    summary = bench_pairs.summarize(runs, {"wall_s": "higher"})
    wall = summary["metrics"]["wall_s"]
    assert wall["change_better_pairs"] == 1
    assert wall["change"] == {"values": [2.0], "median": 2.0, "q1": 2.0, "q3": 2.0}


def test_environment_records_blas_thread_settings(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("GOTO_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "")
    env = bench_pairs.environment()
    assert {var: env[var] for var in bench_pairs.THREAD_VARS} == {
        "OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": ""}
    assert env["nproc"] >= 1 and {"numpy", "python"} <= env.keys()
