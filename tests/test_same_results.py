import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("same_results", os.path.join(ROOT, "tools", "same_results.py"))
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)


def test_compare_trees_reports_each_artifact(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "case").mkdir(parents=True)
        (root / "case" / "report.txt").write_text("energy 1.5\nconverged true\n")
    (a / "case" / "history.csv").write_text("iter,delta\n1,0.25\n2,4\n")
    (b / "case" / "history.csv").write_text("iter,delta\n1,0.25\n2,4.5\n")
    (a / "case" / "stdout").write_text("wrote x\n")
    (b / "case" / "stdout").write_text("wrote y z\n")
    (a / "case" / "flags.txt").write_text("converged true 0\n")
    (b / "case" / "flags.txt").write_text("converged false -0\n")
    (b / "case" / "extra.field").write_text("1\n")
    assert same_results.compare_trees(a, b) == {
        "case/extra.field": f"differs: only in {b}",
        "case/flags.txt": "differs: 2 of 3 values, max abs 0, max rel 0",
        "case/history.csv": "differs: 1 of 6 values, max abs 0.5, max rel 0.111",
        "case/report.txt": "identical",
        "case/stdout": "differs: 2 against 3 values",
    }
