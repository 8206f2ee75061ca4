import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("untested_lines", os.path.join(ROOT, "tools", "untested_lines.py"))
untested_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested_lines)

SOURCE = '''"""A module docstring."""
import functools


@functools.lru_cache
def f(x):
    """A docstring."""
    if x:
        return (
            1
        )
    try:
        y = int(str(x))
    except ValueError:
        y = 2
    global Z
    return y
'''


def test_lister_names_the_statements_a_traced_run_missed(tmp_path):
    heads = untested_lines.statement_heads(SOURCE)
    assert sorted(heads) == [2, 5, 8, 9, 13, 15, 17]  # no docstring, `try:` or `global`
    assert heads[5] == range(5, 7) and heads[9] == range(9, 12)
    path = tmp_path / "tiny.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("tiny", path)
    tiny = importlib.util.module_from_spec(spec)
    tracer = untested_lines.LineTracer(str(tmp_path))
    previous = sys.gettrace()  # the tool itself may be tracing this test run
    sys.settrace(tracer)
    try:
        spec.loader.exec_module(tiny)
        tiny.f(0)
    finally:
        sys.settrace(previous)
    assert untested_lines.untested(SOURCE, tracer.executed[str(path)]) == [9, 15]
