"""tools/code_lines.py counts the physical lines that statements span."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""A module docstring,
over two lines."""

import math  # a comment after code


# a comment on its own line
"a bare string statement"
value = max(
    math.pi,
    3.0)
"""Another bare string,
over two lines."""

if value:
    print(value)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_the_lines_statements_span(tmp_path):
    # import 1, the call 3, if 1, print 1: strings, comments and blanks drop
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert load_tool().code_lines(path) == 6
