"""tools/src_lines.py, the line counter behind the source-size figures."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

# a blank line and a "#" line inside a docstring are docstring lines, and a
# string statement after the first in its body is code
SAMPLE = '''"""Module docstring.

# a hash line inside the docstring
"""

import os  # a trailing comment


class Sample:
    """Class docstring."""

    # a full-line comment
    def method(self):
        """Function docstring."""
        "a string statement, not the first in its body"
        return os.sep
'''


def test_count_sorts_each_line_into_one_kind():
    counts = src_lines.count(SAMPLE)
    assert counts == {"code": 5, "docstring": 6, "comment": 1, "blank": 4}
    assert sum(counts.values()) == len(SAMPLE.splitlines())
