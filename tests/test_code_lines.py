"""tools/code_lines.py: the code-line count that size figures are given in."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "code_lines.py")

SOURCE = '''"""A module docstring
over two lines."""

# A comment.
import os


class C:
    """A class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):  # a trailing comment
        """A function docstring."""
        return (1,
                2)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_code_lines_skips_docstrings_comments_and_blanks():
    # import, class, the two lines of x, def, and the two lines of return.
    assert _tool().code_lines(SOURCE) == 7


def test_code_lines_total_is_the_sum_of_its_modules(capsys):
    _tool().main()
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(n) for name, n in (line.split() for line in lines)}
    total = counts.pop("total")
    assert {"core", "machines", "translations"} <= set(counts)
    assert total == sum(counts.values())
