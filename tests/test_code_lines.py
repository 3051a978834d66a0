"""scripts/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment on its own line


class Record:
    """Class docstring."""

    def text(self):
        """Function docstring,
        on two lines."""
        body = """one
two
three"""
        return body + os.sep
'''


def test_count_skips_docstrings_comments_and_blank_lines():
    # code: import, class, def, the three lines of the string, return
    assert code_lines.count(SOURCE) == (len(SOURCE.splitlines()), 7)


def test_count_of_single_statements():
    assert code_lines.count("x = 1  # set x\n") == (1, 1)
    assert code_lines.count("# only a comment\n\n") == (2, 0)
    assert code_lines.count('"""A docstring."""\n') == (1, 0)
    # a string that starts an expression is code, not a docstring
    assert code_lines.count('"""a\nb""".split()\n') == (2, 2)


def test_main_prints_one_line_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    physical = len(SOURCE.splitlines())
    assert [line.split() for line in lines] == [
        ["module", "physical", "code"],
        ["a.py", str(physical), "7"],
        ["b.py", "1", "1"],
        ["total", str(physical + 1), "8"],
    ]
