"""The code-line counter of tests/code_lines.py."""

import textwrap

from code_lines import code_lines, main

SNIPPET = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    import os  # a trailing comment counts as code


    # a comment line
    def f(a,
          b):
        """Function docstring."""
        x = (a +
             b)
        y = a \\
            + b
        text = """a string
    that is not a docstring"""
        return x, y, text


    class C:
        """Class docstring."""

        value = 1
    ''')


def test_the_counter_leaves_out_blanks_comments_and_docstrings():
    # import, def over 2 lines, x over 2, y over 2, text over 2, return,
    # class, value
    assert code_lines(SNIPPET) == 12


def test_the_counter_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1 b.py", "    12 pkg/a.py", "    13 total"]
