"""No module under src/ imports a name it never reads.

A stale import passes every other test, so this check parses each module
with ast.  Every name an import statement binds must be read somewhere in
its module, as a name or as a string of __all__, unless the statement's
first line carries `# noqa: F401`: harness keeps the names that
bench/instrument.py patches on it that way.
"""

import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cylasym"
NOQA = "# noqa: F401"


def unread_imports(source: str) -> list:
    """(line, name) of every name an import binds and the module never
    reads, in line order, leaving out statements whose first line carries
    NOQA."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and NOQA not in lines[node.lineno - 1]:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append((node.lineno, name))
    return sorted(unread)


def test_no_module_under_src_imports_a_name_it_never_reads():
    unread = {path.name: unread_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unread.items() if found} == {}


def test_the_check_finds_a_stale_import_and_keeps_a_marked_one():
    source = textwrap.dedent(f"""\
        import os
        import numpy as np
        import os.path
        from math import pi, tau
        from json import (  {NOQA}
            dumps,
        )
        from csv import reader

        __all__ = ["reader"]


        def f():
            from itertools import chain
            return np.zeros(1) + pi
        """)
    assert unread_imports(source) == [(1, "os"), (3, "os"), (4, "tau"), (14, "chain")]
