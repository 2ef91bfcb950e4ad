"""The package ships what its commands run.

The test runs the commands in process under sys.setprofile: a sweep of
every builtin, the sweeps of the configs that tests/test_sweep_bytes.py
pins, a sweep on two workers, both pinned refinement runs and validate.
Every function defined in src/, nested ones included, must then have been
entered, apart from ALLOWED, which gives the reason for each.  Methods that
dataclasses generate are compiled outside src/, so they are not counted;
neither are lambdas and comprehensions.
"""

import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

from test_sweep_bytes import CONFIGS, REFINE_DIGESTS

from cylasym import cli
from cylasym.problem import builtin_names

SRC = Path(__file__).resolve().parents[1] / "src" / "cylasym"
ALLOWED = {
    # bench/instrument.py wraps the retired Krylov names on cylasym.harness
    # and reads the CSR matrix of every system it traces; no sweep calls them
    "_no_krylov": "bench/instrument.py wraps the Krylov names bound to it; no sweep calls them",
    "AssembledSystem.matrix": "bench/instrument.py reads it after every assembly",
    "_sendable": "runs only in the forked children, which exit by os._exit",
    "_Parser.error": "argparse's error path",
    "ExpressionError.__init__": "the parser's error path",
}


def _defined(code, out):
    """The code objects of the functions defined in code, in class bodies
    and nested ones included; lambdas and comprehensions are left out."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                out.append(const)
            _defined(const, out)
    return out


def _key(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def _commands(tmp_path):
    runs = [["sweep", "--problem", name] for name in builtin_names()]
    for name, (text, extra, cells) in CONFIGS.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        runs.append(["sweep", "--problem", str(config), *extra,
                     "--cells-per-unit", str(cells)])
    runs = [run + ["--l", "2,4,8", "--out-csv", str(tmp_path / "sweep.csv"),
                   "--out-json", str(tmp_path / "sweep.json")] for run in runs]
    runs.append(["sweep", "--problem", "biharmonic_strip", "--l", "2,4",
                 "--cells-per-unit", "8", "--workers", "2"])
    for problem, cells, degree in REFINE_DIGESTS:
        runs.append(["refine", "--problem", problem, "--l", "2", "--cells", cells,
                     "--degree", degree, "--out-csv", str(tmp_path / "refine.csv")])
    runs.append(["validate", "--problem", "poisson_strip"])
    return runs


def test_every_function_in_src_is_entered_by_the_commands(tmp_path, capsys):
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        defined.update((_key(c), c.co_qualname) for c in _defined(code, []))
    # a function cache filled by an earlier test would skip its function
    for name, module in list(sys.modules.items()):
        if name.startswith("cylasym"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in _commands(tmp_path)]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(codes)
    entered = {_key(code) for code in entered}
    missed = sorted(name for key, name in defined.items() if key not in entered)
    assert missed == sorted(ALLOWED)
