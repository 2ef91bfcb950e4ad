"""The refactor oracle: a small sweep of each builtin writes pinned CSV and
JSON bytes.

Each sweep runs as `python -m cylasym sweep --l 2,4,8 --cells-per-unit 8`
in a fresh interpreter with one BLAS thread, and its CSV's sha256 must equal
the digest pinned here.  So must its JSON report's, taken over the report
with its timings removed: the `timings` map, every record's `wall_time_s`
and `plan.source`; that pins the hypothesis report and the localized-energy
table, which the CSV does not carry.  The skew strip, the Poisson strip plus the
nonsymmetric a_0_1_0_0 = 1, pins the banded LU path: LAPACK's dgbsv for
every system, its tridiagonal cross-section system at degree 1 included.
The 3-D box, the Laplacian on (-l, l) x (0, 1)^2 at 4 cells per
unit, pins the fast-diagonalization path of a two-dimensional
cross-section.  The biharmonic strip, whose forcing f = 1 is even in x2,
pins the solve of the even parity block alone (the section places its load
along x2 from the stencil, so the odd block's is exactly zero and left
out); the biharmonic strip with f = 1 + x2, which reads x2, pins both
parity blocks of a cross-section axis.  The p = 2 box, the Laplacian on (-l, l)^2 x (0, 1) at
4 cells per unit, pins the fold of two axial axes, and the Poisson strip with
a_1_0_1_0 = 2 + sin(x1) the solve of an n-D band.  Two refinement runs,
`python -m cylasym refine --l 2` of the Poisson strip at degree 1 and of
the biharmonic strip at degree 3, pin their CSVs too.  A change that
should leave every value alone keeps them; a change that moves values
re-pins them and lists old -> new.  The digests depend on the numpy and
scipy builds that computed them and on the OpenBLAS build and kernel that
the solves bind (its scipy_openblas_get_config64_() string), so the test
runs only on the versions recorded next to them.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from cylasym import linalg

PINNED_VERSIONS = {
    "numpy": "2.4.6", "scipy": "1.17.1",
    "openblas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX "
                "MAX_THREADS=64",
}
DIGESTS = {
    "poisson_strip": "94209fa224591ef70b759cadfaa7615c90ff310a3e09e9be92c8f71b8b693652",
    "biharmonic_strip": "492deecc14f6f3a04743a3cc242b305743b08491babde2a04f00ae3ea5ba9a26",
    "varcoef_strip": "ff981518bece31229f2c3fbcfd002b29a51235e6bd0b2c798e8b92abe93e542b",
    "skew_strip": "37800540be1d32760dc559403969c98feac9413fd9610e65a4432cb79bb8addf",
    "skew_strip_degree_1": "d91c38163ef2ff5364c763287967da35dcc4edd17b4ad21ba36910e026521b31",
    "box3d": "e8807110d3ecdf03551eb39d7b8e4c217de054dad9684033a3df01015b2e8d9f",
    "box_p2": "3e662aeb65ecb0b557f0f4b16d8ac59b5d5b838e3358e7653a5cc0a5dbd02bbb",
    "poisson_sin_x1": "a93a6f0bd765bae276da76654d2646ce627b6471f32df084778b5dc370d6c800",
    "biharmonic_x2": "edac9ed30d39017a2a528cb18438eb933b9fb19089cfa303a994cf5619ebf071",
}
JSON_DIGESTS = {
    "poisson_strip": "8c071851df0d28c7cbc23a1180e326be0f2080ee79110e52fb94d648e62810ed",
    "biharmonic_strip": "69f5ab44938b76dd334a9b7d7e48d089f30213ebd3b46481f3843a05ce294c38",
    "varcoef_strip": "9328f2b6ef27982e936729d8589ca82c868a941f3fcf9c0f53822c0da82ebc8a",
    "skew_strip": "6781508c5a36c091e41d88dd22419443b65cbb65a231d8fca8b616996ab756e9",
    "skew_strip_degree_1": "98290daffdd1f60ee2b532be5e065a388cf864184299f819c89ad33dda6fa45b",
    "box3d": "e3eff10896eae1625f52be724b0c9a7271a46bc170fe1da8243e14f7da9b9243",
    "box_p2": "2199cb43473db8b63b180355c6ada47be2e586e38144b355b06bf74e0e256f19",
    "poisson_sin_x1": "161ebc01452a2712a4c8c629584da5b7a3f731de341bb57c619522151510592d",
    "biharmonic_x2": "010409f082ed665373bcfb73f72da4aaf7555a9026f11191319c756630174312",
}
# the CSV of `cylasym refine --l 2` at each problem's cells and degree
REFINE_DIGESTS = {
    ("poisson_strip", "8,16,32,64", "1"):
        "d4815ea3d37e3dfce2ddbef04c7898d62a922e13d7c295891a24c63887983a27",
    ("biharmonic_strip", "6,12,24", "3"):
        "d06ee002f0c996b55ce3c0d28b42ee9dbb363a9b4c0577c5d10fd67f514067dc",
}
SKEW_CONFIG = (
    "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
    "a_0_1_0_0 = 1\na_0_1_0_1 = 1\na_1_0_1_0 = 1\n\n[forcing]\nf = 1\n"
)
BOX_CONFIG = (
    "[problem]\nm = 1\nn = 3\np = 1\nomega = 0,1;0,1\n\n[coef]\n"
    "a_1_0_0_1_0_0 = 1\na_0_1_0_0_1_0 = 1\na_0_0_1_0_0_1 = 1\n\n[forcing]\n"
    "f = sin(3.141592653589793 * x2) * sin(3.141592653589793 * x3)\n"
)
BOX_P2_CONFIG = (
    "[problem]\nm = 1\nn = 3\np = 2\nomega = 0,1\n\n[coef]\n"
    "a_1_0_0_1_0_0 = 1\na_0_1_0_0_1_0 = 1\na_0_0_1_0_0_1 = 1\n\n[forcing]\n"
    "f = sin(3.141592653589793 * x3)\n"
)
BIHARMONIC_X2_CONFIG = (
    "[problem]\nm = 2\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
    "a_0_2_0_2 = 1\na_0_2_2_0 = 1\na_2_0_0_2 = 1\na_2_0_2_0 = 1\n\n[forcing]\nf = 1 + x2\n"
)
SIN_X1_CONFIG = (
    "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
    "a_1_0_1_0 = 2 + sin(x1)\na_0_1_0_1 = 1\n\n[forcing]\nf = 1\n"
)
# (config, extra arguments, cells per unit) of the sweeps of a config file
CONFIGS = {
    "skew_strip": (SKEW_CONFIG, [], 8),
    "skew_strip_degree_1": (SKEW_CONFIG, ["--degree", "1"], 8),
    "box3d": (BOX_CONFIG, [], 4),
    "box_p2": (BOX_P2_CONFIG, [], 4),
    "poisson_sin_x1": (SIN_X1_CONFIG, [], 8),
    "biharmonic_x2": (BIHARMONIC_X2_CONFIG, [], 8),
}
SRC = Path(__file__).resolve().parents[1] / "src"
ONE_THREAD = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}



def _openblas_config():
    """The configuration string of the OpenBLAS the solves bind, or None
    where they bind scipy.linalg.lapack's routines."""
    lib = linalg._openblas()
    if lib is None:
        return None
    config = lib.scipy_openblas_get_config64_
    config.restype = ctypes.c_char_p
    return config().decode()


_versions = {"numpy": np.__version__, "scipy": scipy.__version__,
             "openblas": _openblas_config()}


def untimed_json_digest(path):
    """sha256 of the JSON report at path, its timings removed."""
    report = json.loads(path.read_text())
    del report["timings"], report["plan"]["source"]
    for record in report["records"]:
        del record["wall_time_s"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


pinned_versions = pytest.mark.skipif(
    _versions != PINNED_VERSIONS,
    reason=f"digests pinned with {PINNED_VERSIONS}, running {_versions}")


def _cylasym(args, cwd):
    subprocess.run([sys.executable, "-m", "cylasym", *args], capture_output=True, check=True,
                   cwd=cwd, env={**os.environ, **ONE_THREAD, "PYTHONPATH": str(SRC)})


@pinned_versions
@pytest.mark.parametrize("problem", DIGESTS)
def test_sweep_csv_bytes_are_pinned(tmp_path, problem):
    # the sweep runs in tmp_path and names its config relatively, so the
    # report's problem name is the same in every run
    csv, report = tmp_path / f"{problem}.csv", tmp_path / f"{problem}.json"
    args, cells = ["--problem", problem], 8
    if problem in CONFIGS:
        text, extra, cells = CONFIGS[problem]
        (tmp_path / f"{problem}.cfg").write_text(text)
        args = ["--problem", f"{problem}.cfg", *extra]
    _cylasym(["sweep", *args, "--l", "2,4,8", "--cells-per-unit", str(cells),
              "--out-csv", csv.name, "--out-json", report.name], tmp_path)
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == DIGESTS[problem]
    assert untimed_json_digest(report) == JSON_DIGESTS[problem]


@pinned_versions
@pytest.mark.parametrize("problem,cells,degree", REFINE_DIGESTS, ids=lambda v: v)
def test_refine_csv_bytes_are_pinned(tmp_path, problem, cells, degree):
    csv = tmp_path / "refine.csv"
    _cylasym(["refine", "--problem", problem, "--l", "2", "--cells", cells,
              "--degree", degree, "--out-csv", csv.name], tmp_path)
    assert (hashlib.sha256(csv.read_bytes()).hexdigest()
            == REFINE_DIGESTS[(problem, cells, degree)])
