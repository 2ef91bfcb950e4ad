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
    "poisson_strip": "eea9eaff86bc3a04f598e8033db3fbe400be03b9eb91262436e6d780fdcafacc",
    "biharmonic_strip": "63bf18fb54d9c53f8d689f28ab6568f2ce42cc9231cf42f2f1e87ada5881c141",
    "varcoef_strip": "d5a4bcbe7e9d643eac80c990391106c3e0d49256f4fc5466b6396da2afec3000",
    "skew_strip": "b96912699e1b7ebd0f7ccf38e44d1ef70d6fc54cec23e34febcd5867088d74ae",
    "skew_strip_degree_1": "3f93bd0a2540c1f0a09157763f436c87133fe2c9ceb7d903d43eedd354ab12ec",
    "box3d": "ae615605de4bb0b05c30b892a82fed46a23b20b8fa99fc4055656b47c3548227",
    "box_p2": "012ce15478be2ff81a6992da6e14a6e522c352fde19d7d9d8a4a5b7d838fdd7d",
    "poisson_sin_x1": "06668ddcd5080c7403eaf3fcbd66377ff4d6bed68344e3cafee3b536f9e1c050",
    "biharmonic_x2": "511c82a41c29faa56f1be4d3c1ebe9c0d601af3986930b91b9a225e8d8d19f5d",
}
JSON_DIGESTS = {
    "poisson_strip": "cc299c78d95d69eb5762ba0bc9e6eeaac2f291f1c2a675795b11e1d5650f8108",
    "biharmonic_strip": "c0cac3a1a0383f1625e99e0632c802c7dc88d557cd668d62c81ab1251ac5ead5",
    "varcoef_strip": "ea643aa1b46b2ef57e43d35a1e046b2387a470bfe16c89a4736a9d7d531b8fa8",
    "skew_strip": "54e223ee32508c364c1fb5b6abf5b547ce9377703681955f79791b0bb33d617b",
    "skew_strip_degree_1": "222ab5f94a7614b9ab17a57d28fc8600870b8763f5ef19a046b7856aef422592",
    "box3d": "a8c5b9253eb43089cf591c17bfdf6d75cd151bb707e07a0a97a0de93d2048656",
    "box_p2": "33c1b2ffdb102f1ce3e0f822094f0965d5e9789273925be5c3dadb1da18f61c4",
    "poisson_sin_x1": "186fc06a5ee5ef9a22c387b11533432ffacfb0882f567456b992c1a346d78047",
    "biharmonic_x2": "f893562623d10531bfbf451a2526cc53d359fbe7e99ac74723c3021fd185750c",
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
