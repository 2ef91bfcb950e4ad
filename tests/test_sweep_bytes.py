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
cross-section.  The biharmonic strip pins the parity blocks of a cross-section
axis.  The p = 2 box, the Laplacian on (-l, l)^2 x (0, 1) at 4 cells per
unit, pins the fold of two axial axes, and the Poisson strip with
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
    "poisson_strip": "6df6f33b422d852d72c255b04d11832c4075b45ef31e6cb5e709eef20753397b",
    "biharmonic_strip": "43686589b1ec76a482e0e06929777c8ee518a1da3b3751b323b5cc307608b578",
    "varcoef_strip": "2cb0b7ed26642ffecfc2c3c0d97f8f39a4230bb3f665f4a4fe98f57271fd29e6",
    "skew_strip": "a7eb985c660d15517e013a8305a04aba657eaa20ac297446aabd27bfea034c5f",
    "skew_strip_degree_1": "c1d9f5ebcc8fa29977b3f1c0f5863fafa662fc2c639aa23ad612f18c10c22762",
    "box3d": "7b8b1597bd17099bc1c1cfc090a46dde01eb5f600b5bcb6768671e65fab4f3fa",
    "box_p2": "0a1c7f8d67f0d7d01744cdfb093b4dd5dd82ec23e765fdcda7dffb3a16e61b5c",
    "poisson_sin_x1": "27fe7cbdfe10f8be3904a7db9be4b45a8540d5a8976b58a42fd2f9f7eff37bbe",
}
JSON_DIGESTS = {
    "poisson_strip": "fc24a34c9d118a8dbb2c17a0586adcbf922e425e7543980d6335d62de277b339",
    "biharmonic_strip": "674d95f673679aa0be8a3aba39e0386495f9d99055fba153671126e110fd3b48",
    "varcoef_strip": "29df5b064160d044e1a3ac0a5c04f746766b77275beec0e9cc0cc8ced9071cb1",
    "skew_strip": "ae78d04aa9ae8ed08ad816a1ab8032d26ffa30c9c249c5c895fca7f7cebd263b",
    "skew_strip_degree_1": "efa6e7dcefd4a43ddcf363145eea5f062da8c62c2d6387c5b5e703f8da45d02b",
    "box3d": "34232b5708a4ecd0f7724c51ab271e226a4130865b11713f6a1565ba730f452e",
    "box_p2": "5f8eb860b74e64b0b2cf7a878ede97b7c0fe7d653ad4d20e35d23d300a8db30f",
    "poisson_sin_x1": "a2006e6e547b7d31d99ae705a61cd61b23b928041b8ce6ae275beb0da4005ba3",
}
# the CSV of `cylasym refine --l 2` at each problem's cells and degree
REFINE_DIGESTS = {
    ("poisson_strip", "8,16,32,64", "1"):
        "9772bc0d59a7cc7b7b160d60d748bcc52f6d4c3a815ab1d99f7ceca620ed3729",
    ("biharmonic_strip", "6,12,24", "3"):
        "c52fadf55998f2bc7178b92a69d453941854005173d808527c57fa49b038be4d",
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
