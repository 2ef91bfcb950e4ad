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
    "poisson_strip": "0c0a65e843e76165d19691d539f2133409db00e69706b3844789d4c53c4dea2d",
    "biharmonic_strip": "8eeebc9b7262f041a02313d32f88313140cb0bd7cdb5d8c56706954d9f86fceb",
    "varcoef_strip": "cd47bd757eee12bcc0396daf7b09082bf8d33f679b118976e20f3b45694821a2",
    "skew_strip": "f64b600d9397e32571a08c5a1fa0597eebf19b90e69645862d71200901e79edc",
    "skew_strip_degree_1": "ee62c5f107441b28332c18d58cd3e2b3bfde28527a482afc750ff37ad4a7cdf2",
    "box3d": "dabe0c2d30cdad4fc022b3cd9ecc3ea2a1c34eea1ce152691be4ef682a93d77f",
    "box_p2": "4a804ff08991cca7773afe51d513c691b2db9a57e8ad2558f2b2964952609060",
    "poisson_sin_x1": "88007fe5b1254b97bafc5ba0daf1e6730f0bbdf3190d082f9c5d9e07cd86711f",
    "biharmonic_x2": "c86b721ccef84121c2abbf5ea03a26507c87a994e426052e69fcd6c9b3b00ac2",
}
JSON_DIGESTS = {
    "poisson_strip": "e2c5f097edd056d4d82b39945792439cebfa8ba667c94448341b9ffd27d2fdfd",
    "biharmonic_strip": "2b6c32ac1e8232c4dc2590f8b15971be675326937bb133722accf3aa8b2b7922",
    "varcoef_strip": "9ddf1dcf47db4290b46ae18cd644abd10dd0285c9fde900fef0276861ffc3c2e",
    "skew_strip": "76f4ac3401fb98bca492f226323024622c5588c0a470cd7a11210d9c9c102ebf",
    "skew_strip_degree_1": "6b794a0f22ce00b2636fcbfa36393009a0bca69c55657f83744732fd013cccd3",
    "box3d": "d5b48e3fa625f876579540a68a25c4267bdfb226c4bd8b08a90c04609b95cd02",
    "box_p2": "df150d62612f78988667c1b0b175a287f4c22ea6b5eee7811f42f21e869a8c24",
    "poisson_sin_x1": "a353955a7f50bd86053c33eaf4165cccabc8a3248370b2e9e7199806f042123d",
    "biharmonic_x2": "8fd0f6ffd3c99056e3f017d4fb2f53640630a91ef2fd2a719aa78328e20c3bd4",
}
# the CSV of `cylasym refine --l 2` at each problem's cells and degree
REFINE_DIGESTS = {
    ("poisson_strip", "8,16,32,64", "1"):
        "9a595352d40954b5eab74ace67fbae4934f8029bf3937b16ab74bead86195a65",
    ("biharmonic_strip", "6,12,24", "3"):
        "13e2bfb174902861c7d81cd95bb27612deb90c862cf8409267ce495188b9559f",
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
