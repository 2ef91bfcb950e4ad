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
pins the solve of the even parity block alone (the section mirror averages
its load, so the odd block's is exactly zero and left out); the biharmonic
strip with f = 1 + x2, which reads x2, pins both parity blocks of a
cross-section axis.  The p = 2 box, the Laplacian on (-l, l)^2 x (0, 1) at
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
    "poisson_strip": "c8332474cd4de2907683dd914df30cca04886c6f47853d86cb7cd1ab51366eff",
    "biharmonic_strip": "8149a643be399bde99967841d79162e71acd4fcb2e6dcc6f7a59e1de3aa0f082",
    "varcoef_strip": "cd47bd757eee12bcc0396daf7b09082bf8d33f679b118976e20f3b45694821a2",
    "skew_strip": "98f4bbe5387e173e2ab44a760cf3a95e902fe6ea9b6353e57fca097c3377c4b1",
    "skew_strip_degree_1": "ec6e23f8aa765d6fd983606dcd27534301d5f0c5647c1cfe2ce6a63b9b4608fd",
    "box3d": "3369f16799fb33dc9c9a0dbc6ab7dff326a3b566bf17b9c15a3efd83d1f0d2d0",
    "box_p2": "8dd8c33ea7e202efd926c1bd6ac53298bd53f31c7222e32e8cfa5d9adae5852a",
    "poisson_sin_x1": "489684b6562aba250c6526ea518e878fc4d1af0b49345f76ad71b93f87b9096a",
    "biharmonic_x2": "011a729ecfac4711ab696ab7ffab4a09e8d705653e0e7244ae564f953f414831",
}
JSON_DIGESTS = {
    "poisson_strip": "b5fcadfba5003faea780350f29390885eeeea0dfb0846f44d47cb9099fd7d5c9",
    "biharmonic_strip": "7994d6101cb67623401674d7377bc82c33c5ab7f3c90a665ec5a7399e815c324",
    "varcoef_strip": "9ddf1dcf47db4290b46ae18cd644abd10dd0285c9fde900fef0276861ffc3c2e",
    "skew_strip": "4eb2d8faa68caebad28c6710a3cf5b5ce61db67c44f4a746bc8536ed6f5f41b4",
    "skew_strip_degree_1": "a35b03f8f102087e6795219f8df0cd938e5dbf08c48c14738cb520eadda93c9c",
    "box3d": "bd303394c5f52ee0b45c2c57e9bb8a7b4c223263af21724dc7b1ac5b90c6221e",
    "box_p2": "687ffceeebb162a00ef20cc2e1848202a203b8b828471188947cd5fc886e1cea",
    "poisson_sin_x1": "cb29cba4920499fd29e7b62d3efd6912723e3d5ea717b8b790fe7fa5ef9bc736",
    "biharmonic_x2": "9382b56935a2f8898cd38077635008f74a9d932139d0798cf41dd6a4aab80110",
}
# the CSV of `cylasym refine --l 2` at each problem's cells and degree
REFINE_DIGESTS = {
    ("poisson_strip", "8,16,32,64", "1"):
        "e3731b8335f669d386a8c08755ef3b5b03fc2faae38d8092ef9263c70205b484",
    ("biharmonic_strip", "6,12,24", "3"):
        "7523afa3175972dc84240c5faabefb8ca403e0627dfb08554df407a8ebc03430",
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
