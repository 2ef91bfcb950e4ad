"""The refactor oracle: a small sweep of each builtin writes pinned CSV and
JSON bytes.

Each sweep runs as `python -m cylasym sweep --l 2,4,8 --cells-per-unit 8`
in a fresh interpreter with one BLAS thread, and its CSV's sha256 must equal
the digest pinned here.  So must its JSON report's, taken over the report
with its timings removed: the `timings` map, every record's `wall_time_s`
and `plan.source`; that pins the hypothesis report and the localized-energy
table, which the CSV does not carry.  The skew strip, the Poisson strip plus the
nonsymmetric a_0_1_0_0 = 1, pins the banded LU path: LAPACK's dgbsv for
every system, and dgtsv for its tridiagonal cross-section system at
degree 1.  The 3-D box, the Laplacian on (-l, l) x (0, 1)^2 at 4 cells per
unit, pins the fast-diagonalization path of a two-dimensional
cross-section.  The biharmonic strip pins the parity blocks of a cross-section
axis.  The p = 2 box, the Laplacian on (-l, l)^2 x (0, 1) at 4 cells per
unit, pins the fold of two axial axes, and the Poisson strip with
a_1_0_1_0 = 2 + sin(x1) the solve of an n-D band.  A change that
should leave every value alone keeps them; a change that moves values
re-pins them and lists old -> new.  The
digests depend on the numpy and scipy builds that computed them, so the
test runs only on the versions recorded next to them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

PINNED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
DIGESTS = {
    "poisson_strip": "3cc98a0aa3a1ef556a4445226cf6860c79dd0dd52fcfc6df890efc98f3582088",
    "biharmonic_strip": "8d83dd714d8bc7b570d4edcbe571267f862da16eaf1d407a3100111cfbc375f0",
    "varcoef_strip": "91d206390b99953f62c0d2e6e9b21c3322587bff887d9eb86763eb873ad361fe",
    "skew_strip": "a7eb985c660d15517e013a8305a04aba657eaa20ac297446aabd27bfea034c5f",
    "skew_strip_degree_1": "611e483a727f6dc4816cb2fe6bd810a9d1b1e5d8598c6adca9f7c14ba3cbf245",
    "box3d": "c5526970c84c6c19455030277b91f8a1bcae969c8883f1d005866e71d533c9b9",
    "box_p2": "31d841ba57bbccaebdefe8a1903c6914f111b13c07b8b70c4713e4fe8bfda1ad",
    "poisson_sin_x1": "b7a1c659dc6cc75f209134c2aa7f614dd3bff4d559a068c45dc683ff596e3955",
}
JSON_DIGESTS = {
    "poisson_strip": "aa3abd8ddf1a7acad3327779bbb62a1d589dca1912328bbc2d1d82dc2e322f96",
    "biharmonic_strip": "b837307614757c63dba550be658eef4db266c38012d03c0dcb0e8d1e95a8223d",
    "varcoef_strip": "2cf29efcd914a943cca18373184aa7bc1ad6b12be7adcf9c490d61ea65c096c1",
    "skew_strip": "ae78d04aa9ae8ed08ad816a1ab8032d26ffa30c9c249c5c895fca7f7cebd263b",
    "skew_strip_degree_1": "fe254c0a7a3713c6fe22ca2e2a757f4a2853c28f4f466dbc70196496fce76f1d",
    "box3d": "548955b0f57610ce58af04f3a6b92fae4eecce07cd349ec94e84a6a7ed85900e",
    "box_p2": "fd9fd6599503384d7d845f16575b74c1dbb62b661b5ccc6d1790a299263f858d",
    "poisson_sin_x1": "9792edd25ff7f413da59c344b7919d39f30f81874fe97cbd2d19fa8099a07b52",
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

_versions = {"numpy": np.__version__, "scipy": scipy.__version__}


def untimed_json_digest(path):
    """sha256 of the JSON report at path, its timings removed."""
    report = json.loads(path.read_text())
    del report["timings"], report["plan"]["source"]
    for record in report["records"]:
        del record["wall_time_s"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.skipif(_versions != PINNED_VERSIONS,
                    reason=f"digests pinned with numpy {PINNED_VERSIONS['numpy']} and scipy "
                           f"{PINNED_VERSIONS['scipy']}, running numpy {_versions['numpy']} "
                           f"and scipy {_versions['scipy']}")
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
    subprocess.run([sys.executable, "-m", "cylasym", "sweep", *args,
                    "--l", "2,4,8", "--cells-per-unit", str(cells),
                    "--out-csv", csv.name, "--out-json", report.name],
                   capture_output=True, check=True, cwd=tmp_path,
                   env={**os.environ, **ONE_THREAD, "PYTHONPATH": str(SRC)})
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == DIGESTS[problem]
    assert untimed_json_digest(report) == JSON_DIGESTS[problem]
