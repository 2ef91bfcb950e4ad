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
a_1_0_1_0 = 2 + sin(x1) the solve of an n-D band.  Two refinement runs,
`python -m cylasym refine --l 2` of the Poisson strip at degree 1 and of
the biharmonic strip at degree 3, pin their CSVs too.  A change that
should leave every value alone keeps them; a change that moves values
re-pins them and lists old -> new.  The digests depend on the numpy and scipy builds that computed them, so the
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
    "poisson_strip": "44fdb274a50d9b4709c761f55d6915add5686e06048c53b5b120cb1eaf586d2d",
    "biharmonic_strip": "43686589b1ec76a482e0e06929777c8ee518a1da3b3751b323b5cc307608b578",
    "varcoef_strip": "11fde078a528f37bc5940feff33dca3fc23b5a715f4f917a3139eb09da999f97",
    "skew_strip": "a7eb985c660d15517e013a8305a04aba657eaa20ac297446aabd27bfea034c5f",
    "skew_strip_degree_1": "611e483a727f6dc4816cb2fe6bd810a9d1b1e5d8598c6adca9f7c14ba3cbf245",
    "box3d": "6022c2475064c8b98b30d50efcb896c2ca8d3a252b63366c1aee7131b2a09eba",
    "box_p2": "31d841ba57bbccaebdefe8a1903c6914f111b13c07b8b70c4713e4fe8bfda1ad",
    "poisson_sin_x1": "b2cc2eef88e5a81b20e74a808e3f52195bc0398224a1fcd837dea244336e8147",
}
JSON_DIGESTS = {
    "poisson_strip": "87da393404728967676dd110ba731acf529070465949c5f55b8c3e59eb29c426",
    "biharmonic_strip": "674d95f673679aa0be8a3aba39e0386495f9d99055fba153671126e110fd3b48",
    "varcoef_strip": "7bf800fc84b59d47d75707503c6afa87de19713c8a26a03661be7cf6ef911a79",
    "skew_strip": "ae78d04aa9ae8ed08ad816a1ab8032d26ffa30c9c249c5c895fca7f7cebd263b",
    "skew_strip_degree_1": "fe254c0a7a3713c6fe22ca2e2a757f4a2853c28f4f466dbc70196496fce76f1d",
    "box3d": "aba42107589f62b2efcbe7c37c2346957ae2d10d3bd4fd8d40b25ca46bad03ad",
    "box_p2": "fd9fd6599503384d7d845f16575b74c1dbb62b661b5ccc6d1790a299263f858d",
    "poisson_sin_x1": "061e8f5f9f2dde6c055971f26f868c328c89b8f7615973e21db08aa91009bc6e",
}
# the CSV of `cylasym refine --l 2` at each problem's cells and degree
REFINE_DIGESTS = {
    ("poisson_strip", "8,16,32,64", "1"):
        "774ea58ca34017e408d482b7b1a1456be840f86a433a03c75650bbc600e2b574",
    ("biharmonic_strip", "6,12,24", "3"):
        "906e5fa95a1f8be6adced7c23947a7fd579b19e005801096b8ea04e5d1d3d112",
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


pinned_versions = pytest.mark.skipif(
    _versions != PINNED_VERSIONS,
    reason=f"digests pinned with numpy {PINNED_VERSIONS['numpy']} and scipy "
           f"{PINNED_VERSIONS['scipy']}, running numpy {_versions['numpy']} "
           f"and scipy {_versions['scipy']}")


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
