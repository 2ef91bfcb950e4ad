"""The refactor oracle: a small sweep of each builtin writes pinned CSV bytes.

Each sweep runs as `python -m cylasym sweep --l 2,4,8 --cells-per-unit 8`
in a fresh interpreter with one BLAS thread, and its CSV's sha256 must equal
the digest pinned here.  The skew strip, the Poisson strip plus the
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


@pytest.mark.skipif(_versions != PINNED_VERSIONS,
                    reason=f"digests pinned with numpy {PINNED_VERSIONS['numpy']} and scipy "
                           f"{PINNED_VERSIONS['scipy']}, running numpy {_versions['numpy']} "
                           f"and scipy {_versions['scipy']}")
@pytest.mark.parametrize("problem", DIGESTS)
def test_sweep_csv_bytes_are_pinned(tmp_path, problem):
    csv = tmp_path / f"{problem}.csv"
    args, cells = ["--problem", problem], 8
    if problem in CONFIGS:
        text, extra, cells = CONFIGS[problem]
        config = tmp_path / f"{problem}.cfg"
        config.write_text(text)
        args = ["--problem", str(config), *extra]
    subprocess.run([sys.executable, "-m", "cylasym", "sweep", *args,
                    "--l", "2,4,8", "--cells-per-unit", str(cells), "--out-csv", str(csv)],
                   capture_output=True, check=True,
                   env={**os.environ, **ONE_THREAD, "PYTHONPATH": str(SRC)})
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == DIGESTS[problem]
