"""The refactor oracle: a small sweep of each builtin writes pinned CSV bytes.

Each sweep runs as `python -m cylasym sweep --l 2,4,8 --cells-per-unit 8`
in a fresh interpreter with one BLAS thread, and its CSV's sha256 must equal
the digest pinned here.  A change that should leave every value alone keeps
them; a change that moves values re-pins them and lists old -> new.  The
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
    "biharmonic_strip": "06c64a19206c301eae0dc887b17e69d92207f37c7158f36174ea4524dd83fe32",
    "varcoef_strip": "91d206390b99953f62c0d2e6e9b21c3322587bff887d9eb86763eb873ad361fe",
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
    subprocess.run([sys.executable, "-m", "cylasym", "sweep", "--problem", problem,
                    "--l", "2,4,8", "--cells-per-unit", "8", "--out-csv", str(csv)],
                   capture_output=True, check=True,
                   env={**os.environ, **ONE_THREAD, "PYTHONPATH": str(SRC)})
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == DIGESTS[problem]
