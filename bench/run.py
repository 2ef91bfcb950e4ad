"""Sweep benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload biharmonic-pool|box3d|strip-fine \
        --seed N --seconds S --trace 0|1

BENCHMARK.json lists biharmonic-pool and box3d; strip-fine is run by hand
(see workloads.BY_HAND).

Run from the root of a source checkout; the package is imported from src/.
Each sweep runs in a fresh child process (bench/sweep.py), so every sample
pays the same set-up and reports its own peak RSS.

--trace 0 repeats the workload's sweep while at least half of another one
fits in S seconds, with set-up-only children spread between the sweeps, and
reports the end-to-end metrics: median wall_s, peak_rss_mb and setup_s,
rate_rel_err and ok_frac.  --trace 1 runs the sweep untraced, then serially
with spans around every layer call, and reports the per-layer metrics; see
bench/README.md.

Every sweep passes the correctness gate in gate.py, and its CSV bytes must
match every other sweep of the same source tree and seed, including those of
earlier runs (their digests are kept under .bench_out/csv).  The last stdout
line is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# Set-up samples per run, sweep children included: SETUP_SAMPLES while they
# fit in --seconds, and never fewer than MIN_SETUP_SAMPLES.
SETUP_SAMPLES = 12
MIN_SETUP_SAMPLES = 6
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread per process, so workers x threads <= nproc whenever
# nproc >= 2.  Serial sweeps were faster with one thread than with two on a
# 2-core VM (15.2-15.7 s against 17.5 s for strip-fine, with two threads
# burning 26.7 s of CPU), and BLAS results, hence the CSV bytes, depend on
# the thread count, so every child of every workload uses the same count.
BLAS_THREADS = 1

# metric name -> unit; BENCHMARK.json lists the same names and units
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rate_rel_err": "ratio",
    "ok_frac": "ratio",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "linalg.solve_s": "s",
    "linalg.iterations": "count",
    "linalg.solves": "count",
    "linalg.ritz_s": "s",
    "linalg.backward_err_max": "ratio",
    "assembly.cylinder_s": "s",
    "assembly.limit_s": "s",
    "assembly.nnz": "count",
    "assembly.peak_mb": "MiB",
    "assembly.csr_mb": "MiB",
    "splines.eval_grid_s": "s",
    "splines.eval_grid_calls": "count",
    "splines.basis_matrix_mb": "MiB",
    "analysis.norm_s": "s",
    "analysis.localized_s": "s",
    "analysis.fit_s": "s",
    "fdcalc.interior_s": "s",
    "fdcalc.interior_calls": "count",
    "problem.validate_s": "s",
    "harness.critical_path_s": "s",
    "harness.pool_efficiency": "ratio",
    "cli.report_write_s": "s",
    "trace.wall_s": "s",
    "trace.self_s": "s",
    "trace.overhead_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))





def source_digest() -> str:
    """Identifies the code under test: every .py file under src/ and bench/."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_child(workload, seed: int, mode: str, workers: int, timeout: float) -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    cmd = [
        sys.executable, str(HERE / "sweep.py"),
        "--workload", workload.name, "--seed", str(seed), "--mode", mode,
        "--workers", str(workers), "--tmp", str(tmp),
    ]
    # own session, so a timeout also stops the child's pool workers
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(stderr)
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        detail = f"child exited {proc.returncode} without a result"
        return {"failures": [{"l": None, "stage": f"child.{mode}", "detail": detail}]}
    if proc.returncode != 0 and not result.get("failures"):
        result["failures"] = [
            {"l": None, "stage": f"child.{mode}", "detail": f"exit code {proc.returncode}"}
        ]
    return result


class CsvLedger:
    """CSV digests per (source tree, workload, seed), shared across runs."""

    def __init__(self, workload: str, seed: int):
        self.path = OUT / "csv" / f"{source_digest()}-{workload}-{seed}.sha256"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.expected = self.path.read_text().strip() if self.path.exists() else None

    def check(self, digest: str) -> list:
        if self.expected is None:
            tmp = self.path.with_suffix(f".{os.getpid()}")
            tmp.write_text(digest + "\n")
            os.replace(tmp, self.path)
            self.expected = digest
            return []
        if digest != self.expected:
            detail = f"CSV sha256 {digest[:12]} differs from {self.expected[:12]}"
            return [{"l": None, "stage": "gate.csv_bytes", "detail": detail}]
        return []


class Run:
    """Children launched by one benchmark run, and what they reported."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.ledger = CsvLedger(workload.name, seed)
        self.start = time.perf_counter()
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.versions = None

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def child(self, mode: str, workers: int) -> dict:
        result = run_child(self.workload, self.seed, mode, workers, self.remaining())
        if "setup_s" in result:
            self.setups.append(result["setup_s"])
        self.versions = self.versions or result.get("versions")
        if mode == "setup":
            return result
        self.attempted += 1
        sample = {k: result[k] for k in ("wall_s", "peak_rss_mb", "setup_s") if k in result}
        print(json.dumps({"sweep": {"mode": mode, "workers": workers, **sample}}), file=sys.stderr)
        failures = list(result.get("failures", []))
        if "csv_sha256" in result:
            failures += self.ledger.check(result["csv_sha256"])
        for f in failures:
            print(json.dumps({"failure": {"workload": self.workload.name, **f}}), file=sys.stderr)
        self.failed += bool(failures)
        result["failures"] = failures
        return result

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def setups_until(self, count: float, deadline: float = RUN_LIMIT_S):
        """Add set-up-only children until `count` set-up samples are in.

        Stops early when the next child would likely end past `deadline`
        seconds into the run, or too close to the run's hard limit.
        """
        took = 0.0
        while len(self.setups) < count and self.remaining() > 10.0:
            if self.elapsed() + took > deadline:
                break
            before, t = len(self.setups), time.perf_counter()
            self.child("setup", 1)
            took = time.perf_counter() - t
            if len(self.setups) == before:
                break

    def env(self) -> dict:
        return {
            "nproc": nproc(),
            "workers": self.workload.workers,
            "thread_env": {var: str(BLAS_THREADS) for var in THREAD_VARS},
            "oversubscribed": self.workload.workers * BLAS_THREADS > nproc(),
            "versions": self.versions,
            "source_digest": source_digest(),
        }


def _median(values, missing: float) -> float:
    return statistics.median(values) if values else missing


def measure(run: Run, seconds: float) -> dict:
    w = run.workload
    sweeps = []
    while True:
        t = time.perf_counter()
        sweeps.append(run.child("sweep", w.workers))
        took = time.perf_counter() - t
        # The run ends with the sweep whose end is nearest to the budget: a
        # sweep starts only if at least half of it fits.  Then a slow phase
        # of the machine does not cost a long workload one of its few sweeps.
        if run.elapsed() + took / 2 > seconds or run.remaining() < 2.0 * took:
            break
        # Set-up samples are spread over the run, so that they see the same
        # changes of machine speed as the sweeps do, but never push the next
        # sweep past the point where half of it still fits.
        run.setups_until(SETUP_SAMPLES * run.elapsed() / seconds, deadline=seconds - took / 2)
    run.setups_until(SETUP_SAMPLES, deadline=seconds)
    run.setups_until(MIN_SETUP_SAMPLES)
    ok = [s for s in sweeps if not s["failures"]]
    return {
        "wall_s": _median([s["wall_s"] for s in sweeps if "wall_s" in s], 0.0),
        "setup_s": _median(run.setups, 0.0),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in sweeps if "peak_rss_mb" in s], 0.0),
        # a sweep that failed the gate has no rate; 1.0 is a 100% rate error
        "rate_rel_err": _median([s["rate_rel_err"] for s in ok], 1.0),
        "ok_frac": len(ok) / len(sweeps),
    }


def trace(run: Run) -> dict:
    w = run.workload
    untraced = run.child("sweep", w.workers)
    serial = untraced if w.workers == 1 else run.child("sweep", 1)
    traced = run.child("trace", 1)
    spans = traced.pop("spans", [])
    (OUT / f"spans-{w.name}-{run.seed}.json").write_text(json.dumps(spans))
    layers = traced.get("layers", {})
    metrics = dict(layers)
    metrics["harness.critical_path_s"] = untraced.get("critical_path_s", 0.0)
    metrics["harness.pool_efficiency"] = untraced.get("pool_efficiency", 0.0)
    metrics["trace.overhead_s"] = traced.get("wall_s", 0.0) - serial.get("wall_s", 0.0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "cylasym" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'cylasym'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed)
    if args.trace:
        metrics, units = trace(run), PER_LAYER
    else:
        metrics, units = measure(run, args.seconds), END_TO_END
    print(json.dumps({"env": run.env()}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
