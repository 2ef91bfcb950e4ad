"""Correctness gate applied to every benchmark sweep.

A sweep fails when it raises or exits non-zero, when any reported value is
non-finite, when a record has err_L2 > err_Hm, when the observed decay rate
is further than RATE_TOL from the exact one, or when its CSV bytes differ
from another sweep of the same source tree and seed.  Each failure names the
half-length (None when it concerns the whole sweep) and the stage.
"""

import math

# Relative tolerance on the observed err_Hm decay rate.  The gaps at this
# commit are 6e-7 (strip-fine), 2e-4 (biharmonic-pool) and 4e-5 (box3d).
RATE_TOL = 1e-3

RATE_WINDOW = (2.0, 4.0)

_RECORD_FIELDS = (
    "err_L2",
    "err_Hm",
    "err_H2m_interior",
    "norm_ul_Hm_full",
    "lemma19_ratio",
    "solver_residual",
)


def failure(ell, stage: str, detail: str) -> dict:
    return {"l": ell, "stage": stage, "detail": detail}


def observed_rate(report: dict, window=RATE_WINDOW) -> float:
    """Semi-log slope of err_Hm between the two half-lengths of the window."""
    errs = {r["ell"]: r["err_Hm"] for r in report["records"]}
    lo, hi = window
    return math.log(errs[lo] / errs[hi]) / (hi - lo)


def rate_rel_err(report: dict, ref_rate: float) -> float:
    return abs(observed_rate(report) - ref_rate) / ref_rate


def _non_finite(values) -> list:
    return [k for k, v in values if v is None or not math.isfinite(v)]


def check_report(report: dict, ref_rate: float) -> list:
    """Failures found in a sweep's JSON report."""
    out = []
    for r in report["records"]:
        ell = r["ell"]
        values = [(k, r[k]) for k in _RECORD_FIELDS]
        values += [(f"interior_alpha[{k}]", v) for k, v in r["interior_alpha"].items()]
        values += [(f"n1_full_alpha[{k}]", v) for k, v in r["n1_full_alpha"].items()]
        bad = _non_finite(values)
        if bad:
            out.append(failure(ell, "gate.finite", "non-finite " + ", ".join(bad)))
        elif r["err_L2"] > r["err_Hm"]:
            out.append(failure(ell, "gate.norm_order", f"err_L2 {r['err_L2']!r} > err_Hm {r['err_Hm']!r}"))
    sweep_values = [(f"localized_energy[{e['ell1']}]", e["value"]) for e in report["localized_energy"]]
    sweep_values += [(k, report[k]) for k in ("fitted_rate_Hm", "fitted_rate_H2m") if report[k] is not None]
    bad = _non_finite(sweep_values)
    if bad:
        out.append(failure(None, "gate.finite", "non-finite " + ", ".join(bad)))
    if out:
        return out
    try:
        gap = rate_rel_err(report, ref_rate)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [failure(None, "gate.rate", f"no observed rate: {exc!r}")]
    if not gap <= RATE_TOL:
        out.append(
            failure(RATE_WINDOW[0], "gate.rate", f"rate_rel_err {gap:.3e} exceeds {RATE_TOL:g}")
        )
    return out
