"""Check one ouht command's output and print its digest.

    python3 benchmarks/check.py verify OUT_DIR N_CHECKS EXIT_CODE
    python3 benchmarks/check.py simulate OUT_DIR GAMMA A DT PATHS T...

``verify`` reads OUT_DIR/report.json and report.csv, ``simulate`` reads
OUT_DIR/sim.csv.  Prints the SHA-256 of the deterministic part of the output
(for ``verify`` the report without ``meta``, plus the CSV) on its first line,
then one line per tolerated sampling rejection, and exits 0; or prints the
reason to stderr and exits 1.  ``run.py`` passes each workload's parameters
on the command line and runs this in its own process (see ``run.invoke``).

Sampling checks reject a correct program at their own level: each of the
suite's 4-sigma checks about once in 16,000 seeds, and its Euler-versus-exact
KS test at alpha 0.01, a little more often with the Euler bias (3 seeds in
100 measured at dt 0.002).  So ``verify`` exits 3 on a few seeds in a
hundred.  An output counts as wrong only when a sampling check misses by more
than a family-wise margin: all of one command's sampling checks together
exceed their margins with probability FAMILY_ALPHA when the program is
right.  Every other check must pass as reported.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

from statistics import NormalDist

import numpy as np

# the suite's own allowances: 4 standard errors, plus 5*dt for the Euler
# radial mean square, and the KS test at alpha 0.01
SIGMA_THRESHOLD, MSQ_BIAS_PER_DT, KS_ALPHA = 4.0, 5.0, 0.01
# chance that a right program's sampling checks in one command exceed their margins
FAMILY_ALPHA = 1e-6
# verify's statistical tests by kind; every other check must pass
SIGMA_CHECKS = {"martingale-mean", "weight-unit-mass", "transport-agreement",
                "conditioning-gap", "killed-semigroup", "local-martingale-mc",
                "survival-exact-scheme"}
KS_CHECK, MSQ_CHECK = "euler-radial-ks", "euler-radial-msq"


class CheckFailed(Exception):
    """The output is wrong."""


def family_z(n_tests: int) -> float:
    """Two-sided normal quantile that n_tests tests exceed together with
    probability at most FAMILY_ALPHA (Bonferroni)."""
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * n_tests))


def ks_c(alpha: float) -> float:
    """Asymptotic two-sample KS coefficient c(alpha) = sqrt(-ln(alpha/2)/2)."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


def sampling_margin(check: dict, dt: float, n_tests: int) -> float:
    """The gap beyond which a failed sampling check means a wrong output."""
    kind = check["check"].split("[")[0]
    if kind in SIGMA_CHECKS:
        return family_z(n_tests)
    if kind == KS_CHECK:
        return check["threshold"] * ks_c(FAMILY_ALPHA / n_tests) / ks_c(KS_ALPHA)
    if kind == MSQ_CHECK:
        stderr = (check["threshold"] - MSQ_BIAS_PER_DT * dt) / SIGMA_THRESHOLD
        return family_z(n_tests) * stderr + MSQ_BIAS_PER_DT * dt
    raise CheckFailed(f"{check['check']} failed: gap {check['gap']:.6g} "
                      f"over threshold {check['threshold']:.6g}")


def check_verify(out: Path, n_checks: int, exit_code: int) -> tuple[str, list[str]]:
    """Every check ran, the exit code matches the verdict, and each failed
    check is a sampling check within its family-wise margin.  Returns the
    digest of the report without ``meta`` and the tolerated rejections."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    summary, checks = report["summary"], report["checks"]
    if not (len(checks) == n_checks == summary["n_pass"] + summary["n_fail"]
            and summary["n_skipped"] == 0
            and summary["all_pass"] == (summary["n_fail"] == 0)
            and exit_code == (0 if summary["all_pass"] else 3)):
        raise CheckFailed(f"verify summary {summary} with exit code {exit_code}")
    n_sampling = sum(c["check"].split("[")[0] in {*SIGMA_CHECKS, KS_CHECK, MSQ_CHECK}
                     for c in checks)
    tolerated = []
    for check in checks:
        if check["status"] == "pass":
            continue
        margin = sampling_margin(check, report["config"]["dt"], n_sampling)
        if not check["gap"] <= margin:
            raise CheckFailed(f"{check['check']} failed: gap {check['gap']:.6g} "
                              f"over family-wise margin {margin:.6g}")
        tolerated.append(f"{check['check']}: gap {check['gap']:.6g}, threshold "
                         f"{check['threshold']:.6g}, family-wise margin {margin:.6g}")
    del report["meta"]
    body = json.dumps(report, sort_keys=True).encode() + (out / "report.csv").read_bytes()
    return hashlib.sha256(body).hexdigest(), tolerated


def radial_mean_square(gamma: float, a: float, t: float) -> float:
    """E[R_t^2] = center^2 + 3 sigma2 of the 3-d radial OU law, from its closed form."""
    center = a * math.exp(-gamma * t)
    sigma2 = -math.expm1(-2.0 * gamma * t) / (2.0 * gamma)
    return center * center + 3.0 * sigma2


def check_simulate(out: Path, gamma: float, a: float, dt: float, paths: int,
                   times: list[float]) -> tuple[str, list[str]]:
    """Row count, positive finite values, no absorption, and the Euler mean
    square at each t within the family-wise margin, in standard errors, plus
    the suite's 5*dt; digest of the CSV and the tolerated rejections."""
    raw = (out / "sim.csv").read_bytes()
    lines = [ln for ln in raw.decode("utf-8").splitlines() if not ln.startswith("#")]
    if lines[0] != "t,path,value,absorbed":
        raise CheckFailed(f"header {lines[0]!r}")
    rows = lines[1:]
    z = family_z(len(times))
    tolerated = []
    if len(rows) != paths * len(times):
        raise CheckFailed(f"{len(rows)} data rows, expected {paths * len(times)}")
    data = np.array(",".join(rows).split(","), dtype=float).reshape(-1, 4)
    for j, t in enumerate(times):
        block = data[j * paths:(j + 1) * paths]
        r = block[:, 2]
        if not (np.all(block[:, 0] == t) and np.array_equal(block[:, 1], np.arange(paths))):
            raise CheckFailed(f"t/path columns wrong at t={t}")
        if not (np.all(np.isfinite(r)) and np.all(r > 0.0)):
            raise CheckFailed(f"values not finite and > 0 at t={t}")
        if np.any(block[:, 3] != 0.0):
            raise CheckFailed(f"radial paths marked absorbed at t={t}")
        r2 = r * r
        mean, stderr = float(r2.mean()), float(r2.std(ddof=1)) / math.sqrt(r2.size)
        target = radial_mean_square(gamma, a, t)
        gap = abs(mean - target)
        if gap > z * stderr + MSQ_BIAS_PER_DT * dt:
            raise CheckFailed(f"mean R^2 {mean:.6g} vs closed form {target:.6g} at t={t}")
        if gap > SIGMA_THRESHOLD * stderr + MSQ_BIAS_PER_DT * dt:
            tolerated.append(f"mean R^2 at t={t}: {mean:.6g} vs closed form {target:.6g}, "
                             f"{gap / stderr:.3g} standard errors")
    return hashlib.sha256(raw).hexdigest(), tolerated


def main(argv: list[str]) -> int:
    try:
        kind, out = argv[0], Path(argv[1])
        if kind == "verify":
            digest, tolerated = check_verify(out, int(argv[2]), int(argv[3]))
        elif kind == "simulate":
            gamma, a, dt = (float(x) for x in argv[2:5])
            digest, tolerated = check_simulate(out, gamma, a, dt, int(argv[5]),
                                               [float(x) for x in argv[6:]])
        else:
            raise CheckFailed(f"unknown output kind {kind!r}")
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("\n".join([digest, *tolerated]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
