"""Statistical plumbing: estimates with standard errors merged block by block,
two-sample Kolmogorov-Smirnov distance, and the check/report records the
verification suite emits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error and seed provenance."""

    mean: float
    stderr: float
    n: int
    seed: int | None = None


class BlockStats(NamedTuple):
    """Sufficient statistics of one block of samples: count, sum, and sum of
    squared deviations from the block's own mean."""

    n: int
    total: float
    m2: float

    @classmethod
    def of(cls, samples) -> "BlockStats":
        x = np.asarray(samples, dtype=float).ravel()
        n = x.size
        if n == 0:
            return cls(0, 0.0, 0.0)
        total = float(x.sum())
        dev = x - total / n
        # squared in place: one block row of scratch, not two
        return cls(n, total, float(np.multiply(dev, dev, out=dev).sum()))


def reduce_blocks(blocks, seed: int | None = None) -> MCEstimate:
    """Mean and standard error of the union of blocks, merged in block order.

    The block sums and the between-block correction of Chan, Golub and
    LeVeque (1983) are added with math.fsum, so a count of 0/1 flags gives
    exactly count/N.  Empty blocks are allowed.
    """
    blocks = list(blocks)
    n = sum(b.n for b in blocks)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = math.fsum(b.total for b in blocks) / n
    m2 = math.fsum(b.m2 + b.n * (b.total / b.n - mean) ** 2 for b in blocks if b.n)
    var = m2 / (n - 1)
    return MCEstimate(mean=mean, stderr=math.sqrt(var / n), n=n, seed=seed)


def aggregate(samples, seed: int | None = None) -> MCEstimate:
    """Mean and standard error of a sample stream: reduce_blocks on the whole
    input taken as one block."""
    arr = samples if isinstance(samples, np.ndarray) else np.fromiter(samples, dtype=float)
    with np.errstate(over="ignore"):
        est = reduce_blocks([BlockStats.of(arr)], seed=seed)
    if math.isfinite(est.stderr):
        return est
    top = float(np.max(np.abs(arr)))
    if not math.isfinite(top):
        return est
    # finite samples whose sum or squared deviations overflow: the estimate of
    # the samples scaled below 1 by a power of two, scaled back (both exact)
    e = math.frexp(top)[1]
    est = reduce_blocks([BlockStats.of(np.ldexp(arr, -e))], seed=seed)
    return MCEstimate(math.ldexp(est.mean, e), math.ldexp(est.stderr, e), est.n, seed)


def sigma_gap(value: float, target: float, stderr: float) -> float:
    """(value - target) in standard errors.  The stderr is floored at
    1e-11 * max(1, |target|), so a degenerate (constant-sample) estimator is
    compared at rounding precision instead of dividing by ~0."""
    return (value - target) / max(stderr, 1e-11 * max(1.0, abs(target)))


def ks_statistic(sample_a, sample_b) -> float:
    """sup_x |ECDF_a(x) - ECDF_b(x)| for two nonempty samples."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    joint = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, joint, side="right") / a.size
    # joint is read for the last time here, then holds cdf_b and the gap
    gap = np.divide(np.searchsorted(b, joint, side="right"), b.size, out=joint)
    np.subtract(cdf_a, gap, out=gap)
    return float(np.abs(gap, out=gap).max())


def ks_two_sample_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value c(alpha) sqrt((n+m)/(n m)),
    c(alpha) = sqrt(-ln(alpha/2)/2); c(0.01) ~ 1.63."""
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be >= 1")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


# --- check and report records -------------------------------------------

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"


@dataclass
class CheckResult:
    """Outcome of one verification check.

    gap is measured in the check's own units: combined standard errors for
    MC comparisons, absolute error for quadrature/algebraic checks.
    """

    check: str
    identity: str
    oracle: str
    value: float | None
    target: float | None
    gap: float | None
    threshold: float
    status: str
    reason: str | None = None
    seed: int | None = None


@dataclass
class ExperimentReport:
    name: str
    version: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def n_pass(self) -> int:
        return sum(c.status == PASS for c in self.checks)

    @property
    def n_fail(self) -> int:
        return sum(c.status == FAIL for c in self.checks)

    @property
    def n_skipped(self) -> int:
        return sum(c.status == SKIPPED for c in self.checks)

    @property
    def all_pass(self) -> bool:
        return self.n_fail == 0

    def to_json(self) -> str:
        """Stable-key-order JSON; everything outside "meta" is deterministic
        for a fixed config and seed."""
        body = {
            "name": self.name,
            "version": self.version,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "summary": {
                "n_pass": self.n_pass,
                "n_fail": self.n_fail,
                "n_skipped": self.n_skipped,
                "all_pass": self.all_pass,
            },
            "meta": self.meta,
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """Flat (check, value, oracle, gap, pass) table, deterministic."""

        def num(v):
            return "" if v is None else f"{v:.17g}"

        lines = ["check,value,oracle,gap,pass"]
        for c in self.checks:
            flag = {PASS: "true", FAIL: "false", SKIPPED: "skipped"}[c.status]
            lines.append(f"{c.check},{num(c.value)},{num(c.target)},{num(c.gap)},{flag}")
        return "\n".join(lines) + "\n"
