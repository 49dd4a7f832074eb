"""Statistical plumbing: estimates with standard errors merged block by block,
two-sample Kolmogorov-Smirnov distance, and the check/report records the
verification suite emits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from .rng import BLOCK_SIZE


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
    def of(cls, samples, out=None) -> "BlockStats":
        """The block's statistics; the deviations go to `out` (the samples
        themselves, where they may be overwritten), else to a new array."""
        x = np.asarray(samples, dtype=float).ravel()
        n = x.size
        if n == 0:
            return cls(0, 0.0, 0.0)
        total = float(x.sum())
        dev = np.subtract(x, total / n, out=out)
        # squared in place: one block row of scratch, not two
        return cls(n, total, float(np.multiply(dev, dev, out=dev).sum()))


# under this no sum, squared deviation or between-block term of fewer than
# 2^60 samples overflows (n (2 * 2^480)^2 < 2^1022): aggregate scales none
SCALE_ABOVE = 2.0 ** 480


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
    try:
        mean = math.fsum(b.total for b in blocks) / n
        m2 = math.fsum(b.m2 + b.n * (b.total / b.n - mean) ** 2 for b in blocks if b.n)
    except (OverflowError, ValueError):  # ValueError: fsum of +inf and -inf
        raise OverflowError(f"cannot merge {len(blocks)} blocks: their totals, or the squared "
                            "gaps between their means, leave the float range") from None
    var = m2 / (n - 1)
    return MCEstimate(mean=mean, stderr=math.sqrt(var / n), n=n, seed=seed)


def aggregate(samples, seed: int | None = None) -> MCEstimate:
    """Mean and standard error of a sample stream: reduce_blocks on its
    BLOCK_SIZE slices, merged as run_draws merges its blocks, so the scratch
    is one block row whatever the input's length.  On at most BLOCK_SIZE
    samples below SCALE_ABOVE it is reduce_blocks([BlockStats.of(samples)]),
    bit for bit."""
    if not isinstance(samples, np.ndarray):
        samples = np.fromiter(samples, dtype=float)
    arr = np.asarray(samples, dtype=float).ravel()
    slices = [arr[lo:lo + BLOCK_SIZE] for lo in range(0, arr.size, BLOCK_SIZE)]
    top = float(max(arr.max(), -arr.min())) if arr.size else 0.0
    if not SCALE_ABOVE < top < math.inf:
        return reduce_blocks(map(BlockStats.of, slices), seed=seed)
    # finite samples whose sums, squared deviations or between-block terms
    # may overflow: the estimate of the samples scaled below 1 by a power of
    # two, scaled back (both exact); each slice is scaled into one row,
    # which then holds its deviations
    e = math.frexp(top)[1]
    row = np.empty(min(arr.size, BLOCK_SIZE))
    est = reduce_blocks((BlockStats.of(np.ldexp(s, -e, out=row[:s.size]), out=row[:s.size])
                         for s in slices), seed=seed)
    return MCEstimate(math.ldexp(est.mean, e), math.ldexp(est.stderr, e), est.n, seed)


def sigma_gap(value: float, target: float, stderr: float) -> float:
    """(value - target) in standard errors.  The stderr is floored at
    1e-11 * max(1, |target|), so a degenerate (constant-sample) estimator is
    compared at rounding precision instead of dividing by ~0."""
    return (value - target) / max(stderr, 1e-11 * max(1.0, abs(target)))


KS_SLICE = 4096  # points per ks_statistic gap evaluation


def ks_statistic(sample_a, sample_b) -> float:
    """sup_x |ECDF_a(x) - ECDF_b(x)| for two nonempty samples.

    The supremum is taken at the points of a, then at those of b, KS_SLICE
    points at a time, so no joint sample, joint-length CDF or sample-length
    gap is formed; the max over slices is the max over all points, bit for
    bit.  The samples are sorted in copies: a caller may still read its
    arrays in their own order (the suite sums the Euler sample after its KS
    row, and a sorted sum would move its bits).
    """
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")

    def largest_gap(c):
        gap = np.searchsorted(a, c, side="right") / a.size
        gap -= np.searchsorted(b, c, side="right") / b.size
        return float(np.abs(gap, out=gap).max())

    return max(largest_gap(x[lo:lo + KS_SLICE]) for x in (a, b)
               for lo in range(0, x.size, KS_SLICE))


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
    threshold: float | None
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
            **asdict(self),
            "summary": {
                "n_pass": self.n_pass,
                "n_fail": self.n_fail,
                "n_skipped": self.n_skipped,
                "all_pass": self.all_pass,
            },
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
