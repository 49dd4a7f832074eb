import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from ouht.harness import (
    BlockStats,
    CheckResult,
    ExperimentReport,
    KS_SLICE,
    MCEstimate,
    aggregate,
    ks_statistic,
    ks_two_sample_critical,
    reduce_blocks,
)
from ouht.process import ProcessParams, sample_ou_exact, sample_radial_exact
from ouht.rng import BLOCK_SIZE, stream


def test_aggregate_constant_stream():
    est = aggregate(np.full(100, 3.25))
    assert est.mean == 3.25
    assert est.stderr == 0.0
    assert est.n == 100


def test_aggregate_matches_two_pass_reference():
    rng = stream(401, 0)
    for n in (2, 17, 10_000):
        x = rng.normal(3.0, 2.0, size=n)
        est = aggregate(x, seed=7)
        assert est.mean == pytest.approx(float(np.mean(x)), rel=1e-13)
        ref_stderr = float(np.std(x, ddof=1) / math.sqrt(n))
        assert est.stderr == pytest.approx(ref_stderr, rel=1e-13)
        assert est.seed == 7

    half = np.concatenate([np.zeros(1000), np.ones(1000)])
    est = aggregate(half)
    assert est.mean == pytest.approx(0.5, rel=1e-13)
    assert est.stderr == pytest.approx(np.std(half, ddof=1) / math.sqrt(2000), rel=1e-13)


def test_aggregate_is_order_independent():
    rng = stream(402, 0)
    x = rng.lognormal(0.0, 2.0, size=50_000)  # rough tails stress the summation
    est = aggregate(x)
    for perm_seed in (1, 2):
        shuffled = x.copy()
        stream(402, perm_seed).shuffle(shuffled)
        est2 = aggregate(shuffled)
        assert abs(est2.mean - est.mean) <= 1e-13 * abs(est.mean)
        assert abs(est2.stderr - est.stderr) <= 1e-13 * est.stderr


def test_aggregate_accepts_streams_and_rejects_tiny_input():
    est = aggregate(float(v) for v in (1.0, 2.0, 3.0))
    assert est.mean == 2.0
    with pytest.raises(ValueError):
        aggregate([1.0])
    with pytest.raises(ValueError):
        aggregate([])


def _split(x, cuts):
    return [BlockStats.of(x[lo:hi]) for lo, hi in zip((0,) + cuts, cuts + (x.size,))]


def test_reduce_blocks_matches_aggregate_for_any_split():
    rng = stream(406, 0)
    x = rng.lognormal(0.0, 2.0, size=10_000)
    whole = aggregate(x, seed=3)
    splits = [
        (5_000,),
        (1, 2, 3),                      # size-1 blocks
        (0, 0, 4_000, 4_000, 10_000),   # empty blocks, first, middle and last
        tuple(range(0, 10_000, 65)),    # many uneven blocks
        tuple(sorted(rng.choice(10_000, size=40, replace=False).tolist())),
    ]
    for cuts in splits:
        est = reduce_blocks(_split(x, cuts), seed=3)
        assert est.n == whole.n and est.seed == 3
        assert abs(est.mean - whole.mean) <= 1e-13 * abs(whole.mean), cuts
        assert abs(est.stderr - whole.stderr) <= 1e-13 * whole.stderr, cuts


def test_reduce_blocks_counts_flags_exactly():
    flags = (stream(407, 0).random(200_003) < 0.3).astype(float)
    count = int(flags.sum())
    est = reduce_blocks(_split(flags, tuple(range(0, flags.size, 65_536))))
    assert est.mean == count / flags.size
    assert aggregate(flags).mean == count / flags.size


def test_reduce_blocks_needs_two_samples():
    with pytest.raises(ValueError):
        reduce_blocks([])
    with pytest.raises(ValueError):
        reduce_blocks([BlockStats.of(np.array([])), BlockStats.of(np.array([1.0]))])
    est = reduce_blocks([BlockStats.of(np.array([1.0])), BlockStats.of(np.array([3.0]))])
    assert est.mean == 2.0 and est.stderr == 1.0


@pytest.mark.parametrize("blocks", [
    # block means 1e300 apart: the between-block term squares past the float range
    [BlockStats(1, 1e300, 0.0), BlockStats(1, -1e300, 0.0)],
    # totals +inf and -inf, which fsum refuses to add
    [BlockStats(2, math.inf, 0.0), BlockStats(1, 1.0, 0.0), BlockStats(2, -math.inf, 0.0)],
], ids=["mean-gap", "opposite-infinities"])
def test_reduce_blocks_names_a_merge_that_leaves_the_float_range(blocks):
    message = (f"^cannot merge {len(blocks)} blocks: their totals, or the squared gaps "
               "between their means, leave the float range$")
    with pytest.raises(OverflowError, match=message):
        reduce_blocks(blocks)


def test_block_stats_pickle_small():
    stats = BlockStats.of(stream(408, 0).normal(size=65_536))
    assert len(pickle.dumps(stats)) < 200
    assert pickle.loads(pickle.dumps(stats)) == stats


def test_block_stats_squares_its_deviations_in_place():
    # one block row for the deviations; squaring them into a second row
    # peaked at 2.0 block rows
    x = stream(409, 0).normal(size=65_536)
    tracemalloc.start()
    try:
        BlockStats.of(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes, peak / x.nbytes


def test_aggregate_scales_samples_whose_squares_overflow():
    # the squared deviations of 2^1000 * x overflow; scaled by a power of
    # two the estimate is that of x, bit for bit.  Over two blocks each slice
    # is scaled on its own, and the blocks' sums overflow (1, ..., n) or the
    # gap between their means does when squared (normal)
    for x in (np.arange(1.0, 5.0), np.arange(1.0, 2 * BLOCK_SIZE + 2),
              stream(412, 0).normal(3.0, 2.0, size=2 * BLOCK_SIZE + 1)):
        small = aggregate(x, seed=7)
        big = aggregate(np.ldexp(x, 1000), seed=7)
        assert big == MCEstimate(math.ldexp(small.mean, 1000), math.ldexp(small.stderr, 1000),
                                 x.size, 7)
        assert math.isfinite(big.stderr)


@pytest.mark.parametrize("scale", [0, 1000])
def test_aggregate_scratch_is_one_block_row(scale):
    # a summary of the whole row took the deviations of all 2 * BLOCK_SIZE + 1
    # samples at once, 2.0 block rows, and the overflow path (scale 1000) its
    # scaled copy as well, 4.0; block by block each reads about 1.0
    x = np.ldexp(stream(410, 0).normal(3.0, 2.0, size=2 * BLOCK_SIZE + 1), scale)
    tracemalloc.start()
    try:
        aggregate(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * BLOCK_SIZE, peak / (8 * BLOCK_SIZE)


def test_aggregate_of_one_block_is_its_block_stats_bit_for_bit():
    # verify's one aggregate call (the Euler mean square, at most 50,000
    # samples) is on a single block, so its bits are those of one BlockStats
    rng = stream(411, 0)
    sizes = [*range(2, 66), 4_095, 4_097, 50_000, BLOCK_SIZE - 1, BLOCK_SIZE,
             *rng.integers(2, BLOCK_SIZE, size=8).tolist()]
    for n in sizes:
        x = rng.lognormal(0.0, 2.0, size=n)
        assert aggregate(x, seed=5) == reduce_blocks([BlockStats.of(x)], seed=5), n


def test_ks_statistic_edges():
    x = np.array([1.0, 2.0, 3.0])
    assert ks_statistic(x, x) == 0.0
    assert ks_statistic(x, x + 100.0) == 1.0
    with pytest.raises(ValueError):
        ks_statistic(x, np.array([]))


def test_ks_two_sample_critical_refuses_an_empty_sample_and_alpha_outside_0_1():
    with pytest.raises(ValueError, match=r"^sample sizes must be >= 1$"):
        ks_two_sample_critical(0, 5)
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\)$"):
            ks_two_sample_critical(5, 5, alpha)


def test_aggregate_of_a_non_finite_sample_is_nan_without_rescaling():
    # the power-of-two rescaling is for finite samples whose squares overflow
    est = aggregate(np.array([np.nan, 1.0]), seed=3)
    assert math.isnan(est.mean) and math.isnan(est.stderr)
    assert (est.n, est.seed) == (2, 3)


def _ks_allocating(sample_a, sample_b):
    # the formula as first written, one new array per operation
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    joint = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, joint, side="right") / a.size
    cdf_b = np.searchsorted(b, joint, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _integer_valued(seed, n):
    # 60 distinct values: every KS_SLICE boundary of the sorted sample falls
    # inside a run of ties
    return stream(seed, 0).integers(0, 60, size=n).astype(float)


@pytest.mark.parametrize("a,b", [
    (stream(406, 0).normal(size=3_000), stream(406, 1).normal(0.1, 1.2, size=1_777)),
    # ties within and across the samples
    (stream(406, 2).integers(0, 12, size=901).astype(float),
     stream(406, 3).integers(0, 9, size=333).astype(float)),
    (np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 2.0, 2.0, 5.0, 7.0, 7.0])),
    (np.array([0.5]), np.array([0.25, 0.5, 3.0])),
    (np.array([0.1]), stream(406, 4).normal(size=5_000)),
    # more than one KS_SLICE, unequal sizes, ties across slice boundaries
    (_integer_valued(411, 50_000), _integer_valued(412, 50_001)),
    (_integer_valued(413, 3 * KS_SLICE), _integer_valued(414, KS_SLICE + 1)),
])
def test_ks_statistic_in_place_equals_the_allocating_formula(a, b):
    for x, y in ((a, b), (b, a)):
        assert ks_statistic(x, y) == _ks_allocating(x, y)
    assert ks_statistic(a, b) == ks_statistic(b, a)


def test_ks_statistic_peak_memory_is_a_few_sample_lengths():
    # two sorted copies and the gap at one KS_SLICE of points with its
    # searchsorted temporaries, about four slice-length arrays; the gap at a
    # whole sample's points peaked at 5 sample lengths, and the joint sample
    # and its two CDFs at 8.2
    n = 50_000
    a, b = stream(410, 0).normal(size=n), stream(410, 1).normal(size=n)
    tracemalloc.start()
    try:
        ks_statistic(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n + 6 * 8 * KS_SLICE, (peak - 2 * 8 * n) / (8 * KS_SLICE)


def test_ks_statistic_same_law_below_critical():
    p = ProcessParams(1.0, 1.0)
    n = 100_000
    a = sample_radial_exact(p, 1.0, stream(403, 0), size=n)
    b = sample_radial_exact(p, 1.0, stream(403, 1), size=n)
    crit = ks_two_sample_critical(n, n, alpha=0.01)
    assert crit == pytest.approx(1.63 * math.sqrt(2.0 / n), rel=0.002)
    assert ks_statistic(a, b) < crit


def test_ks_statistic_against_scipy():
    from scipy import stats

    a = stream(404, 0).normal(size=2_000)
    b = stream(404, 1).normal(0.2, 1.1, size=3_000)
    assert ks_statistic(a, b) == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-12)


def test_stderr_coverage_of_known_mean():
    # mean +/- 2 stderr should cover the true mean ~95% of the time
    p = ProcessParams(1.0, 1.0)
    true_mean = p.a * math.exp(-1.0)
    n, reps, hits = 2_000, 200, 0
    for rep in range(reps):
        x = sample_ou_exact(p, 1.0, stream(405, rep), size=n)
        est = aggregate(x)
        if abs(est.mean - true_mean) <= 2.0 * est.stderr:
            hits += 1
    assert 0.90 <= hits / reps <= 0.99


def _tiny_report():
    return ExperimentReport(
        name="demo",
        version="0.0.0",
        config={"gamma": 1.0, "seed": 5},
        checks=[
            CheckResult("alpha", "a = a", "closed form", 1.0, 1.0, 0.0, 4.0, "pass"),
            CheckResult("beta", "b = b", "quadrature", 2.0, 1.0, 9.0, 4.0, "fail"),
            CheckResult("gamma-check", "c = c", "mc", None, None, None, None,
                        "skipped", reason="insufficient samples"),
        ],
        meta={"workers": 2},
    )


def test_report_counts_and_flags():
    rep = _tiny_report()
    assert (rep.n_pass, rep.n_fail, rep.n_skipped) == (1, 1, 1)
    assert not rep.all_pass


def test_report_json_is_stable_and_complete():
    rep = _tiny_report()
    text = rep.to_json()
    assert text == rep.to_json()
    body = json.loads(text)
    assert list(body) == sorted(body)
    assert body["summary"] == {"all_pass": False, "n_fail": 1, "n_pass": 1, "n_skipped": 1}
    assert body["checks"][2]["reason"] == "insufficient samples"
    assert body["meta"]["workers"] == 2


def test_report_csv_shape():
    lines = _tiny_report().to_csv().splitlines()
    assert lines[0] == "check,value,oracle,gap,pass"
    assert lines[1] == "alpha,1,1,0,true"
    assert lines[2] == "beta,2,1,9,false"
    assert lines[3] == "gamma-check,,,,skipped"
