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
    MCEstimate,
    aggregate,
    ks_statistic,
    ks_two_sample_critical,
    reduce_blocks,
)
from ouht.process import ProcessParams, sample_ou_exact, sample_radial_exact
from ouht.rng import stream


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
    # the squared deviations of 2^1000 * (1, 2, 3, 4) overflow; scaled by a
    # power of two the estimate is that of (1, 2, 3, 4), bit for bit
    small = aggregate(np.arange(1.0, 5.0), seed=7)
    big = aggregate(np.ldexp(np.arange(1.0, 5.0), 1000), seed=7)
    assert big == MCEstimate(math.ldexp(small.mean, 1000), math.ldexp(small.stderr, 1000), 4, 7)
    assert math.isfinite(big.stderr)


def test_ks_statistic_edges():
    x = np.array([1.0, 2.0, 3.0])
    assert ks_statistic(x, x) == 0.0
    assert ks_statistic(x, x + 100.0) == 1.0
    with pytest.raises(ValueError):
        ks_statistic(x, np.array([]))


def _ks_allocating(sample_a, sample_b):
    # the formula as first written, one new array per operation
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    joint = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, joint, side="right") / a.size
    cdf_b = np.searchsorted(b, joint, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@pytest.mark.parametrize("a,b", [
    (stream(406, 0).normal(size=3_000), stream(406, 1).normal(0.1, 1.2, size=1_777)),
    # ties within and across the samples
    (stream(406, 2).integers(0, 12, size=901).astype(float),
     stream(406, 3).integers(0, 9, size=333).astype(float)),
    (np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 2.0, 2.0, 5.0, 7.0, 7.0])),
    (np.array([0.5]), np.array([0.25, 0.5, 3.0])),
])
def test_ks_statistic_in_place_equals_the_allocating_formula(a, b):
    for x, y in ((a, b), (b, a)):
        assert ks_statistic(x, y) == _ks_allocating(x, y)
    assert ks_statistic(a, b) == ks_statistic(b, a)


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
            CheckResult("gamma-check", "c = c", "mc", None, None, None, math.nan,
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
