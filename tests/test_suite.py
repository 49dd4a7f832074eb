import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import ouht.suite
from ouht.harness import FAIL, PASS, SKIPPED
from ouht.rng import BLOCK_SIZE
from ouht.suite import SuiteConfig, run_suite

import refvalues as ref

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _strip_meta(report_json: str) -> str:
    body = json.loads(report_json)
    body.pop("meta")
    return json.dumps(body, sort_keys=True)


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(times=())
    with pytest.raises(ValueError):
        SuiteConfig(times=(1.0, 0.5))
    with pytest.raises(ValueError):
        SuiteConfig(times=(-1.0, 0.5))
    with pytest.raises(ValueError):
        SuiteConfig(dt=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(n_paths=0)
    with pytest.raises(ValueError):
        SuiteConfig(a=-1.0)


def test_default_suite_passes_everything():
    rep = run_suite(SuiteConfig(n_paths=20_000, seed=91))
    assert rep.n_fail == 0
    assert rep.n_skipped == 0
    assert rep.all_pass
    names = {c.check.split("[")[0] for c in rep.checks}
    assert {
        "martingale-mean", "weight-unit-mass", "transport-agreement",
        "conditioning-gap", "killed-semigroup", "killed-density-mass",
        "radial-density-mass", "htransform-residual", "local-martingale-monotone",
        "local-martingale-mc", "survival-exact-scheme", "euler-radial-ks",
        "euler-radial-msq", "euler-radial-tail",
    } <= names


def test_negative_rate_suite_passes():
    rep = run_suite(SuiteConfig(gamma=-0.5, n_paths=20_000, seed=92))
    assert rep.all_pass


def test_every_check_names_identity_and_oracle():
    rep = run_suite(SuiteConfig(n_paths=200, seed=93))
    for c in rep.checks:
        assert c.identity
        assert c.oracle


def test_tiny_sample_counts_are_skipped_not_failed():
    rep = run_suite(SuiteConfig(n_paths=10, seed=94))
    assert rep.n_fail == 0
    assert rep.n_skipped > 0
    skipped = [c for c in rep.checks if c.status == SKIPPED]
    assert all("insufficient samples" in c.reason for c in skipped)
    # analytic checks still run
    ran = {c.check.split("[")[0] for c in rep.checks if c.status == PASS}
    assert "killed-density-mass" in ran and "htransform-residual" in ran


def test_weight_bias_injection_breaks_transport():
    rep = run_suite(SuiteConfig(n_paths=20_000, seed=95, weight_bias=0.05))
    assert not rep.all_pass
    failed = {c.check for c in rep.checks if c.status == FAIL}
    assert any(name.startswith("transport-agreement") for name in failed)
    # the corruption is confined to the transport comparison hook
    assert all(name.startswith("transport-agreement") for name in failed)


@pytest.fixture(scope="module")
def seed96_report():
    return run_suite(SuiteConfig(n_paths=20_000, seed=96))


def test_reports_identical_across_worker_counts(seed96_report):
    rep1 = seed96_report
    rep4 = run_suite(SuiteConfig(n_paths=20_000, seed=96, workers=4))
    assert _strip_meta(rep1.to_json()) == _strip_meta(rep4.to_json())
    assert rep1.to_csv() == rep4.to_csv()
    assert rep1.meta["workers"] == 1 and rep4.meta["workers"] == 4


def test_report_seeds_recorded():
    rep = run_suite(SuiteConfig(n_paths=500, seed=97))
    seeded = [c for c in rep.checks if c.seed is not None]
    assert seeded
    assert len({c.seed for c in seeded}) > 1  # disjoint substreams


def test_report_matches_values_pinned_before_blockwise_reduction(seed96_report):
    # block-wise sums move values by a few ulp; statuses must not move at all.
    # Degenerate (constant-sample) gaps are divided by a 1e-11 stderr floor,
    # so one ulp of value shows up there as ~1e-5 of gap.
    rep = seed96_report
    assert [(c.check, c.status) for c in rep.checks] == [
        (name, status) for name, status, *_ in ref.SUITE_N20000_SEED96
    ]
    for c, (name, _, value, target, gap) in zip(rep.checks, ref.SUITE_N20000_SEED96):
        assert c.value == pytest.approx(value, rel=1e-13, abs=0.0), name
        assert c.target == pytest.approx(target, rel=1e-13, abs=0.0), name
        assert c.gap == pytest.approx(gap, rel=0.0, abs=1e-4), name


# Two blocks per estimator (70,000 = BLOCK_SIZE + 4,464 paths), so the
# block merge of reduce_blocks and its between-block term are on the path of
# every sampled check; 20,000 paths fit in one block and exercise neither.
MULTI_BLOCK = SuiteConfig(n_paths=BLOCK_SIZE + 4_464, seed=98)


@pytest.fixture(scope="module")
def multi_block_report():
    return run_suite(MULTI_BLOCK)


def test_multi_block_report_matches_pinned_values(multi_block_report):
    rep = multi_block_report
    assert [(c.check, c.status) for c in rep.checks] == [
        (name, status) for name, status, *_ in ref.SUITE_N70000_SEED98
    ]
    for c, (name, _, value, target, gap) in zip(rep.checks, ref.SUITE_N70000_SEED98):
        assert c.value == pytest.approx(value, rel=1e-13, abs=0.0), name
        assert c.target == pytest.approx(target, rel=1e-13, abs=0.0), name
        assert c.gap == pytest.approx(gap, rel=0.0, abs=1e-4), name
        # the between-block term is about 1/N of a variance, so it moves a
        # gap by ~1e-5 relative, below the bound above; hold every gap not
        # at ulp scale (the floored-stderr ones) to rel 1e-9 as well
        if gap > 1e-3:
            assert c.gap == pytest.approx(gap, rel=1e-9, abs=0.0), name


def test_multi_block_report_identical_on_the_pool(multi_block_report):
    rep2 = run_suite(SuiteConfig(n_paths=MULTI_BLOCK.n_paths, seed=MULTI_BLOCK.seed, workers=2))
    assert _strip_meta(multi_block_report.to_json()) == _strip_meta(rep2.to_json())
    assert multi_block_report.to_csv() == rep2.to_csv()


def _explicit_radial(params, times, rng, n, *, scheme):
    """Explicit Euler for dR = (1/R - gamma R) dt + dB, reflected at 0: the
    reference scheme that the euler-radial-tail row must reject."""
    (t,) = times
    m = math.ceil(t / scheme.dt - 1e-12)
    h = t / m
    r = np.full(n, float(params.a))
    for _ in range(m):
        r = np.abs(r + (1.0 / r - params.gamma * r) * h + math.sqrt(h) * rng.standard_normal(n))
    return r[:, None]


def test_tail_row_rejects_explicit_euler(monkeypatch):
    # the suite's Euler stream at seed 98, 50,000 paths and dt 0.002; only
    # t_mid = 1 matters to the Euler rows
    config = SuiteConfig(n_paths=50_000, seed=98, times=(1.0,), functionals=())

    def tail():
        (row,) = [c for c in run_suite(config).checks if c.check == "euler-radial-tail"]
        return row

    implicit = tail()
    monkeypatch.setattr(ouht.suite, "radial_euler", _explicit_radial)
    explicit = tail()
    assert implicit.threshold == explicit.threshold == pytest.approx(5.8121, abs=1e-4)
    assert implicit.status == PASS and implicit.value < 4.0
    # a 1/R kick near 0 throws one path out to about 54
    assert explicit.status == FAIL and explicit.value > 50.0


def _load_benchmark(name, monkeypatch):
    # run.py sets sys.dont_write_bytecode when loaded; monkeypatch restores it
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location(f"ouht_benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)  # defines the constants; main() is not called
    return module


def test_benchmark_row_count_and_exact_rows_hold(monkeypatch, seed96_report, multi_block_report):
    # benchmarks/run.py expects VERIFY_CHECKS rows from verify at the default
    # config, and benchmarks/check.py fails a report in which any row outside
    # its sampling kinds fails
    run = _load_benchmark("run", monkeypatch)
    check = _load_benchmark("check", monkeypatch)
    sampling = check.SIGMA_CHECKS | {check.KS_CHECK, check.MSQ_CHECK}
    for rep in (seed96_report, multi_block_report):
        assert len(rep.checks) == run.VERIFY_CHECKS
        exact = [c for c in rep.checks if c.check.split("[")[0] not in sampling]
        assert "euler-radial-tail" in {c.check for c in exact}
        assert all(c.status == PASS for c in exact), [c.check for c in exact if c.status != PASS]
