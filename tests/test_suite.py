import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import ouht.measure
import ouht.suite
from ouht.density import survival_probability
from ouht.harness import FAIL, PASS, SKIPPED
from ouht.measure import killed_exact, radial_exact
from ouht.process import ProcessParams
from ouht.rng import BLOCK_SIZE, derive_seed
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


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_config_rejects_a_bad_dt_as_the_scheme_does(bad):
    # the one dt check, at construction, not first inside run_suite
    with pytest.raises(ValueError, match=r"^dt must be finite and > 0, got "):
        SuiteConfig(dt=bad)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_config_rejects_non_finite_times(bad):
    # the one observation-times check, with the message the CLI prints after "t: "
    with pytest.raises(ValueError, match="^times must be positive, finite and strictly ascending$"):
        SuiteConfig(times=(0.5, bad))
    with pytest.raises(ValueError, match="^times must be positive, finite and strictly ascending$"):
        SuiteConfig(times=(bad,))


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


def test_check_names_do_not_depend_on_the_path_count(seed96_report):
    # below MIN_PATHS_FOR_MC each sampled row is skipped under its own name
    tiny = run_suite(SuiteConfig(n_paths=10, seed=94))
    assert [c.check for c in tiny.checks] == [c.check for c in seed96_report.checks]


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


@pytest.fixture(scope="module")
def multi_block_pool_report():
    # two blocks per draw, so workers=2 sends every family's tuple of
    # per-integrand BlockStats back through the pool
    return run_suite(dataclasses.replace(MULTI_BLOCK, workers=2))


def test_multi_block_report_identical_on_the_pool(multi_block_report, multi_block_pool_report):
    assert _strip_meta(multi_block_report.to_json()) == _strip_meta(multi_block_pool_report.to_json())
    assert multi_block_report.to_csv() == multi_block_pool_report.to_csv()


def test_reports_identical_across_worker_counts(multi_block_report, multi_block_pool_report):
    rep1, rep2 = multi_block_report, multi_block_pool_report
    assert _strip_meta(rep1.to_json()) == _strip_meta(rep2.to_json())
    assert rep1.to_csv() == rep2.to_csv()
    assert rep1.meta["workers"] == 1 and rep2.meta["workers"] == 2


def test_multi_block_report_bytes_are_pinned(multi_block_report, multi_block_pool_report):
    # the refactor gate: every byte of the report outside meta, at either
    # worker count, as the commit before the draw table wrote it
    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    for rep in (multi_block_report, multi_block_pool_report):
        assert digest(rep.to_csv()) == ref.SUITE_N70000_SEED98_SHA256["csv"]
        assert digest(_strip_meta(rep.to_json())) == ref.SUITE_N70000_SEED98_SHA256["json"]


def test_run_suite_draws_each_law_once_per_family(monkeypatch):
    # one map_blocks call carries every block of every draw; a task names its
    # sampler and stream seed, so each (sampler, seed) pair is one draw of one law
    calls = []
    real = ouht.measure.map_blocks

    def counting(worker, tasks, workers=1):
        calls.append([(task[0], task[3]) for task in tasks])
        return real(worker, tasks, workers)

    monkeypatch.setattr(ouht.measure, "map_blocks", counting)
    rep = run_suite(SuiteConfig(n_paths=500, seed=99))
    assert rep.all_pass and len(rep.checks) == 35
    assert len(calls) == 1
    (tasks,) = calls
    drawn = dict((seed, sampler) for sampler, seed in tasks)
    assert len(set(tasks)) == len(drawn) == 15  # every draw on its own stream
    # the single-block Euler-row draws lead the task list
    assert [seed for _, seed in tasks[:2]] == [derive_seed(99, "euler-radial"),
                                               derive_seed(99, "euler-radial-reference")]
    rows = [c for c in rep.checks if c.check.startswith("conditioning-gap[")]
    assert len(rows) == 4
    for c in rows:
        sides = [derive_seed(c.seed, tag)
                 for tag in ("conditional-lhs", "conditional-qinv", "conditional-killed")]
        assert len(set(sides)) == 3
        assert [drawn.get(seed) for seed in sides] == [radial_exact, radial_exact, killed_exact]


@pytest.mark.parametrize("times", [(6.9,), (0.5, 6.9, 6.95)])
def test_too_few_survivors_skip_the_conditioning_family(times):
    # at gamma = 50 survival to t_mid = 6.9 is about 1e-149, so none of 300
    # paths survives; the four rows share that one survivor draw
    rep = run_suite(SuiteConfig(gamma=50.0, a=1.0, times=times, n_paths=300, seed=100))
    rows = [c for c in rep.checks if c.check.startswith("conditioning-gap[")]
    assert len(rows) == 4
    for c in rows:
        assert c.status == SKIPPED
        assert c.reason.startswith("only 0 surviving paths out of 300"), c.reason
    # no row goes missing: 35 of them at three times
    assert [c.check for c in rep.checks] == [
        c.check for c in run_suite(SuiteConfig(times=times, n_paths=10)).checks
    ]


def test_unit_mass_rows_skip_when_survival_is_tiny():
    # at gamma = 50, 300 paths expect about 3e-8 survivors at t = 0.5 and
    # none at all later, so the mean of 1 rests on paths never drawn
    rep = run_suite(SuiteConfig(gamma=50.0, a=1.0, times=(0.5, 6.9, 6.95), n_paths=300))
    rows = [c for c in rep.checks if c.check.startswith("weight-unit-mass[")]
    assert [c.check for c in rows] == [f"weight-unit-mass[t={t}]" for t in ("0.5", "6.9", "6.95")]
    for c, t in zip(rows, (0.5, 6.9, 6.95)):
        expected = 300 * survival_probability(ProcessParams(50.0, 1.0), t)
        assert c.status == SKIPPED, c
        assert c.reason == f"expected survivors n_paths*S(t) = {expected:.3g} < 10"


def _absorb_every_path(params, times, rng, n):
    return np.zeros((len(times), n))


def test_unit_mass_rows_fail_a_sampler_that_absorbs_every_path(monkeypatch):
    # the skip reads the closed-form S(t), never the sample: a killed sampler
    # with no survivors at gamma = 1 must still fail the rows
    monkeypatch.setattr(ouht.suite, "killed_exact", _absorb_every_path)
    rep = run_suite(SuiteConfig(n_paths=500, seed=101))
    rows = [c for c in rep.checks if c.check.startswith("weight-unit-mass[")]
    assert len(rows) == 3
    assert all(c.status == FAIL and c.value == 0.0 for c in rows)


def _explicit_radial(params, times, rng, n, out=None, *, scheme):
    """Explicit Euler for dR = (1/R - gamma R) dt + dB, reflected at 0: the
    reference scheme that the euler-radial-tail row must reject."""
    (t,) = times
    m = math.ceil(t / scheme.dt - 1e-12)
    h = t / m
    r = np.full(n, float(params.a))
    for _ in range(m):
        r = np.abs(r + (1.0 / r - params.gamma * r) * h + math.sqrt(h) * rng.standard_normal(n))
    if out is None:
        return r[None, :]
    out[0] = r
    return out


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
