import dataclasses
import hashlib
import importlib.util
import json
import math
import platform
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
from ouht.suite import FUNCTIONALS, SuiteConfig, run_suite

import mutants
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_config_rejects_a_non_finite_weight_bias(bad):
    # the negative control's scale must itself be a number
    with pytest.raises(ValueError, match=r"^weight_bias must be finite, got "):
        SuiteConfig(weight_bias=bad)


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


def test_reports_identical_across_worker_counts(multi_block_report, multi_block_pool_report):
    rep1, rep2 = multi_block_report, multi_block_pool_report
    assert _strip_meta(rep1.to_json()) == _strip_meta(rep2.to_json())
    assert rep1.to_csv() == rep2.to_csv()
    assert rep1.meta["workers"] == 1 and rep2.meta["workers"] == 2


def test_meta_names_the_python_and_numpy_that_ran_the_report(multi_block_report):
    # the streams are numpy's generator algorithms, so the report names its numpy
    assert multi_block_report.meta["python"] == platform.python_version()
    assert multi_block_report.meta["numpy"] == np.__version__


def test_multi_block_report_bytes_are_pinned(multi_block_report, multi_block_pool_report):
    # the refactor gate: every byte of the report outside meta, at either
    # worker count, as the commit before the draw table wrote it
    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    for rep in (multi_block_report, multi_block_pool_report):
        assert digest(rep.to_csv()) == ref.SUITE_N70000_SEED98_SHA256["csv"]
        assert digest(_strip_meta(rep.to_json())) == ref.SUITE_N70000_SEED98_SHA256["json"]


@pytest.mark.parametrize("name,config", [
    ("n10", SuiteConfig(n_paths=10)),
    ("gamma50", SuiteConfig(gamma=50.0, times=(0.5, 6.9, 6.95), n_paths=300)),
])
def test_skipped_report_bytes_are_pinned(name, config):
    # every skip path: too few paths, too few expected survivors, no survivor drawn
    rep = run_suite(config)
    assert rep.n_skipped > 0
    digests = ref.SUITE_SKIPPED_SHA256[name]
    assert hashlib.sha256(rep.to_csv().encode()).hexdigest() == digests["csv"]
    assert hashlib.sha256(_strip_meta(rep.to_json()).encode()).hexdigest() == digests["json"]


@pytest.mark.parametrize("edge", [{"a": 1e10}, {"a": 1e150}, {"times": (1e-6,)},
                                  {"times": (1e-20,)}, {"times": (1e-300,)}],
                         ids=["a=1e10", "a=1e150", "t=1e-06", "t=1e-20", "t=1e-300"])
def test_closed_form_rows_pass_at_the_scale_edges(edge):
    # at 10 paths every sampled row skips, so only the closed-form rows are
    # read; the mass and residual rows failed here while quadrature and the
    # residual worked in x
    config = SuiteConfig(n_paths=10, **edge)
    rows = [c for c in run_suite(config).checks
            if c.check.startswith(("killed-density-mass", "radial-density-mass",
                                   "htransform-residual"))]
    assert len(rows) == 3 * len(config.times)
    assert [c.check for c in rows if c.status != PASS] == []


def test_every_draw_is_read_by_some_row(monkeypatch):
    # a draw that no row reads costs every run its paths and shows nowhere
    drawn, read = set(), set()
    real = ouht.suite.run_draws

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    def recording(params, table, workers=1):
        drawn.update(table)
        return Recording(real(params, table, workers))

    monkeypatch.setattr(ouht.suite, "run_draws", recording)
    rep = run_suite(SuiteConfig(n_paths=500, seed=99))
    # two Euler-row draws, martingale and local-martingale at each of the 3
    # times, unit-mass and weighted-radial
    assert rep.n_skipped == 0 and len(drawn) == 10
    assert read == drawn


def test_run_suite_draws_each_law_once_per_family(monkeypatch):
    # one map_blocks call carries every block of every draw; a task names its
    # sampler and stream seed, so each (sampler, seed) pair is one draw of one
    # law.  A row reads its draws just before its CheckResult is built, so
    # the reads since the last CheckResult are that row's draws
    calls, table, pending, reads = [], {}, [], {}
    real_map, real_run, real_check = (ouht.measure.map_blocks, ouht.suite.run_draws,
                                      ouht.suite.CheckResult)

    def counting(worker, tasks, workers=1):
        calls.append([(task[0], task[3]) for task in tasks])
        return real_map(worker, tasks, workers)

    class Recording(dict):
        def __getitem__(self, key):
            pending.append(table[key])
            return super().__getitem__(key)

    def recording(params, draws, workers=1):
        table.update(draws)
        return Recording(real_run(params, draws, workers))

    def check_result(check, *args, **kwargs):
        reads[check] = pending[:]
        pending.clear()
        return real_check(check, *args, **kwargs)

    monkeypatch.setattr(ouht.measure, "map_blocks", counting)
    monkeypatch.setattr(ouht.suite, "run_draws", recording)
    monkeypatch.setattr(ouht.suite, "CheckResult", check_result)
    rep = run_suite(SuiteConfig(n_paths=500, seed=99))
    assert rep.all_pass and len(rep.checks) == 35 and list(reads) == [c.check for c in rep.checks]
    assert len(calls) == 1
    (tasks,) = calls
    drawn = dict((seed, sampler) for sampler, seed in tasks)
    assert len(set(tasks)) == len(drawn) == len(table) == 10  # every draw on its own stream
    # the single-block Euler-row draws lead the task list
    assert [seed for _, seed in tasks[:2]] == [derive_seed(99, "euler-radial"),
                                               derive_seed(99, "euler-radial-reference")]
    # the sides of every comparison are on pairwise distinct streams
    compared = {check: draws for check, draws in reads.items() if len(draws) >= 2}
    assert len(compared) == 9  # 4 transport, 4 conditioning and the KS row
    for check, draws in compared.items():
        assert len({d.seed for d in draws}) == len(draws), check
    for f in ("one", "1(x>1)", "1(x<0.5)", "min(x^1,10)"):
        transport = compared[f"transport-agreement[{f}]"]
        assert [d.sampler for d in transport] == [killed_exact, radial_exact]
        # lhs, E_Q[1/X] and the survivors
        conditioning = compared[f"conditioning-gap[{f}]"]
        assert [d.sampler for d in conditioning] == [radial_exact, radial_exact, killed_exact]


def test_run_suite_submits_130_blocks_at_a_million_paths(monkeypatch):
    # 8 draws of 16 blocks and the two single-block Euler-row draws.  A second
    # draw of a law at a time would add 16; count the tasks without drawing
    class Submitted(Exception):
        pass

    submitted = []

    def submit(worker, tasks, workers=1):
        submitted.append(len(tasks))
        raise Submitted

    monkeypatch.setattr(ouht.measure, "map_blocks", submit)
    with pytest.raises(Submitted):
        run_suite(SuiteConfig(n_paths=1_000_000))
    assert submitted == [130]


def test_unit_mass_draw_shares_the_survival_integrand(monkeypatch):
    # the forward weight at each time, then alive(f) and the survivors' f for
    # each functional: the survival row reads alive(one), the integrand that
    # transport-agreement[one] reads, so it is not evaluated twice
    class Submitted(Exception):
        pass

    tables = []

    def submit(params, table, workers=1):
        tables.append(table)
        raise Submitted

    monkeypatch.setattr(ouht.suite, "run_draws", submit)
    config = SuiteConfig()
    with pytest.raises(Submitted):
        run_suite(config)
    (table,) = tables
    assert len(table["unit-mass"].integrands) == len(config.times) + 2 * len(FUNCTIONALS) == 11


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


def _absorb_every_path(params, times, rng, n, out):
    out[...] = 0.0


def test_unit_mass_rows_fail_a_sampler_that_absorbs_every_path(monkeypatch):
    # the skip reads the closed-form S(t), never the sample: a killed sampler
    # with no survivors at gamma = 1 must still fail the rows
    monkeypatch.setattr(ouht.suite, "killed_exact", _absorb_every_path)
    rep = run_suite(SuiteConfig(n_paths=500, seed=101))
    rows = [c for c in rep.checks if c.check.startswith("weight-unit-mass[")]
    assert len(rows) == 3
    assert all(c.status == FAIL and c.value == 0.0 for c in rows)


@pytest.mark.parametrize("name", [None, *mutants.MUTANTS])
def test_each_gross_mutant_fails_the_suite(monkeypatch, name):
    # the unpatched run fails no row at seed 0, and every gross wrong law
    # fails a transport-agreement row.  weight-unit-mass is blind to the
    # clock mutant: X e^{gamma t} stopped at 0 is a martingale on any clock.
    # The survival row reads the killed kernel that the unit-mass rows read,
    # so a wrong kill there fails it too
    if name is not None:
        mutants.apply(monkeypatch, name)
    rep = run_suite(SuiteConfig(seed=0))
    failed = {c.check.split("[")[0] for c in rep.checks if c.status == FAIL}
    if name is None:
        assert not failed, failed
    else:
        assert "transport-agreement" in failed, failed
    if name == "killed-clock-t":
        assert "weight-unit-mass" not in failed
    if name in ("killed-sign-check-euler", "killed-bridge-half-exponent"):
        assert "survival-exact-scheme" in failed, failed


def _explicit_radial(params, times, rng, n, out, *, scheme):
    """Explicit Euler for dR = (1/R - gamma R) dt + dB, reflected at 0: the
    reference scheme that the euler-radial-tail row must reject."""
    (t,) = times
    m = math.ceil(t / scheme.dt - 1e-12)
    h = t / m
    r = np.full(n, float(params.a))
    for _ in range(m):
        r = np.abs(r + (1.0 / r - params.gamma * r) * h + math.sqrt(h) * rng.standard_normal(n))
    out[0] = r


def test_tail_row_rejects_explicit_euler(monkeypatch):
    # the suite's Euler stream at seed 98, 50,000 paths and dt 0.002; only
    # t_mid = 1 matters to the Euler rows
    config = SuiteConfig(n_paths=50_000, seed=98, times=(1.0,))

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
