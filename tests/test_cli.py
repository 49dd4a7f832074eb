import hashlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ouht.cli
import ouht.measure
from ouht.cli import main
from ouht.harness import ExperimentReport
from ouht.measure import (TestFunctional, conditional_identities, default_functional_suite,
                          local_martingale_curve)
from ouht.process import ProcessParams
from ouht.rng import BLOCK_SIZE
from ouht.simulate import euler_radial

import refvalues as ref

TRACED = Path(__file__).resolve().parents[1] / "benchmarks" / "traced.py"


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "ouht", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _nonempty_lines(path):
    return [l for l in path.read_text().splitlines() if l]


def test_subprocess_imports_package_under_test(tmp_path):
    # every other test here depends on this: the child must find the same
    # ouht as this process, from a working directory outside the checkout
    import ouht

    res = subprocess.run(
        [sys.executable, "-c", "import ouht; print(ouht.__file__)"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    assert Path(res.stdout.strip()).resolve() == Path(ouht.__file__).resolve()


def test_version_flag(tmp_path):
    res = run_cli(["--version"], tmp_path)
    assert res.returncode == 0
    assert "ouht 0.1.0" in res.stdout


def test_simulate_killed_ou(tmp_path):
    res = run_cli(
        ["simulate", "--process", "ou-killed", "--gamma", "1", "--a", "1",
         "--t", "1", "--paths", "20000", "--seed", "7", "--workers", "1",
         "--out", "sim.csv"],
        tmp_path,
    )
    assert res.returncode == 0
    assert "survival" in res.stdout
    survival = float(res.stdout.split("survival=")[1].split()[0])
    assert abs(survival - 0.424) < 0.02

    lines = _nonempty_lines(tmp_path / "sim.csv")
    assert lines[0].startswith("# ouht ")
    assert any(l.startswith("# config:") and "seed=7" in l for l in lines[:3])
    header_idx = lines.index("t,path,value,absorbed")
    rows = lines[header_idx + 1 :]
    assert len(rows) == 20_000
    values = [float(r.split(",")[2]) for r in rows[:100]]
    flags = [int(r.split(",")[3]) for r in rows[:100]]
    assert all(v == 0.0 for v, k in zip(values, flags) if k == 1)
    assert all(v > 0.0 for v, k in zip(values, flags) if k == 0)


def test_simulate_radial_bessel_case(tmp_path):
    res = run_cli(
        ["simulate", "--process", "radial", "--gamma", "0", "--a", "1",
         "--t", "1", "--paths", "5000", "--seed", "3", "--workers", "1",
         "--format", "json", "--out", "radial.json"],
        tmp_path,
    )
    assert res.returncode == 0
    body = json.loads((tmp_path / "radial.json").read_text())
    vals = body["results"][0]["values"]
    assert len(vals) == 5000
    assert all(v > 0 for v in vals)
    assert body["results"][0]["survival"] == 1.0
    # Bessel marginal mean: E|BM_3(1) from (1,0,0)| = 1.8493... by quadrature
    # of sqrt(v) against the noncentral chi-square(3, 1) density
    assert abs(body["results"][0]["mean"] - 1.8493) < 0.05


def test_simulate_euler_scheme_needs_dt(tmp_path):
    res = run_cli(
        ["simulate", "--process", "ou-killed", "--scheme", "euler",
         "--gamma", "1", "--a", "1", "--t", "0.5", "--paths", "100"],
        tmp_path,
    )
    assert res.returncode == 2
    assert "dt" in res.stderr


def test_simulate_missing_a_exits_2_naming_field(tmp_path):
    res = run_cli(
        ["simulate", "--process", "ou-killed", "--gamma", "1", "--t", "1"],
        tmp_path,
    )
    assert res.returncode == 2
    assert "a" in res.stderr.split("parameter:")[-1]


def test_simulate_rejects_bad_values(tmp_path):
    res = run_cli(
        ["simulate", "--process", "ou-killed", "--gamma", "1", "--a", "-1", "--t", "1"],
        tmp_path,
    )
    assert res.returncode == 2 and res.stderr.startswith("error: a:")
    res = run_cli(
        ["simulate", "--process", "ou-killed", "--gamma", "nan", "--a", "1", "--t", "1"],
        tmp_path,
    )
    assert res.returncode == 2 and res.stderr.startswith("error: gamma:")
    res = run_cli(
        ["simulate", "--process", "ou-killed", "--gamma", "1", "--a", "1",
         "--t", "2", "--t", "1"],
        tmp_path,
    )
    assert res.returncode == 2 and "t:" in res.stderr


def test_simulate_byte_identical_reruns(tmp_path):
    args = ["simulate", "--process", "ou-killed", "--gamma", "1", "--a", "1",
            "--t", "0.5", "--t", "1", "--paths", "4000", "--seed", "11",
            "--workers", "1"]
    assert run_cli(args + ["--out", "one.csv"], tmp_path).returncode == 0
    assert run_cli(args + ["--out", "two.csv"], tmp_path).returncode == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_density_command(tmp_path):
    res = run_cli(
        ["density", "--gamma", "1", "--a", "1", "--t", "1",
         "--x-min", "0.01", "--x-max", "6", "--x-points", "200",
         "--out", "dens.csv"],
        tmp_path,
    )
    assert res.returncode == 0
    lines = _nonempty_lines(tmp_path / "dens.csv")
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("x,"))
    rows = [l for l in lines[header_idx + 1 :] if not l.startswith("#")]
    assert len(rows) == 200
    rel = [float(r.split(",")[4]) for r in rows]
    assert max(rel) <= 1e-12
    footers = [l for l in lines if l.startswith("# integral_")]
    assert len(footers) == 2
    killed_mass, survival = (
        float(tok.split("=")[1]) for tok in footers[0].removeprefix("# ").split()
    )
    assert abs(killed_mass - survival) <= 1e-8
    radial_mass = float(footers[1].split("=")[1].split()[0])
    assert abs(radial_mass - 1.0) <= 1e-8


def test_density_rejects_bad_grid(tmp_path):
    base = ["density", "--gamma", "1", "--a", "1", "--t", "1"]
    res = run_cli(base + ["--x-min", "0", "--x-max", "6"], tmp_path)
    assert res.returncode == 2 and "x-min" in res.stderr
    res = run_cli(base + ["--x-min", "2", "--x-max", "1"], tmp_path)
    assert res.returncode == 2 and "x-max" in res.stderr
    res = run_cli(base + ["--x-min", "0.1", "--x-max", "6", "--x-points", "1"], tmp_path)
    assert res.returncode == 2 and "x-points" in res.stderr


def test_local_martingale_command(tmp_path):
    res = run_cli(
        ["local-martingale", "--gamma", "1", "--a", "1", "--paths", "20000",
         "--seed", "5", "--workers", "1", "--out", "lm.csv"],
        tmp_path,
    )
    assert res.returncode == 0
    lines = _nonempty_lines(tmp_path / "lm.csv")
    rows = [l for l in lines if not l.startswith(("#", "t,"))]
    closed = [float(r.split(",")[3]) for r in rows]
    assert all(b < a for a, b in zip(closed, closed[1:]))
    assert all(c < 1.0 for c in closed)


def test_verify_ok_and_deterministic_across_workers(tmp_path):
    base = ["verify", "--paths", "15000", "--seed", "21", "--out"]
    res1 = run_cli(base + ["rep1", "--workers", "1"], tmp_path)
    assert res1.returncode == 0, res1.stdout + res1.stderr
    assert "fail" in res1.stdout  # summary line mentions the fail count
    res2 = run_cli(base + ["rep2", "--workers", "3"], tmp_path)
    assert res2.returncode == 0

    a = json.loads((tmp_path / "rep1.json").read_text())
    b = json.loads((tmp_path / "rep2.json").read_text())
    assert a.pop("meta")["workers"] == 1
    assert b.pop("meta")["workers"] == 3
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert (tmp_path / "rep1.csv").read_bytes() == (tmp_path / "rep2.csv").read_bytes()


def test_verify_negative_rate_passes(tmp_path):
    res = run_cli(
        ["verify", "--gamma", "-0.5", "--paths", "15000", "--seed", "21",
         "--workers", "1", "--out", "neg"],
        tmp_path,
    )
    assert res.returncode == 0, res.stdout + res.stderr


def test_verify_negative_control_exits_3(tmp_path):
    res = run_cli(
        ["verify", "--paths", "40000", "--seed", "21", "--workers", "1",
         "--inject-weight-bias", "0.05", "--out", "biased"],
        tmp_path,
    )
    assert res.returncode == 3
    assert (tmp_path / "biased.json").exists()  # report still written
    body = json.loads((tmp_path / "biased.json").read_text())
    failed = [c["check"] for c in body["checks"] if c["status"] == "fail"]
    assert any(name.startswith("transport-agreement") for name in failed)


def test_defaults_file_fills_gaps_and_flags_win(tmp_path):
    (tmp_path / "base.conf").write_text(
        "# shared settings\ngamma = 1.0\na = 1.0\nt = 1\npaths = 3000\nseed = 9\n"
    )
    res = run_cli(
        ["simulate", "--process", "ou-killed", "--defaults", "base.conf",
         "--paths", "1000", "--workers", "1", "--out", "d.csv"],
        tmp_path,
    )
    assert res.returncode == 0
    lines = _nonempty_lines(tmp_path / "d.csv")
    config_line = next(l for l in lines if l.startswith("# config:"))
    assert "paths=1000" in config_line  # flag beat the file
    assert "seed=9" in config_line      # file filled the gap


def test_verify_invalid_time_config(tmp_path):
    res = run_cli(["verify", "--t", "-1"], tmp_path)
    assert res.returncode == 2


def test_unwritable_output_exits_1(tmp_path):
    res = run_cli(
        ["density", "--gamma", "1", "--a", "1", "--t", "1",
         "--x-min", "0.1", "--x-max", "2", "--x-points", "5",
         "--out", "no/such/dir/out.csv"],
        tmp_path,
    )
    assert res.returncode == 1
    assert "cannot write" in res.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_unwritable_output_exits_1(tmp_path, fmt):
    res = run_cli(
        ["simulate", "--process", "radial", "--gamma", "1", "--a", "1", "--t", "1",
         "--paths", "10", "--workers", "1", "--format", fmt, "--out", f"no/such/dir/x.{fmt}"],
        tmp_path,
    )
    assert res.returncode == 1
    assert "cannot write" in res.stderr


@pytest.mark.parametrize("argv", [
    ["simulate", "--process", "ou-killed", "--gamma", "1", "--a", "1", "--t", "1",
     "--paths", "100", "--workers", "1", "--out", "x.csv"],
    ["verify", "--paths", "200", "--workers", "1"],
    ["density", "--gamma", "1", "--a", "1", "--t", "1", "--x-min", "0.01", "--x-max", "3"],
], ids=["simulate", "verify", "density"])
def test_commands_do_not_load_scipy(tmp_path, argv):
    # scipy is a test-only oracle; loading it costs a command about half a
    # second of start-up and 40 MB
    code = (
        "import sys, ouht.cli\n"
        f"code = ouht.cli.main({argv!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["simulate", "--process", "ou-killed", "--gamma", "1", "--a", "1", "--t", "1",
     "--paths", "100", "--workers", "1", "--out", "x.csv"],
    ["verify", "--paths", "200", "--workers", "1"],
    ["density", "--gamma", "1", "--a", "1", "--t", "1", "--x-min", "0.01", "--x-max", "3"],
    ["local-martingale", "--paths", "200", "--workers", "1"],
], ids=["version", "simulate", "verify", "density", "local-martingale"])
def test_serial_commands_load_no_pool_quadrature_or_masked_modules(tmp_path, argv):
    # a serial run starts no pool, the quadrature rule is a literal, and the
    # panel edges are found without np.unique, which loads numpy.ma
    code = (
        "import sys, ouht.cli\n"
        "try:\n"
        f"    code = ouht.cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing',\n"
        "                         'numpy.ma', 'numpy.polynomial') if m in sys.modules))\n"
        "sys.exit(code)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("process,scheme,fmt", list(ref.SIMULATE_SHA256_N65537_SEED12))
def test_simulate_output_bytes_are_pinned(tmp_path, process, scheme, fmt):
    argv = ["simulate", "--process", process, "--scheme", scheme, "--gamma", "1",
            "--a", "1", "--t", "0.5", "--paths", "65537", "--seed", "12",
            "--workers", "1", "--format", fmt, "--out", str(tmp_path / f"out.{fmt}")]
    if scheme == "euler":
        argv += ["--dt", "0.01"]
    if (process, scheme) != ("radial", "exact"):
        argv += ["--t", "1"]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / f"out.{fmt}").read_bytes()).hexdigest()
    assert digest == ref.SIMULATE_SHA256_N65537_SEED12[process, scheme, fmt]


@pytest.mark.parametrize("process,scheme", [("ou-killed", "exact"), ("radial", "euler")])
def test_simulate_output_does_not_depend_on_the_write_chunk(tmp_path, monkeypatch, process,
                                                             scheme):
    # chunks of 1 and 7 put a CSV row break and a JSON separator at every
    # chunk edge; 300 paths fit in one BLOCK_SIZE chunk
    argv = ["simulate", "--process", process, "--scheme", scheme, "--gamma", "1", "--a", "1",
            "--t", "0.5", "--t", "1", "--paths", "300", "--seed", "5", "--workers", "1",
            "--dt", "0.01"]
    for fmt in ("csv", "json"):
        outputs = set()
        for chunk in (1, 7, BLOCK_SIZE):
            monkeypatch.setattr(ouht.cli, "WRITE_CHUNK", chunk)
            out = tmp_path / f"{chunk}.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1, fmt
    rows = [l for l in (tmp_path / "1.csv").read_text().splitlines() if l[:1].isdigit()]
    assert len(rows) == 600
    if process == "ou-killed":  # absorbed paths among them
        assert {r.rsplit(",", 1)[1] for r in rows} == {"0", "1"}


SMALL_COMMANDS = [
    ["verify", "--paths", "200"],
    ["simulate", "--process", "radial", "--gamma", "1", "--a", "1", "--t", "1",
     "--paths", "10"],
    ["density", "--gamma", "1", "--a", "1", "--t", "1", "--x-min", "0.1",
     "--x-max", "2", "--x-points", "5"],
    ["local-martingale", "--paths", "200"],
]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_every_command_rejects_workers_below_one(tmp_path, workers):
    for argv in SMALL_COMMANDS:
        res = run_cli(argv + [f"--workers={workers}", "--out", "out"], tmp_path)
        assert res.returncode == 2, argv
        assert f"workers: must be >= 1, got {workers}" in res.stderr, argv
    assert not list(tmp_path.iterdir())  # rejected before any output is written


@pytest.mark.parametrize("flag,message", [
    ("--paths=0", "paths: must be >= 1, got 0"),
    ("--seed=-1", "seed: must be >= 0, got -1"),
])
def test_every_command_names_a_bad_paths_or_seed(tmp_path, flag, message):
    for argv in SMALL_COMMANDS:
        if flag.startswith("--paths") and argv[0] == "density":
            continue  # density draws nothing and has no --paths
        res = run_cli(argv + [flag, "--out", "out"], tmp_path)
        expected = message
        if flag.startswith("--paths") and argv[0] in ("simulate", "local-martingale"):
            expected = "paths: must be >= 2, got 0"  # their stderr needs two samples
        assert res.returncode == 2, argv
        assert res.stderr == f"error: {expected}\n", argv
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", list(ref.CLI_SINGLE_FAULTS))
def test_single_fault_exit_code_and_message_are_pinned(tmp_path, monkeypatch, capsys, name):
    argv, conf, code, stderr = ref.CLI_SINGLE_FAULTS[name]
    monkeypatch.chdir(tmp_path)
    if conf is not None:
        (tmp_path / "d.conf").write_text(conf)
    assert main(argv) == code
    assert capsys.readouterr().err == stderr


def test_verify_survives_a_functional_without_mass(tmp_path):
    # no path from a = 30 comes near 0.5 by t = 1, so both sides of the
    # 1(x<0.5) conditioning row are exactly 0, with stderr 0
    res = run_cli(["verify", "--gamma", "1", "--a", "30", "--t", "1", "--paths", "2000",
                   "--workers", "1", "--out", "deg"], tmp_path)
    assert res.returncode in (0, 3), res.stdout + res.stderr
    assert "Traceback" not in res.stderr
    assert "[PASS] conditioning-gap[1(x<0.5)]: value=0 target=0 gap=0" in res.stdout
    assert (tmp_path / "deg.json").exists() and (tmp_path / "deg.csv").exists()


@pytest.mark.parametrize("process,scheme", list(ref.SIMULATE_N65537_SEED12))
def test_simulate_across_blocks(tmp_path, capsys, process, scheme):
    # 65,537 paths are two blocks: the second holds a single path
    argv = ["simulate", "--process", process, "--scheme", scheme, "--gamma", "1",
            "--a", "1", "--t", "0.5", "--t", "1", "--paths", "65537", "--seed", "12"]
    if scheme == "euler":
        argv += ["--dt", "0.01"]
    csv = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
        csv[workers] = out.read_bytes()
    assert csv["1"] == csv["2"]

    summary = [l for l in capsys.readouterr().out.splitlines() if l.startswith("  t=")]
    assert summary == 2 * list(ref.SIMULATE_N65537_SEED12[process, scheme])

    rows = [l.split(",") for l in csv["1"].decode().splitlines() if l[:1].isdigit()]
    assert len(rows) == 2 * 65537
    values = np.array([float(r[2]) for r in rows])
    absorbed = np.array([r[3] for r in rows])
    if process == "radial":
        assert np.all(absorbed == "0") and np.all(values > 0.0)
    else:
        assert np.array_equal(absorbed == "1", values == 0.0)
        assert set(absorbed) == {"0", "1"}


@pytest.mark.parametrize("argv", [
    ["density", "--x-min", "0.1", "--x-max", "2"],
    ["verify", "--paths", "200"],
    ["simulate", "--process", "radial", "--paths", "10"],
    ["simulate", "--process", "radial", "--paths", "10", "--t", "0.1"],
    ["simulate", "--process", "radial", "--scheme", "euler", "--dt", "0.002", "--paths", "10"],
    # the killed law's values (about 1e217) are finite, but not their squares
    ["simulate", "--process", "ou-killed", "--paths", "10", "--format", "json"],
    ["simulate", "--process", "ou-killed", "--scheme", "euler", "--dt", "0.002", "--paths", "10",
     "--format", "json"],
])
def test_explosive_overflow_names_the_given_gamma_and_t(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main(argv + ["--gamma", "-50", "--a", "1", "--t", "10", "--workers", "1",
                        "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "overflows for gamma = -50, t = 10 (gamma*t = -500)" in err, err
    assert not list(tmp_path.iterdir())


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def test_simulate_stderr_stays_finite_where_the_squares_overflow(tmp_path, capsys):
    # inside the law's domain, killed values near 1e154 spread by about 7e153:
    # their squared deviations overflow, but the stderr is finite
    out = tmp_path / "s.json"
    assert main(["simulate", "--process", "ou-killed", "--gamma", "-0.0001", "--a", "100",
                 "--t", "3.5e6", "--paths", "10", "--workers", "1", "--format", "json",
                 "--out", str(out)]) == 0
    (result,) = json.loads(out.read_text(), parse_constant=_reject)["results"]
    assert 1e150 < result["stderr"] < result["mean"] < 1e155, result
    assert "inf" not in capsys.readouterr().out


def _load_traced():
    spec = importlib.util.spec_from_file_location("ouht_benchmark_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # defines LAYERS; install() is not called
    return traced


def test_benchmark_tracer_layers_resolve():
    # traced.py wraps each named function by getattr; a renamed one would
    # break `benchmarks/run.py --trace 1` with an AttributeError
    for span, module, names, _ in _load_traced().LAYERS:
        for name in names:
            assert callable(getattr(module, name, None)), f"{span}: {module.__name__}.{name}"
    assert callable(ExperimentReport.to_json) and callable(ExperimentReport.to_csv)
    # its euler_radial counter reads the scheme as the third positional argument
    assert list(inspect.signature(euler_radial).parameters)[:3] == ["params", "grid", "scheme"]


def test_tracer_wraps_the_single_functional_estimators(monkeypatch):
    # traced.py times the measure layer through these names, called as
    # (params, f, t, n_paths, seed) or (params, times, n_paths, seed), and
    # counts the tasks of each map_blocks call from its result
    traced = _load_traced()
    layers = {span: (module, names, count) for span, module, names, count in traced.LAYERS}
    module, names, _ = layers["measure"]
    p, f = ProcessParams(1.0, 1.0), TestFunctional.indicator_above(1.0)
    tracer = traced.Tracer()
    for name in names:
        args = (p, (0.5, 1.0), 500, 3) if name == "local_martingale_curve" else (p, f, 1.0, 500, 3)
        fn = getattr(module, name)
        assert tracer.wrap("measure", fn)(*args) == fn(*args), name
    assert [s["name"] for s in tracer.spans] == ["measure"] * len(names)

    rng_module, (map_name,), count = layers["rng.map_blocks"]
    monkeypatch.setattr(ouht.measure, map_name,
                        tracer.wrap("rng.map_blocks", getattr(rng_module, map_name), count))
    conditional_identities(p, default_functional_suite(), 1.0, BLOCK_SIZE + 1, 3)
    local_martingale_curve(p, (0.5, 1.0, 2.0), BLOCK_SIZE + 1, 3)
    # each makes its three draws of two blocks in one call
    assert [s["counts"]["tasks"] for s in tracer.spans[len(names):]] == [6, 6]


def test_traced_verify_records_the_sampler_layers(tmp_path):
    # the samplers must call the layer functions through module globals, or
    # the tracer's rebinding misses them and their counts read 0
    res = subprocess.run(
        [sys.executable, "-B", str(TRACED), "spans.json", "--",
         "verify", "--paths", "200", "--workers", "1", "--out", "rep"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]

    def total(name, key):
        return sum(s["counts"][key] for s in spans if s["name"] == name)

    assert total("process.sample_radial_exact", "draws") > 0
    assert total("process.sample_ou_exact", "draws") > 0
    assert total("simulate.simulate_killed_ou_exact", "path_steps") > 0
    assert total("simulate.euler_radial", "path_substeps") > 0
    # the parser must pick the command up through the module global the tracer rebinds
    assert [s["name"] for s in spans if s["parent"] is None] == ["cli.command"]


def test_traced_simulate_euler_records_the_euler_layer(tmp_path):
    # the benchmark's simulate_euler command at 1,000 paths: the radial Euler
    # draw writes into the sample, and the tracer still counts its substeps
    # (250 + 250 + 500 of dt 0.002 per path)
    argv = ["simulate", "--process", "radial", "--scheme", "euler", "--dt", "0.002",
            "--gamma", "1.0", "--a", "1.0", "--t", "0.5", "--t", "1.0", "--t", "2.0",
            "--paths", "1000", "--workers", "1", "--seed", "1", "--out", "sim.csv"]
    res = subprocess.run([sys.executable, "-B", str(TRACED), "spans.json", "--", *argv],
                         cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    euler = [s["counts"] for s in spans if s["name"] == "simulate.euler_radial"]
    assert sum(c["path_substeps"] for c in euler) == 1000 * 1000 > 0
    assert (tmp_path / "sim.csv").exists()
