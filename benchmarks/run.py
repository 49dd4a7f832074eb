"""Benchmark of the ouht command line: wall time, CPU and peak memory per command.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload verify_serial --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py            # every workload, one after another

Each workload is a closed loop with one client: the next ``python -m ouht``
invocation starts only after the previous one has exited.  Every invocation
passes ``--workers`` and ``--seed`` explicitly (the CLI's default worker
count is the machine's CPU count), and all invocations of one run use the
run's seed.  The package under ``src`` is copied into a temporary directory
inside the checkout and put on ``PYTHONPATH`` by its absolute path, so
bytecode caches and outputs land there and the directory is removed at the
end: a run leaves the working tree unchanged.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``      median wall time of one command, launch to exit;
* ``cpu_s``       median user + system CPU of the command and its pool
                  workers, from ``os.wait4``;
* ``peak_rss_mb`` median peak resident memory, from the same rusage;
* ``setup_s``     median wall time of a fresh ``python -m ouht --version``
                  (interpreter, ``import ouht`` with scipy, parser build).

``--trace 1`` alternates untraced invocations with traced ones
(``benchmarks/traced.py``) and reports per-layer metrics named
``<module>.<function>.<stat>`` plus ``trace.overhead_s``.

Every invocation's output is checked; an invocation fails if it exits
with an unexpected code, its output check (``benchmarks/check.py``) fails,
or its output differs from the run's reference output (same seed, so
byte-identical is the contract; for ``verify_pool`` the reference is the
same command with ``--workers 1``).  ``verify`` exits 3 when one of its
sampling checks rejects; check.py decides whether that rejection is within
what a right program does on some seeds.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED = HERE / "traced.py"
CHECK = HERE / "check.py"

GAMMA, A = 1.0, 1.0
VERIFY_PATHS = 1_000_000
VERIFY_CHECKS = 35
POOL_WORKERS = 2
SIM_PATHS = 131_072
SIM_DT = 0.002
SIM_TIMES = (0.5, 1.0, 2.0)
# verify exits 3 when a check fails; check.py then judges the report
VERIFY_CODES = (0, 3)

SETUP_REPS = 5
IMPORT_REPS = 3
MIN_TIMED = 3
INVOCATION_TIMEOUT_S = 120.0
# a run must exit within 180 s: start no invocation expected to end later than this
RUN_BUDGET_S = 150.0


# --- workloads --------------------------------------------------------------

def _verify_argv(workers: int, seed: int, out: Path) -> list[str]:
    return ["verify", "--paths", str(VERIFY_PATHS), "--workers", str(workers),
            "--seed", str(seed), "--out", str(out / "report")]


def _simulate_argv(seed: int, out: Path) -> list[str]:
    argv = ["simulate", "--process", "radial", "--scheme", "euler", "--dt", str(SIM_DT),
            "--gamma", str(GAMMA), "--a", str(A)]
    for t in SIM_TIMES:
        argv += ["--t", str(t)]
    return argv + ["--paths", str(SIM_PATHS), "--workers", "1",
                   "--seed", str(seed), "--out", str(out / "sim.csv")]


def _verify_check(out: Path, code: int) -> list[str]:
    return ["verify", str(out), str(VERIFY_CHECKS), str(code)]


def _simulate_check(out: Path, code: int) -> list[str]:
    return ["simulate", str(out), str(GAMMA), str(A), str(SIM_DT), str(SIM_PATHS),
            *map(str, SIM_TIMES)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: object        # (seed, out_dir) -> ouht arguments
    check_args: object  # (out_dir, exit code) -> arguments of check.py
    reference: object   # (seed, out_dir) -> arguments whose output must match, or None
    ok_codes: tuple = (0,)  # exit codes after which the output is checked


WORKLOADS = {
    w.name: w for w in [
        Workload("verify_serial",
                 "main user command; reduction and exact samplers dominate",
                 lambda seed, out: _verify_argv(1, seed, out), _verify_check, None,
                 VERIFY_CODES),
        Workload("verify_pool",
                 "same command on the process pool; dispatch and array transfer",
                 lambda seed, out: _verify_argv(POOL_WORKERS, seed, out), _verify_check,
                 lambda seed, out: _verify_argv(1, seed, out), VERIFY_CODES),
        Workload("simulate_euler",
                 "Euler radial loop and CSV output; no reduction, no pool, no scipy",
                 _simulate_argv, _simulate_check, None),
    ]
}


# --- running commands -------------------------------------------------------

@dataclass(frozen=True)
class Usage:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(cmd: list[str], env: dict, cwd: Path, stderr_path: Path) -> Usage:
    """Run ``cmd`` to completion; wall time from launch to exit, rusage from wait4.

    A child's ru_maxrss starts at the peak RSS of the process that forked it,
    so this process must stay far smaller than any command it measures: it
    imports no numpy and leaves output checks to check.py in its own process.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Run:
    """One benchmark run of one workload: a scratch copy of the package,
    the commands, and the tally of attempted and failed invocations."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed % 2**32  # ouht seeds are non-negative
        self.tmp = tmp
        src = tmp / "src"
        shutil.copytree(ROOT / "src" / "ouht", src / "ouht",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.out = tmp / "out"
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference_digest: str | None = None
        self.tolerated: set[str] = set()

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def ouht(self, args: list[str], prefix=("-m", "ouht"), ok_codes=(0,)) -> Usage:
        self.attempted += 1
        err = self.tmp / "stderr.txt"
        usage = invoke([sys.executable, *prefix, *args], self.env, self.tmp, err)
        if usage.code not in ok_codes:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:]
            self.fail(f"exit {usage.code}: {' '.join(args[:1])} {tail}")
        return usage

    def command(self, args_for, prefix=("-m", "ouht")) -> tuple[Usage, int]:
        """Run one workload command into a fresh output directory and check it.

        Returns its usage and the bytes it wrote.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        failed_before = self.failed
        usage = self.ouht(args_for(self.seed, self.out), prefix, self.workload.ok_codes)
        written = sum(p.stat().st_size for p in self.out.iterdir())
        if self.failed == failed_before:
            check = subprocess.run(
                [sys.executable, str(CHECK), *self.workload.check_args(self.out, usage.code)],
                cwd=self.tmp, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
            digest, *tolerated = check.stdout.splitlines() or [""]
            self.tolerated.update(tolerated)
            if check.returncode != 0:
                self.fail(f"output check: {check.stderr.strip()}")
            elif self.reference_digest is None:
                self.reference_digest = digest
            elif digest != self.reference_digest:
                self.fail("output differs from the reference output of the same seed")
        shutil.rmtree(self.out, ignore_errors=True)
        return usage, written

    def setup(self) -> list[float]:
        """Warm the bytecode and file caches, then time fresh start-ups."""
        self.ouht(["--version"])
        times = [self.ouht(["--version"]).wall_s for _ in range(SETUP_REPS)]
        if self.workload.reference is not None:
            self.command(self.workload.reference)
        return times

    def import_times(self) -> tuple[float, float]:
        """Seconds in the ``ouht`` and ``scipy`` imports of a fresh ``import ouht.cli``."""
        self.attempted += 1
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ouht.cli"],
                              env=self.env, cwd=self.tmp, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
        if proc.returncode != 0:
            self.fail(f"import ouht.cli exit {proc.returncode}")
        return _import_times(proc.stderr)

    def closed_loop(self, seconds: float, step) -> None:
        """Call ``step`` back to back for ``seconds``, at least MIN_TIMED times."""
        start = time.perf_counter()
        last = 0.0
        n = 0
        while n < MIN_TIMED or time.perf_counter() - start < seconds:
            if time.perf_counter() - self.started + last > RUN_BUDGET_S:
                break
            t0 = time.perf_counter()
            step()
            last = time.perf_counter() - t0
            n += 1


# --- metrics ----------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _describe(name: str, values: list[float], unit: str) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return (f"{name}: median {statistics.median(values):.4f} {unit} "
            f"(quartiles {q1:.4f}..{q3:.4f}, n={len(values)})")


def end_to_end(run: Run, seconds: float) -> dict:
    setup = run.setup()
    timed: list[Usage] = []
    run.closed_loop(seconds, lambda: timed.append(run.command(run.workload.argv)[0]))
    series = {
        "wall_s": ([u.wall_s for u in timed], "s"),
        "cpu_s": ([u.cpu_s for u in timed], "s"),
        "peak_rss_mb": ([u.peak_rss_mb for u in timed], "MB"),
        "setup_s": (setup, "s"),
    }
    for name, (values, unit) in series.items():
        print(_describe(name, values, unit))
    return {name: {"value": statistics.median(v), "unit": unit}
            for name, (v, unit) in series.items()}


def _import_times(report: str) -> tuple[float, float]:
    """Seconds in the outermost ``ouht`` and ``scipy`` imports of a
    ``-X importtime`` report (children are listed before their parent)."""
    entries = []
    for line in report.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "imported package" in line:
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(parts[1])))
    totals = {"ouht": 0, "scipy": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in ancestors):
            totals[top] += cumulative_us
        ancestors.append((depth, name))
    return totals["ouht"] * 1e-6, totals["scipy"] * 1e-6


def layer_metrics(spans: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer totals from one traced command.

    Self time is a span's duration minus its children's; spans come from one
    thread and nest strictly, so children never overlap.
    """
    duration = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += duration[i]

    def pick(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(duration[i] for i in pick(name))

    def self_time(name):
        return sum(duration[i] - child_time[i] for i in pick(name))

    def count(name, key):
        return sum(spans[i].get("counts", {}).get(key, 0) for i in pick(name))

    def ns_per(seconds, n):
        return seconds * 1e9 / n if n else 0.0

    agg_s, agg_n = total("harness.aggregate"), count("harness.aggregate", "samples")
    rad_s, rad_n = (total("process.sample_radial_exact"),
                    count("process.sample_radial_exact", "draws"))
    kill_s, kill_n = (total("simulate.simulate_killed_ou_exact"),
                      count("simulate.simulate_killed_ou_exact", "path_steps"))
    substeps = count("simulate.euler_radial", "path_substeps")
    retries = count("simulate.euler_radial", "retries")
    return {
        "harness.aggregate.s": agg_s,
        "harness.aggregate.calls": len(pick("harness.aggregate")),
        "harness.aggregate.samples": agg_n,
        "harness.aggregate.ns_per_sample": ns_per(agg_s, agg_n),
        "rng.map_blocks.s": total("rng.map_blocks"),
        "rng.map_blocks.self_s": self_time("rng.map_blocks"),
        "rng.map_blocks.calls": len(pick("rng.map_blocks")),
        "rng.map_blocks.tasks": count("rng.map_blocks", "tasks"),
        "rng.map_blocks.result_bytes": count("rng.map_blocks", "result_bytes"),
        "process.sample_radial_exact.s": rad_s,
        "process.sample_radial_exact.draws": rad_n,
        "process.sample_radial_exact.ns_per_draw": ns_per(rad_s, rad_n),
        "process.sample_ou_exact.s": total("process.sample_ou_exact"),
        "process.sample_ou_exact.draws": count("process.sample_ou_exact", "draws"),
        "simulate.simulate_killed_ou_exact.s": kill_s,
        "simulate.simulate_killed_ou_exact.path_steps": kill_n,
        "simulate.simulate_killed_ou_exact.ns_per_path_step": ns_per(kill_s, kill_n),
        "simulate.euler_radial.s": total("simulate.euler_radial"),
        "simulate.euler_radial.path_substeps": substeps,
        "simulate.euler_radial.retries": retries,
        "simulate.euler_radial.clamps": count("simulate.euler_radial", "clamps"),
        # every retry follows a rejected proposal, so this is a lower bound
        "simulate.euler_radial.first_try_ratio": 1.0 - retries / substeps if substeps else 0.0,
        "cli.command.self_s": self_time("cli.command"),
        "cli.output_bytes": output_bytes,
        "harness.ks_statistic.s": total("harness.ks_statistic"),
        "harness.report_write.s": total("harness.report_write"),
        "measure.self_s": self_time("measure"),
        "suite.run_suite.self_s": self_time("suite.run_suite"),
        "density.quadrature.s": total("density.quadrature"),
        "density.quadrature.calls": len(pick("density.quadrature")),
        "density.tabulate.s": total("density.tabulate"),
    }


LAYER_UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "ns_per_sample": "ns",
               "ns_per_draw": "ns", "ns_per_path_step": "ns", "result_bytes": "B",
               "output_bytes": "B", "first_try_ratio": "ratio"}


def per_layer(run: Run, seconds: float) -> dict:
    run.setup()
    imports = [run.import_times() for _ in range(IMPORT_REPS)]

    spans_path = run.tmp / "spans.json"
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []

    def pair():
        plain.append(run.command(run.workload.argv)[0].wall_s)
        usage, written = run.command(run.workload.argv, ("-B", str(TRACED), str(spans_path), "--"))
        traced.append(usage.wall_s)
        if usage.code in run.workload.ok_codes:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
            layers.append(layer_metrics(spans, written))

    run.closed_loop(seconds, pair)
    # every layer metric is reported, as 0 when no traced command succeeded
    values = {name: _median([m[name] for m in layers]) for name in layer_metrics([], 0)}
    values["import.ouht.s"] = _median([o for o, _ in imports])
    values["import.scipy.s"] = _median([s for _, s in imports])
    # each pair runs back to back, so its difference is spared the machine's drift
    values["trace.overhead_s"] = _median([t - u for u, t in zip(plain, traced)])
    print(f"traced commands: {len(traced)}, untraced: {len(plain)}")
    metrics = {}
    for name, value in values.items():
        unit = LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    return metrics


# --- machine facts ----------------------------------------------------------

def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
             "cpu_model": "unknown", "llc_bytes": None}
    for package in ("numpy", "scipy"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = "missing"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        level, size = max((int((d / "level").read_text()), (d / "size").read_text().strip())
                          for d in caches.glob("index*"))
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        facts["llc_bytes"] = int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    array_bytes = VERIFY_PATHS * 8
    facts["verify_array_bytes"] = array_bytes
    facts["verify_array_fits_llc"] = (
        facts["llc_bytes"] is not None and array_bytes <= facts["llc_bytes"])
    return facts


# --- entry point ------------------------------------------------------------

def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".benchmarks-tmp-", dir=ROOT) as tmp:
        run = Run(workload, seed, Path(tmp))
        print(f"workload {workload.name}: {workload.why}")
        metrics = (per_layer if trace else end_to_end)(run, seconds)
    ratio = run.failed / run.attempted
    print(f"fail_ratio: {ratio:.4f} ({run.failed} failed of {run.attempted} invocations)")
    for why in run.errors:
        print(f"failure: {why}")
    for note in sorted(run.tolerated):
        print(f"sampling rejection within its family-wise margin: {note}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # let the cleanup in invoke() stop the running command when we are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "ouht" / "__init__.py").is_file():
        print(f"error: no ouht sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
