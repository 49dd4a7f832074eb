"""Command-line interface.

Commands: simulate, verify, density, local-martingale.  Exit codes:
0 success, 1 I/O failure, 2 bad configuration, 3 verification failure.

Core parameters come from flags; an optional key=value defaults file
(--defaults) can fill in anything not given on the command line.  Every
output file starts with comment lines echoing the tool version and the
science configuration, and identical command line + seed reproduces output
files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .density import (
    density_identity_residual,
    killed_density_mass,
    killed_ou_density,
    radial_density,
    radial_density_mass,
    relative_identity_residual,
    survival_probability,
)
from .harness import aggregate
from .measure import (
    killed_euler,
    killed_exact,
    local_martingale_curve,
    radial_euler,
    radial_exact,
    terminal_draws,
)
from .process import ProcessParams
from .rng import BLOCK_SIZE
from .simulate import SchemeConfig
from .suite import SuiteConfig, run_suite

OK, IO_ERROR, CONFIG_ERROR, VERIFY_FAILED = 0, 1, 2, 3


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def _fmt(v: float) -> str:
    return f"{v:.17g}"


# --- defaults file ---------------------------------------------------------

def _read_defaults(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"defaults: cannot read {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"defaults: line {lineno} is not key=value: {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve(args, defaults: dict[str, str], key: str, cast, fallback=None, required=False):
    """Flag wins, then the defaults file, then the built-in fallback."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in defaults:
        try:
            return cast(defaults[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: bad value {defaults[key]!r} in defaults file") from exc
    if required and fallback is None:
        raise ConfigError(f"missing required parameter: {key}")
    return fallback


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _check_times(times) -> list[float]:
    if not times:
        raise ConfigError("missing required parameter: t")
    times = [float(t) for t in times]
    if any(not math.isfinite(t) or t <= 0 for t in times) or any(
        b <= a for a, b in zip(times, times[1:])
    ):
        raise ConfigError("t: times must be positive, finite and strictly ascending")
    return times


def _check_positive(name: str, value: float) -> float:
    if value is None or not math.isfinite(value) or value <= 0:
        raise ConfigError(f"{name}: must be finite and > 0, got {value}")
    return value


def _resolve_workers(args, defaults: dict[str, str]) -> int:
    workers = int(_resolve(args, defaults, "workers", int, fallback=os.cpu_count() or 1))
    if workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {workers}")
    return workers


def _make_params(gamma, a) -> ProcessParams:
    if gamma is None:
        raise ConfigError("missing required parameter: gamma")
    if a is None:
        raise ConfigError("missing required parameter: a")
    try:
        return ProcessParams(gamma=float(gamma), a=float(a))
    except ValueError as exc:
        field = "gamma" if "gamma" in str(exc) else "a"
        raise ConfigError(f"{field}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _config_echo(pairs: list[tuple[str, object]]) -> str:
    def show(v):
        if isinstance(v, float):
            return f"{v:g}"
        if isinstance(v, (list, tuple)):
            return ",".join(show(x) for x in v)
        return str(v)

    return " ".join(f"{k}={show(v)}" for k, v in pairs)


def _header(command: str, pairs: list[tuple[str, object]]) -> list[str]:
    return [
        f"# ouht {__version__}",
        f"# command: {command}",
        f"# config: {_config_echo(pairs)}",
    ]


# --- simulate --------------------------------------------------------------

_SIM_SAMPLERS = {
    ("ou-killed", "exact"): killed_exact,
    ("ou-killed", "euler"): killed_euler,
    ("radial", "exact"): radial_exact,
    ("radial", "euler"): radial_euler,
}


def _absorbed(values):
    """Killed paths sit at 0 once absorbed; radial values are > 0."""
    return values <= 0.0


def _write_simulate_csv(fh, pairs, times, values) -> None:
    """One t,path,value,absorbed row per path and time, BLOCK_SIZE rows per write."""
    fh.write("\n".join(_header("simulate", pairs)) + "\nt,path,value,absorbed\n")
    n_paths = values.shape[0]
    for j, t in enumerate(times):
        row = _fmt(t) + ",%d,%.17g,%d\n"
        for start in range(0, n_paths, BLOCK_SIZE):
            chunk = values[start:start + BLOCK_SIZE, j]
            fh.write("".join(
                row % r for r in zip(range(start, start + chunk.size), chunk.tolist(),
                                     _absorbed(chunk).tolist())
            ))


def cmd_simulate(args) -> int:
    defaults = _read_defaults(args.defaults)
    process = _resolve(args, defaults, "process", str, required=True)
    if process not in ("ou-killed", "radial"):
        raise ConfigError(f"process: must be ou-killed or radial, got {process!r}")
    scheme_name = _resolve(args, defaults, "scheme", str, fallback="exact")
    if scheme_name not in ("exact", "euler"):
        raise ConfigError(f"scheme: must be exact or euler, got {scheme_name!r}")
    params = _make_params(
        _resolve(args, defaults, "gamma", float, required=True),
        _resolve(args, defaults, "a", float, required=True),
    )
    times = _check_times(args.t or (_float_list(defaults["t"]) if "t" in defaults else None))
    n_paths = int(_resolve(args, defaults, "paths", int, fallback=100_000))
    if n_paths < 1:
        raise ConfigError(f"paths: must be >= 1, got {n_paths}")
    seed = int(_resolve(args, defaults, "seed", int, fallback=0))
    workers = _resolve_workers(args, defaults)
    fmt = _resolve(args, defaults, "format", str, fallback="csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {fmt!r}")
    out = _resolve(args, defaults, "out", str, fallback=f"ouht_simulate.{fmt}")

    scheme = None
    sampler = _SIM_SAMPLERS[process, scheme_name]
    if scheme_name == "euler":
        dt = _resolve(args, defaults, "dt", float, required=True)
        scheme = SchemeConfig(dt=_check_positive("dt", dt))
        sampler = partial(sampler, scheme=scheme)

    values = terminal_draws(sampler, params, times, n_paths, seed, workers)

    pairs = [
        ("process", process), ("scheme", scheme_name), ("gamma", params.gamma),
        ("a", params.a), ("t", times), ("paths", n_paths),
        ("dt", scheme.dt if scheme else "none"), ("seed", seed),
    ]

    summaries = []
    print(f"ouht simulate: process={process} scheme={scheme_name} "
          f"gamma={params.gamma:g} a={params.a:g} paths={n_paths} seed={seed}")
    for j, t in enumerate(times):
        col = values[:, j]
        est = aggregate(col, seed=seed)
        survival = float(1.0 - _absorbed(col).mean())
        summaries.append({"t": t, "n": n_paths, "mean": est.mean,
                          "stderr": est.stderr, "survival": survival})
        print(f"  t={t:g}: mean={est.mean:.6g} stderr={est.stderr:.3g} survival={survival:.6g}")

    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            if fmt == "csv":
                _write_simulate_csv(fh, pairs, times, values)
            else:
                body = {
                    "version": __version__,
                    "command": "simulate",
                    "config": dict(pairs, t=times),
                    "results": [
                        dict(s, values=values[:, j].tolist(),
                             absorbed=_absorbed(values[:, j]).astype(int).tolist())
                        for j, s in enumerate(summaries)
                    ],
                }
                json.dump(body, fh, sort_keys=True, indent=2)
                fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"wrote {out}")
    return OK


# --- verify ----------------------------------------------------------------

def cmd_verify(args) -> int:
    defaults = _read_defaults(args.defaults)
    params = _make_params(
        _resolve(args, defaults, "gamma", float, fallback=1.0),
        _resolve(args, defaults, "a", float, fallback=1.0),
    )
    times = _check_times(args.t or (_float_list(defaults["t"]) if "t" in defaults else [0.5, 1.0, 2.0]))
    n_paths = int(_resolve(args, defaults, "paths", int, fallback=100_000))
    dt = _check_positive("dt", _resolve(args, defaults, "dt", float, fallback=0.002))
    seed = int(_resolve(args, defaults, "seed", int, fallback=0))
    workers = _resolve_workers(args, defaults)
    out = _resolve(args, defaults, "out", str, fallback="verify_report")
    bias = args.inject_weight_bias or 0.0

    try:
        config = SuiteConfig(
            gamma=params.gamma, a=params.a, times=tuple(times), n_paths=n_paths,
            dt=dt, seed=seed, workers=workers, weight_bias=bias,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    report = run_suite(config)
    for c in report.checks:
        tag = c.status.upper()
        if c.status == "skipped":
            print(f"[{tag}] {c.check}: {c.reason}")
        else:
            print(f"[{tag}] {c.check}: value={c.value:.6g} target={c.target:.6g} "
                  f"gap={c.gap:.3g} (threshold {c.threshold:.3g})")
    print(f"summary: {report.n_pass} pass, {report.n_fail} fail, {report.n_skipped} skipped")

    try:
        _write_file(out + ".json", report.to_json())
        _write_file(out + ".csv", report.to_csv())
    except OSError as exc:
        print(f"error: cannot write report {out}.json/.csv: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"wrote {out}.json and {out}.csv")
    return OK if report.all_pass else VERIFY_FAILED


# --- density ---------------------------------------------------------------

def cmd_density(args) -> int:
    defaults = _read_defaults(args.defaults)
    params = _make_params(
        _resolve(args, defaults, "gamma", float, required=True),
        _resolve(args, defaults, "a", float, required=True),
    )
    t_values = args.t or (_float_list(defaults["t"]) if "t" in defaults else None)
    if not t_values:
        raise ConfigError("missing required parameter: t")
    if len(t_values) != 1:
        raise ConfigError("t: density tabulation takes exactly one time")
    t = _check_positive("t", t_values[0])
    x_min = _resolve(args, defaults, "x-min", float, required=True)
    x_max = _resolve(args, defaults, "x-max", float, required=True)
    points = int(_resolve(args, defaults, "x-points", int, fallback=500))
    spacing = _resolve(args, defaults, "x-scale", str, fallback="log")
    if not (math.isfinite(x_min) and x_min > 0):
        raise ConfigError(f"x-min: must be > 0, got {x_min}")
    if not (math.isfinite(x_max) and x_max > x_min):
        raise ConfigError(f"x-max: must be > x-min, got {x_max}")
    if points < 2:
        raise ConfigError(f"x-points: must be >= 2, got {points}")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"x-scale: must be linear or log, got {spacing!r}")
    fmt = _resolve(args, defaults, "format", str, fallback="csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {fmt!r}")
    out = _resolve(args, defaults, "out", str, fallback=f"ouht_density.{fmt}")
    _resolve_workers(args, defaults)  # tabulation runs in-process; still reject bad values

    xs = (np.geomspace if spacing == "log" else np.linspace)(x_min, x_max, points)
    killed = killed_ou_density(params, t, xs)
    radial = radial_density(params, t, xs)
    residual = density_identity_residual(params, t, xs)
    residual_rel = relative_identity_residual(params, t, xs)
    mass_killed = killed_density_mass(params, t)
    mass_radial = radial_density_mass(params, t)
    surv = survival_probability(params, t)

    pairs = [("gamma", params.gamma), ("a", params.a), ("t", t),
             ("x-min", x_min), ("x-max", x_max), ("x-points", points),
             ("x-scale", spacing)]
    print(f"ouht density: gamma={params.gamma:g} a={params.a:g} t={t:g}")
    print(f"  killed mass = {mass_killed:.10g} (survival = {surv:.10g})")
    print(f"  radial mass = {mass_radial:.10g} (target 1)")
    print(f"  max relative identity residual = {residual_rel.max():.3g}")

    try:
        if fmt == "csv":
            lines = _header("density", pairs)
            lines.append("x,killed_ou_density,radial_density,identity_residual,identity_residual_rel")
            for i in range(points):
                lines.append(
                    f"{_fmt(xs[i])},{_fmt(killed[i])},{_fmt(radial[i])},"
                    f"{_fmt(residual[i])},{_fmt(residual_rel[i])}"
                )
            lines.append(f"# integral_killed={_fmt(mass_killed)} survival={_fmt(surv)}")
            lines.append(f"# integral_radial={_fmt(mass_radial)} target=1")
            _write_file(out, "\n".join(lines) + "\n")
        else:
            body = {
                "version": __version__, "command": "density",
                "config": dict(pairs),
                "x": xs.tolist(),
                "killed_ou_density": killed.tolist(),
                "radial_density": radial.tolist(),
                "identity_residual": residual.tolist(),
                "identity_residual_rel": residual_rel.tolist(),
                "integral_killed": mass_killed,
                "survival": surv,
                "integral_radial": mass_radial,
            }
            _write_file(out, json.dumps(body, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"wrote {out}")
    return OK


# --- local-martingale ------------------------------------------------------

def cmd_local_martingale(args) -> int:
    defaults = _read_defaults(args.defaults)
    params = _make_params(
        _resolve(args, defaults, "gamma", float, fallback=1.0),
        _resolve(args, defaults, "a", float, fallback=1.0),
    )
    times = _check_times(args.t or (_float_list(defaults["t"]) if "t" in defaults else [0.25, 0.5, 1.0, 2.0, 4.0]))
    n_paths = int(_resolve(args, defaults, "paths", int, fallback=100_000))
    seed = int(_resolve(args, defaults, "seed", int, fallback=0))
    workers = _resolve_workers(args, defaults)
    out = _resolve(args, defaults, "out", str, fallback="ouht_local_martingale.csv")

    curve = local_martingale_curve(params, times, n_paths, seed, workers)
    pairs = [("gamma", params.gamma), ("a", params.a), ("t", times),
             ("paths", n_paths), ("seed", seed)]
    print(f"ouht local-martingale: gamma={params.gamma:g} a={params.a:g} (limit at 0+ is 1/a = {1/params.a:g})")
    lines = _header("local-martingale", pairs)
    lines.append("t,estimate,stderr,closed_form")
    for pt in curve:
        print(f"  t={pt.t:g}: mc={pt.estimate.mean:.6g} "
              f"(stderr {pt.estimate.stderr:.2g}) closed={pt.closed_form:.6g}")
        lines.append(
            f"{_fmt(pt.t)},{_fmt(pt.estimate.mean)},{_fmt(pt.estimate.stderr)},{_fmt(pt.closed_form)}"
        )
    try:
        _write_file(out, "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"wrote {out}")
    return OK


# --- parser ----------------------------------------------------------------

def _add_common(sp, *, gamma_a=True):
    sp.add_argument("--defaults", help="key=value file with fallback parameters")
    if gamma_a:
        sp.add_argument("--gamma", type=float, help="mean-reversion rate (any sign)")
        sp.add_argument("--a", type=float, help="starting point (> 0)")
    sp.add_argument("--seed", type=int, help="master seed (default 0)")
    sp.add_argument("--workers", type=int, help="worker processes (default: CPU count)")
    sp.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ouht",
        description="Ornstein-Uhlenbeck / radial OU simulation and identity verification",
    )
    parser.add_argument("--version", action="version", version=f"ouht {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="sample terminal values of a process")
    _add_common(sp)
    sp.add_argument("--process", choices=["ou-killed", "radial"],
                    help="which law to sample")
    sp.add_argument("--scheme", choices=["exact", "euler"],
                    help="exact transition sampling or Euler-Maruyama (default exact)")
    sp.add_argument("--t", type=float, action="append",
                    help="observation time (repeatable, ascending)")
    sp.add_argument("--paths", type=int, help="number of paths (default 100000)")
    sp.add_argument("--dt", type=float, help="Euler step size (required for --scheme euler)")
    sp.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run the full identity-verification suite")
    _add_common(sp)
    sp.add_argument("--t", type=float, action="append",
                    help="check times (repeatable; default 0.5 1 2)")
    sp.add_argument("--paths", type=int, help="paths per estimator (default 100000)")
    sp.add_argument("--dt", type=float, help="Euler step for scheme checks (default 0.002)")
    sp.add_argument("--inject-weight-bias", type=float, help=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("density", help="tabulate closed-form densities on an x grid")
    _add_common(sp)
    sp.add_argument("--t", type=float, action="append", help="time of the marginal (one value)")
    sp.add_argument("--x-min", type=float, help="grid lower end (> 0)")
    sp.add_argument("--x-max", type=float, help="grid upper end")
    sp.add_argument("--x-points", type=int, help="grid size (default 500)")
    sp.add_argument("--x-scale", choices=["linear", "log"], help="grid spacing (default log)")
    sp.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("local-martingale",
                        help="tabulate m(t) = E_Q[(1/X_t) e^{-gamma t}] with its closed form")
    _add_common(sp)
    sp.add_argument("--t", type=float, action="append",
                    help="curve times (repeatable; default 0.25 0.5 1 2 4)")
    sp.add_argument("--paths", type=int, help="paths per point (default 100000)")
    sp.set_defaults(func=cmd_local_martingale)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
