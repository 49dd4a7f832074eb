"""Command-line interface.

Commands: simulate, verify, density, local-martingale.  Exit codes:
0 success, 1 I/O failure, 2 bad configuration, 3 verification failure.

Every option of every command is declared once, in ``_COMMANDS``: its flag,
its fallback, its help text and its check.  A value comes from the flag,
else from the key=value defaults file (--defaults, keys named as the flags),
else from the fallback, and is checked as it is resolved.  Every output file
starts with comment lines echoing the tool version and the science
configuration, and identical command line + seed reproduces output files
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .density import (density_identity_residual, killed_density_mass, killed_ou_density,
                      radial_density, radial_density_mass, relative_identity_residual,
                      survival_probability)
from .harness import aggregate
from .measure import (Draw, killed_euler, killed_exact, local_martingale_curve, radial_euler,
                      radial_exact, run_draws)
from .process import ProcessParams
from .simulate import SchemeConfig, check_times
from .suite import SuiteConfig, run_suite

OK, IO_ERROR, CONFIG_ERROR, VERIFY_FAILED = 0, 1, 2, 3

# simulate formats its output this many CSV rows (or JSON array items) per
# write, so the text in memory is a few hundred kB.  Unrelated to BLOCK_SIZE,
# which fixes the random streams: any value gives the same bytes.
WRITE_CHUNK = 4096


class ConfigError(Exception):
    """Invalid configuration; the message is complete and names the field."""


def _fmt(v: float) -> str:
    return f"{v:.17g}"


# --- checks ----------------------------------------------------------------
# check(value, resolved) returns the value or raises a ValueError, which
# _resolve prefixes with the option's key; `resolved` holds the options
# resolved before this one.

def _at_least(low: int):
    def check(value, resolved):
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return check


def _above(low_key: str | None):
    """value > the option low_key, resolved before it; > 0 for None."""
    def check(value, resolved):
        if not (math.isfinite(value) and value > (resolved[low_key] if low_key else 0.0)):
            raise ValueError(f"must be > {low_key or 0}, got {value}")
        return value

    return check


def _one_time(times, resolved):
    if len(times) != 1:
        raise ValueError("density tabulation takes exactly one time")
    return check_times(times)[0]


def _dt(dt, resolved):
    """An Euler step, checked by the SchemeConfig that carries it."""
    return SchemeConfig(dt).dt


def _euler_dt(dt, resolved):
    """simulate's dt is needed, and checked, for the Euler scheme only."""
    if resolved["scheme"] != "euler":
        return None
    if dt is None:
        raise ConfigError("missing required parameter: dt")
    return _dt(dt, resolved)


# --- the option table ------------------------------------------------------

_REQUIRED = object()


class _Opt(NamedTuple):
    """kind: float, int, str, a tuple of choices, or list (a repeatable float
    flag; comma- or space-separated in the defaults file).  A str fallback
    may name options resolved before it, as in "ouht_simulate.{format}"."""

    kind: object
    fallback: object
    help: str
    check: Callable | None = None


# a is resolved after gamma, so gamma is checked with a valid a in its place
_GAMMA = _Opt(float, _REQUIRED, "mean-reversion rate (any sign)",
              lambda gamma, _: ProcessParams(gamma, 1.0).gamma)
_A = _Opt(float, _REQUIRED, "starting point (> 0)",
          lambda a, resolved: ProcessParams(resolved["gamma"], a).a)
_check_t = lambda times, _: check_times(times)
_SEED = _Opt(int, 0, "master seed (default 0)", _at_least(0))
_WORKERS = _Opt(int, os.cpu_count() or 1, "worker processes (default: CPU count)", _at_least(1))
_FORMAT = _Opt(("csv", "json"), "csv", "output format (default csv)")

# command -> (help, options in resolution order)
_COMMANDS = {
    "simulate": ("sample terminal values of a process", {
        "process": _Opt(("ou-killed", "radial"), _REQUIRED, "which law to sample"),
        "scheme": _Opt(("exact", "euler"), "exact",
                       "exact transition sampling or Euler-Maruyama (default exact)"),
        "gamma": _GAMMA, "a": _A,
        "t": _Opt(list, _REQUIRED, "observation time (repeatable, ascending)", _check_t),
        "paths": _Opt(int, 100_000, "number of paths (default 100000)", _at_least(2)),
        "seed": _SEED, "workers": _WORKERS,
        "dt": _Opt(float, None, "Euler step size (required for --scheme euler)", _euler_dt),
        "format": _FORMAT,
        "out": _Opt(str, "ouht_simulate.{format}", "output path"),
    }),
    "verify": ("run the full identity-verification suite", {
        "gamma": _GAMMA._replace(fallback=1.0), "a": _A._replace(fallback=1.0),
        "t": _Opt(list, [0.5, 1.0, 2.0], "check times (repeatable; default 0.5 1 2)", _check_t),
        "paths": _Opt(int, 100_000, "paths per estimator (default 100000)", _at_least(1)),
        "dt": _Opt(float, 0.002, "Euler step for scheme checks (default 0.002)", _dt),
        "seed": _SEED, "workers": _WORKERS,
        "out": _Opt(str, "verify_report", "output path"),
    }),
    "density": ("tabulate closed-form densities on an x grid", {
        "gamma": _GAMMA, "a": _A,
        "t": _Opt(list, _REQUIRED, "time of the marginal (one value)", _one_time),
        "x-min": _Opt(float, _REQUIRED, "grid lower end (> 0)", _above(None)),
        "x-max": _Opt(float, _REQUIRED, "grid upper end", _above("x-min")),
        "x-points": _Opt(int, 500, "grid size (default 500)", _at_least(2)),
        "x-scale": _Opt(("linear", "log"), "log", "grid spacing (default log)"),
        "format": _FORMAT,
        "out": _Opt(str, "ouht_density.{format}", "output path"),
        # tabulation is in-process and draws nothing; bad values are still rejected
        "workers": _WORKERS, "seed": _SEED,
    }),
    "local-martingale": ("tabulate m(t) = E_Q[(1/X_t) e^{-gamma t}] with its closed form", {
        "gamma": _GAMMA._replace(fallback=1.0), "a": _A._replace(fallback=1.0),
        "t": _Opt(list, [0.25, 0.5, 1.0, 2.0, 4.0],
                  "curve times (repeatable; default 0.25 0.5 1 2 4)", _check_t),
        "paths": _Opt(int, 100_000, "paths per point (default 100000)", _at_least(2)),
        "seed": _SEED, "workers": _WORKERS,
        "out": _Opt(str, "ouht_local_martingale.csv", "output path"),
    }),
}

# flags every command has; each command's usage and help list them first, in this order
_SHARED = ("gamma", "a", "seed", "workers", "out")


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


def _cast(kind, text: str):
    if kind is list:
        return [float(tok) for tok in text.replace(",", " ").split()]
    return text if isinstance(kind, tuple) else kind(text)


def _resolve(args) -> dict:
    """Every option of args.command: the flag wins, then the defaults file,
    then the fallback; each value is checked as it is resolved."""
    defaults = _read_defaults(args.defaults)
    resolved: dict = {}
    for key, opt in _COMMANDS[args.command][1].items():
        value = getattr(args, key.replace("-", "_"))
        if value is None and key in defaults:
            try:
                value = _cast(opt.kind, defaults[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: bad value {defaults[key]!r} in defaults file") from exc
            if value == []:  # "t =" lists no time
                raise ConfigError(f"missing required parameter: {key}")
        if value is None:
            if opt.fallback is _REQUIRED:
                raise ConfigError(f"missing required parameter: {key}")
            value = opt.fallback
            if isinstance(value, str):
                value = value.format_map(resolved)
        if isinstance(opt.kind, tuple) and value not in opt.kind:
            raise ConfigError(f"{key}: must be {' or '.join(opt.kind)}, got {value!r}")
        try:
            resolved[key] = opt.check(value, resolved) if opt.check else value
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return resolved


# --- output ----------------------------------------------------------------

def _write(files: dict, name: str | None = None) -> int:
    """Write each {path: write(fh)} file in turn and print `wrote ...`.

    On OSError print `cannot write <name>` (the failing path by default) and
    return IO_ERROR."""
    try:
        for path, write in files.items():
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                write(fh)
    except OSError as exc:
        print(f"error: cannot write {name or path}: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"wrote {' and '.join(files)}")
    return OK


def _header(command: str, pairs: list[tuple[str, object]]) -> list[str]:
    def show(v):
        if isinstance(v, float):
            return f"{v:g}"
        if isinstance(v, (list, tuple)):
            return ",".join(show(x) for x in v)
        return str(v)

    config = " ".join(f"{k}={show(v)}" for k, v in pairs)
    return [f"# ouht {__version__}", f"# command: {command}", f"# config: {config}"]


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
    """One t,path,value,absorbed row per path and time, WRITE_CHUNK rows per
    write; values is time-major, one row per time."""
    fh.write("\n".join(_header("simulate", pairs)) + "\nt,path,value,absorbed\n")
    for t, at_t in zip(times, values):
        row = _fmt(t) + ",%d,%.17g,%d\n"
        for start in range(0, at_t.size, WRITE_CHUNK):
            chunk = at_t[start:start + WRITE_CHUNK]
            fh.write("".join(
                row % r for r in zip(range(start, start + chunk.size), chunk.tolist(),
                                     _absorbed(chunk).tolist())
            ))


def _write_simulate_json(fh, pairs, times, summaries, values) -> None:
    """The layout of json.dump(sort_keys=True, indent=2), with each values and
    absorbed array written WRITE_CHUNK items at a time."""
    slot = "\0"  # stands in for each array; sorted keys put absorbed before values
    body = {"version": __version__, "command": "simulate", "config": dict(pairs, t=times),
            "results": [dict(s, absorbed=slot, values=slot) for s in summaries]}
    pieces = json.dumps(body, sort_keys=True, indent=2).split(json.dumps(slot))
    fh.write(pieces[0])
    sep = ",\n" + 8 * " "
    for k, piece in enumerate(pieces[1:]):
        at_t = values[k // 2]
        fh.write("[\n" + 8 * " ")
        for start in range(0, at_t.size, WRITE_CHUNK):
            chunk = at_t[start:start + WRITE_CHUNK]
            if k % 2 == 0:
                chunk = _absorbed(chunk).astype(np.int8)
            fh.write((sep if start else "") + json.dumps(chunk.tolist())[1:-1].replace(", ", sep))
        fh.write("\n" + 6 * " " + "]" + piece)
    fh.write("\n")


def cmd_simulate(args) -> int:
    cfg = _resolve(args)
    params = ProcessParams(gamma=cfg["gamma"], a=cfg["a"])
    process, scheme, times = cfg["process"], cfg["scheme"], cfg["t"]
    n_paths, seed, dt = cfg["paths"], cfg["seed"], cfg["dt"]

    sampler = _SIM_SAMPLERS[process, scheme]
    if dt is not None:
        sampler = partial(sampler, scheme=SchemeConfig(dt=dt))
    values = run_draws(params, {0: Draw(sampler, tuple(times), n_paths, seed)}, cfg["workers"])[0]

    pairs = [("process", process), ("scheme", scheme), ("gamma", params.gamma), ("a", params.a),
             ("t", times), ("paths", n_paths), ("dt", "none" if dt is None else dt), ("seed", seed)]

    summaries = []
    print(f"ouht simulate: process={process} scheme={scheme} "
          f"gamma={params.gamma:g} a={params.a:g} paths={n_paths} seed={seed}")
    for t, at_t in zip(times, values):
        est = aggregate(at_t, seed=seed)
        survival = float(1.0 - _absorbed(at_t).mean())
        summaries.append({"t": t, "n": n_paths, "mean": est.mean,
                          "stderr": est.stderr, "survival": survival})
        print(f"  t={t:g}: mean={est.mean:.6g} stderr={est.stderr:.3g} survival={survival:.6g}")

    if cfg["format"] == "csv":
        return _write({cfg["out"]: lambda fh: _write_simulate_csv(fh, pairs, times, values)})
    return _write({cfg["out"]: lambda fh: _write_simulate_json(fh, pairs, times, summaries, values)})


# --- verify ----------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _resolve(args)
    report = run_suite(SuiteConfig(
        gamma=cfg["gamma"], a=cfg["a"], times=tuple(cfg["t"]), n_paths=cfg["paths"],
        dt=cfg["dt"], seed=cfg["seed"], workers=cfg["workers"],
        weight_bias=args.inject_weight_bias or 0.0,
    ))
    for c in report.checks:
        tag = c.status.upper()
        if c.status == "skipped":
            print(f"[{tag}] {c.check}: {c.reason}")
        else:
            print(f"[{tag}] {c.check}: value={c.value:.6g} target={c.target:.6g} "
                  f"gap={c.gap:.3g} (threshold {c.threshold:.3g})")
    print(f"summary: {report.n_pass} pass, {report.n_fail} fail, {report.n_skipped} skipped")

    out = cfg["out"]
    code = _write({f"{out}.json": lambda fh: fh.write(report.to_json()),
                   f"{out}.csv": lambda fh: fh.write(report.to_csv())},
                  name=f"report {out}.json/.csv")
    return code or (OK if report.all_pass else VERIFY_FAILED)


# --- density ---------------------------------------------------------------

def cmd_density(args) -> int:
    cfg = _resolve(args)
    params = ProcessParams(gamma=cfg["gamma"], a=cfg["a"])
    t, points, spacing = cfg["t"], cfg["x-points"], cfg["x-scale"]

    xs = (np.geomspace if spacing == "log" else np.linspace)(cfg["x-min"], cfg["x-max"], points)
    killed = killed_ou_density(params, t, xs)
    radial = radial_density(params, t, xs)
    residual = density_identity_residual(params, t, xs)
    residual_rel = relative_identity_residual(params, t, xs)
    mass_killed = killed_density_mass(params, t)
    mass_radial = radial_density_mass(params, t)
    surv = survival_probability(params, t)

    pairs = [("gamma", params.gamma), ("a", params.a), ("t", t),
             ("x-min", cfg["x-min"]), ("x-max", cfg["x-max"]), ("x-points", points),
             ("x-scale", spacing)]
    print(f"ouht density: gamma={params.gamma:g} a={params.a:g} t={t:g}")
    print(f"  killed mass = {mass_killed:.10g} (survival = {surv:.10g})")
    print(f"  radial mass = {mass_radial:.10g} (target 1)")
    print(f"  max relative identity residual = {residual_rel.max():.3g}")

    if cfg["format"] == "csv":
        lines = [*_header("density", pairs),
                 "x,killed_ou_density,radial_density,identity_residual,identity_residual_rel",
                 *(",".join(map(_fmt, row)) for row in zip(xs, killed, radial, residual, residual_rel)),
                 f"# integral_killed={_fmt(mass_killed)} survival={_fmt(surv)}",
                 f"# integral_radial={_fmt(mass_radial)} target=1"]
        text = "\n".join(lines) + "\n"
    else:
        body = {"version": __version__, "command": "density", "config": dict(pairs),
                "x": xs.tolist(), "killed_ou_density": killed.tolist(),
                "radial_density": radial.tolist(), "identity_residual": residual.tolist(),
                "identity_residual_rel": residual_rel.tolist(), "integral_killed": mass_killed,
                "survival": surv, "integral_radial": mass_radial}
        text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    return _write({cfg["out"]: lambda fh: fh.write(text)})


# --- local-martingale ------------------------------------------------------

def cmd_local_martingale(args) -> int:
    cfg = _resolve(args)
    params = ProcessParams(gamma=cfg["gamma"], a=cfg["a"])
    times, n_paths, seed = cfg["t"], cfg["paths"], cfg["seed"]

    curve = local_martingale_curve(params, times, n_paths, seed, cfg["workers"])
    pairs = [("gamma", params.gamma), ("a", params.a), ("t", times),
             ("paths", n_paths), ("seed", seed)]
    print(f"ouht local-martingale: gamma={params.gamma:g} a={params.a:g} (limit at 0+ is 1/a = {1/params.a:g})")
    lines = [*_header("local-martingale", pairs), "t,estimate,stderr,closed_form"]
    for pt in curve:
        print(f"  t={pt.t:g}: mc={pt.estimate.mean:.6g} "
              f"(stderr {pt.estimate.stderr:.2g}) closed={pt.closed_form:.6g}")
        lines.append(",".join(map(_fmt, (pt.t, pt.estimate.mean, pt.estimate.stderr, pt.closed_form))))
    text = "\n".join(lines) + "\n"
    return _write({cfg["out"]: lambda fh: fh.write(text)})


# --- parser ----------------------------------------------------------------

def _flag(kind) -> dict:
    if kind is list:
        return {"type": float, "action": "append"}
    if isinstance(kind, tuple):
        return {"choices": kind}
    return {"type": kind}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ouht",
        description="Ornstein-Uhlenbeck / radial OU simulation and identity verification",
    )
    parser.add_argument("--version", action="version", version=f"ouht {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--defaults", help="key=value file with fallback parameters")
        for key in sorted(options, key=lambda k: _SHARED.index(k) if k in _SHARED else len(_SHARED)):
            sp.add_argument(f"--{key}", help=options[key].help, **_flag(options[key].kind))
        if name == "verify":  # a hidden negative control: flag only, never a defaults key
            sp.add_argument("--inject-weight-bias", type=float, help=argparse.SUPPRESS)
        # looked up when the parser is built, so a wrapper rebound over cmd_* is the one run
        sp.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
