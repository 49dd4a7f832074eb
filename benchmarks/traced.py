"""Run one ouht CLI command in-process, with its layers wrapped in timing spans.

    python3 -B benchmarks/traced.py SPANS.json -- verify --paths 1000000 ...

The public functions of each layer are wrapped here, from outside the
package, and every module namespace that imported one by name is rebound to
the wrapper, so calls made through ``ouht.suite.aggregate`` and
``ouht.measure.aggregate`` are both seen.  Each call records a span (name,
start, end, parent) and, for some layers, work counts.  Spans are kept in
memory and written to SPANS.json after ``ouht.cli.main`` returns; the exit
code is the command's own.

Spans recorded in forked pool workers stay in those workers and are lost, so
a run with ``--workers`` > 1 sees only the parent side of ``map_blocks``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

import ouht.cli
import ouht.density
import ouht.harness
import ouht.measure
import ouht.process
import ouht.rng
import ouht.simulate
import ouht.suite


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` with a span named ``name`` around every call.

        ``count(args, kwargs, result)`` returns the call's work counts; it
        runs after the span has ended.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x) for x in obj)
    return 0


def _map_blocks_counts(args, kwargs, result):
    return {"tasks": len(result), "result_bytes": _nbytes(result)}


def _draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _killed_counts(args, kwargs, result):
    n_paths, n_times = result.values.shape
    return {"path_steps": n_paths * (n_times - 1)}


def _euler_radial_counts(args, kwargs, result):
    scheme = kwargs["scheme"] if "scheme" in kwargs else args[2]
    # a path-substep is one Euler step of length at most dt between grid times
    substeps = sum(
        max(1, math.ceil(delta / scheme.dt - 1e-12)) for delta in np.diff(result.grid.times)
    )
    return {
        "path_substeps": result.n_paths * substeps,
        "retries": result.retry_count,
        "clamps": result.clamp_count,
    }


def _aggregate_counts(args, kwargs, result):
    return {"samples": result.n}


# (span name, module, public functions, counter)
LAYERS = [
    ("harness.aggregate", ouht.harness, ["aggregate"], _aggregate_counts),
    ("harness.ks_statistic", ouht.harness, ["ks_statistic"], None),
    ("rng.map_blocks", ouht.rng, ["map_blocks"], _map_blocks_counts),
    ("process.sample_radial_exact", ouht.process, ["sample_radial_exact"], _draws),
    ("process.sample_ou_exact", ouht.process, ["sample_ou_exact"], _draws),
    ("simulate.simulate_killed_ou_exact", ouht.simulate, ["simulate_killed_ou_exact"],
     _killed_counts),
    ("simulate.euler_radial", ouht.simulate, ["euler_radial"], _euler_radial_counts),
    ("cli.command", ouht.cli,
     ["cmd_simulate", "cmd_verify", "cmd_density", "cmd_local_martingale"], None),
    ("suite.run_suite", ouht.suite, ["run_suite"], None),
    ("measure", ouht.measure,
     ["estimate_killed_expectation_via_Q", "estimate_killed_expectation_direct",
      "estimate_Q_expectation_via_P", "estimate_radial_expectation_direct",
      "conditional_identity_detail", "conditional_identity_gap", "local_martingale_curve"],
     None),
    ("density.quadrature", ouht.density,
     ["killed_density_mass", "radial_density_mass", "killed_expectation_quadrature"], None),
    ("density.tabulate", ouht.density,
     ["relative_identity_residual", "density_identity_residual"], None),
]


def _rebind(original, replacement) -> None:
    """Point every ouht module attribute that is ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name == "ouht" or name.startswith("ouht."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    for span_name, module, functions, count in LAYERS:
        for fn_name in functions:
            original = getattr(module, fn_name)
            _rebind(original, tracer.wrap(span_name, original, count))
    report = ouht.harness.ExperimentReport
    for method in ("to_json", "to_csv"):
        setattr(report, method, tracer.wrap("harness.report_write", getattr(report, method)))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <ouht arguments>", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    code = ouht.cli.main(cli_argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
