"""Per-layer metrics from an in-process replay, traced from outside the package.

The replay calls `thermocode.cli.main` once per job with stdout and stderr
captured: once to warm up, then three times untraced alternating with three
times traced.  Tracing wraps the public functions each subcommand calls,
where the calling module looks them up (`cli`, and `equilibrium`/`gibbs` for
the functions they call themselves).  Each wrapper
records a span; a layer's self time is its span minus the wrapped calls
inside it, so `cli.self_s` is what `main` spends outside every wrapped call
(argument parsing, big-int `str`, `_windowed`, `_series_temperature`, CSV
formatting).  `rootfind.solve_decreasing` time includes the objective
evaluations it makes.  Counters are taken after a span closes and are not
charged to any layer.  Layer metrics come from the last traced replay; the
replay times are medians.  A layer the workload never calls reads 0.

Nothing under `src/` is changed; the wrappers are removed after the replay.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# Every per-layer metric and its unit.
UNITS = {
    "microcanonical.count_messages.s": "s",
    "microcanonical.count_messages.calls": "count",
    "microcanonical.count_messages.cells": "count",
    "microcanonical.count_messages.result_bits": "bit",
    "microcanonical.count_messages.exp_N": "1",
    "microcanonical.count_messages.exp_span": "1",
    "microcanonical.count_messages_log.s": "s",
    "microcanonical.count_messages_log.cells": "count",
    "microcanonical.count_messages_log.exp_N": "1",
    "microcanonical.count_messages_log.exp_span": "1",
    "microcanonical.iter_log_tables.exp_N": "1",
    "microcanonical.iter_log_tables.exp_span": "1",
    "microcanonical.sample_messages.s": "s",
    "microcanonical.sample_messages.draws": "count",
    "microcanonical.temperature_at.s": "s",
    "microcanonical.most_probable_length.s": "s",
    "dimension.prefix_counts.s": "s",
    "dimension.prefix_counts.steps": "count",
    "dimension.prefix_counts.exp_N": "1",
    "dimension.prefix_counts.exp_span": "1",
    "dimension.dimension_curve.s": "s",
    "dimension.dimension_curve.points": "count",
    "gibbs.gibbs_state.s": "s",
    "gibbs.beta_for_mean_length.s": "s",
    "gibbs.beta_for_mean_length.calls": "count",
    "equilibrium.solve_equilibrium.s": "s",
    "equilibrium.allocation_table.s": "s",
    "equilibrium.allocation_table.rows": "count",
    "rootfind.solve_decreasing.s": "s",
    "rootfind.solve_decreasing.calls": "count",
    "rootfind.solve_decreasing.f_evals": "count",
    "rootfind.solve_decreasing.max_residual": "bit",
    "codes.parse_code.s": "s",
    "codes.random_complete_code.s": "s",
    "codes.dump_code.s": "s",
    "cli.self_s": "s",
    "startup.python_s": "s",
    "startup.numpy_import_s": "s",
    "startup.thermocode_import_s": "s",
    "replay.untraced_s": "s",
    "replay.traced_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans around wrapped calls, summed into per-layer self times."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(int)
        self._inner = [0.0]  # wrapped time inside each open span

    def wrap(self, layer: str, fn, count=None):
        def traced(*args, **kwargs):
            self._inner.append(0.0)
            t0 = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                self.stats[f"{layer}.s"] += time.perf_counter() - t0 - self._inner.pop()
                if done and count is not None:
                    count(self.stats, args, result)
                self._inner[-1] += time.perf_counter() - t0
            return result

        return traced

    def counted_solver(self, solve):
        """solve_decreasing with its f and df evaluations counted and the
        final residual |f(x) - target| read from the evaluations it made."""
        stats = self.stats
        key = "rootfind.solve_decreasing"

        def solver(f, target, df=None, **kwargs):
            seen = {}

            def f_counted(x):
                stats[f"{key}.f_evals"] += 1
                seen[x] = y = f(x)
                return y

            def df_counted(x):
                stats[f"{key}.f_evals"] += 1
                return df(x)

            x = solve(f_counted, target, df=df_counted if df is not None else None, **kwargs)
            stats[f"{key}.calls"] += 1
            if x in seen:
                residual = abs(seen[x] - target)
                stats[f"{key}.max_residual"] = max(stats[f"{key}.max_residual"], residual)
            return x

        return solver


def _add(stats, key, value):
    stats[key] += value


def _layers():
    """(defining module, function name, counter, modules that call it) for
    every wrapped function.  A counter runs only after a call that returned."""
    from thermocode import cli, codes, dimension, equilibrium, gibbs, microcanonical, rootfind

    mc, dim, eq = "microcanonical", "dimension", "equilibrium"

    def cells(stats, args, table):
        spectrum, n = args[0], args[1]
        _add(stats, f"{mc}.count_messages.calls", 1)
        _add(stats, f"{mc}.count_messages.cells", n * (spectrum.l_max - spectrum.l_min) + 1)
        _add(stats, f"{mc}.count_messages.result_bits", sum(c.bit_length() for _, c in table.items()))

    return [
        (codes, "parse_code", None, [cli]),
        (codes, "random_complete_code", None, [cli]),
        (codes, "dump_code", None, [cli]),
        (microcanonical, "count_messages", cells, [cli, equilibrium]),
        (microcanonical, "count_messages_log",
         lambda s, a, r: _add(s, f"{mc}.count_messages_log.cells", len(r.log2_array())), [cli]),
        (microcanonical, "sample_messages", lambda s, a, r: _add(s, f"{mc}.sample_messages.draws", r.draws), [cli]),
        (microcanonical, "temperature_at", None, [cli]),
        (microcanonical, "most_probable_length", None, [cli]),
        (dimension, "prefix_counts", lambda s, a, r: _add(s, f"{dim}.prefix_counts.steps", r.n_max), [cli]),
        (dimension, "dimension_curve", lambda s, a, r: _add(s, f"{dim}.dimension_curve.points", len(r)), [cli]),
        (gibbs, "gibbs_state", None, [cli]),
        (gibbs, "beta_for_mean_length", lambda s, a, r: _add(s, "gibbs.beta_for_mean_length.calls", 1), [cli]),
        (equilibrium, "solve_equilibrium", None, [cli]),
        (equilibrium, "allocation_table", lambda s, a, r: _add(s, f"{eq}.allocation_table.rows", len(r)), [cli, equilibrium]),
        (rootfind, "solve_decreasing", None, [gibbs, equilibrium]),
    ]


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Install the wrappers in the calling modules; restore them on exit."""
    saved = []
    try:
        for module, name, count, callers in _layers():
            fn = getattr(module, name)
            if name == "solve_decreasing":
                fn = tracer.counted_solver(fn)
            layer = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            wrapped = tracer.wrap(layer, fn, count)
            for caller in callers:
                saved.append((caller, name, getattr(caller, name)))
                setattr(caller, name, wrapped)
        yield
    finally:
        for caller, name, original in reversed(saved):
            setattr(caller, name, original)


def replay(main, argvs) -> tuple[float, list]:
    """Run main(argv) for each argv with output captured: (seconds, [(rc, out, err)])."""
    results = []
    t0 = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # a crash is a failed job; the replay goes on
            rc, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        results.append((rc, out.getvalue().encode(), err.getvalue().encode()))
    return time.perf_counter() - t0, results


def _time(fn) -> float:
    """Seconds for fn(); the fastest of five when one call is under 50 ms."""
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
        if runs[0] >= 0.05:
            break
    return min(runs)


def _slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def scaling(spectra: dict, docs: dict, smoke: bool) -> dict[str, float]:
    """Log-log exponents of the counting layers in N (on canon) and in span
    (canon, g16, g64 at fixed N): a change in asymptotic cost shows here."""
    from thermocode import LengthSpectrum, count_messages, count_messages_log, iter_log_tables, parse_code, prefix_counts

    sp = {name: LengthSpectrum(spec) for name, spec in spectra.items()}
    code = {name: parse_code(Path(path).read_text())[0] for name, path in docs.items()}
    order = ("canon", "g16", "g64")
    spans = [sp[c].l_max - sp[c].l_min for c in order]
    k = 8 if smoke else 1

    def mid(c, n):
        return n * sp[c].l_min + n * (sp[c].l_max - sp[c].l_min) // 2

    series = {
        "microcanonical.count_messages": (
            [200, 400, 800, 1600], lambda n: count_messages(sp["canon"], n // k),
            lambda c: count_messages(sp[c], 150 // k)),
        "microcanonical.count_messages_log": (
            [400, 800, 1600, 3200], lambda n: count_messages_log(sp["canon"], n // k),
            lambda c: count_messages_log(sp[c], 500 // k)),
        "microcanonical.iter_log_tables": (
            [400, 800, 1600, 3200], lambda n: list(iter_log_tables(sp["canon"], n // k)),
            lambda c: list(iter_log_tables(sp[c], 500 // k))),
        "dimension.prefix_counts": (
            [80, 160, 320, 640], lambda n: prefix_counts(code["canon"], n // k, 3 * (n // k) // 2),
            lambda c: prefix_counts(code[c], 24 // k, mid(c, 24 // k))),
    }
    out = {}
    for layer, (ns, in_n, in_span) in series.items():
        out[f"{layer}.exp_N"] = _slope(ns, [_time(lambda: in_n(n)) for n in ns])
        out[f"{layer}.exp_span"] = _slope(spans, [_time(lambda: in_span(c)) for c in order])
    return out


_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import thermocode.cli; print(t1 - t0, time.perf_counter() - t1)"
)


def startup(runner, repeats: int) -> dict[str, float]:
    """Interpreter start, numpy import and package import, each from fresh
    subprocesses (medians)."""
    bare = [runner.python("-c", "pass").seconds for _ in range(repeats)]
    probes = [tuple(map(float, runner.python("-c", _IMPORT_PROBE).out.split())) for _ in range(repeats)]
    return {
        "startup.python_s": statistics.median(bare),
        "startup.numpy_import_s": statistics.median(p[0] for p in probes),
        "startup.thermocode_import_s": statistics.median(p[1] for p in probes),
    }


def traced_run(root: Path, runner, expected: list, spectra: dict, docs: dict, tally, smoke: bool) -> dict:
    """Replay the subprocess jobs [(argv, rc, stdout)] in-process, untraced then
    traced; every replayed stdout must equal the subprocess one byte for byte."""
    sys.path.insert(0, str(root / "src"))
    from thermocode import cli

    argvs = [argv for argv, _, _ in expected]
    replay(cli.main, argvs)  # warm-up: first calls pay one-off lazy set-up
    untraced_s, traced_s = [], []
    for _ in range(1 if smoke else 3):  # alternate, so drift hits both sides
        seconds, plain = replay(cli.main, argvs)
        untraced_s.append(seconds)
        tracer = Tracer()
        with traced_layers(tracer):
            seconds, traced = replay(tracer.wrap("cli", cli.main), argvs)
        traced_s.append(seconds)
        for (argv, rc, out), *runs in zip(expected, plain, traced):
            for kind, (got_rc, got_out, got_err) in zip(("untraced", "traced"), runs):
                problem = None
                if (got_rc, got_out) != (rc, out):
                    problem = f"{kind} replay differs from the subprocess (exit {got_rc}, want {rc}) {got_err[:200]!r}"
                tally.record(f"replay {' '.join(argv)}", problem)

    stats = dict(tracer.stats)
    stats["cli.self_s"] = stats.pop("cli.s")
    stats.update(scaling(spectra, docs, smoke))
    stats.update(startup(runner, 2 if smoke else 5))
    stats["replay.untraced_s"] = statistics.median(untraced_s)
    stats["replay.traced_s"] = statistics.median(traced_s)
    stats["trace.overhead_s"] = stats["replay.traced_s"] - stats["replay.untraced_s"]
    return {name: {"value": stats.get(name, 0), "unit": unit} for name, unit in UNITS.items()}
