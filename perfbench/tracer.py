"""Span tracer that wraps the public functions of ``stokescouple`` from outside.

``Tracer.install`` replaces every module-level binding of each traced
function (the defining module and every module that did ``from .x import y``)
with a timing wrapper, and wraps ``linalg.Factorization.solve`` on the class.
``Tracer.uninstall`` puts every original object back.  Spans are kept in
memory as ``(name, start_ns, end_ns, parent_index)`` and written out once, at
the end of the run.

A few wrappers also read counters from return values (L+U fill, certified
residual, Schwarz iterations, system size) or, for the writers, the size of
the file just written.  That read happens inside the span it belongs to and
costs microseconds.

Per-layer metrics are reported per traced pass.  A metric that cannot be
computed (no Schwarz iteration, a factorization handle without a fill count,
too few samples for a tail percentile) reads -1.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import sys
import time

PACKAGE = "stokescouple"

# Layer (module of stokescouple) -> traced public functions, in the order the
# metrics are listed.
LAYERS = {
    "mesh": ["build_layered_mesh", "validate_mesh"],
    "fem": [
        "build_space",
        "assemble_stokes",
        "assemble_interface_friction",
        "assemble_coupled_system",
        "assemble_robin_subproblem",
        "assemble_dirichlet_subproblem",
    ],
    "linalg": ["factorize", "solve", "Factorization.solve"],
    "coupling": [
        "discretize",
        "solve_monolithic_friction",
        "solve_monolithic_continuity",
        "schwarz_solve",
        "dirichlet_exchange_demo",
    ],
    "verification": ["run_alpha_sweep", "energy_residual", "w_norm", "jump_norm"],
    "cli_io": ["main", "parse_config", "export_field", "write_vtk", "write_csv"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
SOLVE = "linalg.Factorization.solve"
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0)
MISSING = -1

# Metrics derived from return values, with their units, after the three
# span metrics of every traced function.
EXTRA_METRICS = {
    "linalg.factorize.lu_nnz": "count",
    f"{SOLVE}.p50_us": "us",
    f"{SOLVE}.tail_us": "us",
    f"{SOLVE}.tail_pct": "%",
    f"{SOLVE}.samples": "count",
    "linalg.max_rel_residual": "ratio",
    "coupling.schwarz_solve.iterations": "count",
    "coupling.schwarz_solve.us_per_iter": "us",
    "fem.assemble_coupled_system.rows": "count",
    "fem.assemble_coupled_system.nnz": "count",
    "cli_io.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in reporting order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _lu_nnz(factorization) -> int:
    # SuperLU's own count of the nonzeros it stores for L and U.
    handle = getattr(factorization, "_lu", None)
    nnz = getattr(handle, "nnz", None)
    return int(nnz) if nnz is not None else MISSING


def _written_path(args, kwargs, position: int) -> str:
    return kwargs["path"] if "path" in kwargs else args[position]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.active = False
        self._stack: list = []
        self._restore: list = []
        self.counters = {
            "lu_nnz": MISSING,
            "max_rel_residual": MISSING,
            "iterations": 0,
            "rows": MISSING,
            "nnz": MISSING,
            "bytes_written": 0,
        }

    # -- hooks reading counters from return values ---------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def factorize(out, args, kwargs):
            c["lu_nnz"] = max(c["lu_nnz"], _lu_nnz(out))

        def solve(out, args, kwargs):
            c["max_rel_residual"] = max(c["max_rel_residual"], out[1].relative_residual)

        def schwarz(out, args, kwargs):
            c["iterations"] += out.n_iterations

        def coupled(out, args, kwargs):
            c["rows"] = max(c["rows"], out.matrix.n_rows)
            c["nnz"] = max(c["nnz"], out.matrix.nnz)

        def writer(position):
            def hook(out, args, kwargs):
                c["bytes_written"] += os.path.getsize(_written_path(args, kwargs, position))

            return hook

        return {
            "linalg.factorize": factorize,
            SOLVE: solve,
            "coupling.schwarz_solve": schwarz,
            "fem.assemble_coupled_system": coupled,
            "cli_io.write_csv": writer(0),
            "cli_io.write_vtk": writer(1),
        }

    @contextlib.contextmanager
    def recording(self):
        """Record spans of the traced functions called inside the block."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(out, args, kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded modules of
        stokescouple.  Raises if a traced function no longer exists."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = {
            name: module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers = {}  # id(original function) -> wrapper
        for layer, fns in LAYERS.items():
            home = modules[f"{PACKAGE}.{layer}"]
            for fn_name in fns:
                owner_name, _, attr = fn_name.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                fn = owner.__dict__[attr]
                span = f"{layer}.{fn_name}"
                wrapper = self._wrap(span, fn, hooks.get(span))
                wrappers[id(fn)] = wrapper
                if owner_name:  # a method: wrap it on its class
                    self._restore.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start and end in ns, parent
        index (-1 for a root span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


# -- aggregation --------------------------------------------------------------


def span_totals(spans) -> dict:
    """name -> [calls, total ns, self ns].  Self time is a span's duration
    minus the durations of its direct children (children nest within their
    parent on one thread, so they never overlap)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[index]
    return totals


def tail_percentile(samples) -> tuple:
    """(percentile, value) of the highest percentile in TAIL_LADDER that has
    at least ten samples beyond it (nearest rank); MISSING when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return MISSING, MISSING


def per_layer_metrics(spans, counters: dict, passes: int, overhead_ratio: float) -> dict:
    """The per-layer metrics of `passes` traced passes, as {name: {value, unit}}."""
    totals = span_totals(spans)
    units = metric_units()
    values = {}
    for name in SPAN_NAMES:
        calls, total_ns, self_ns = totals.get(name, (0, 0, 0))
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.total_s"] = total_ns / 1e9 / passes
        values[f"{name}.self_s"] = self_ns / 1e9 / passes
    solve_us = [(end - start) / 1e3 for name, start, end, _ in spans if name == SOLVE]
    tail_pct, tail_us = tail_percentile(solve_us)
    iterations = counters["iterations"] / passes
    schwarz_s = values["coupling.schwarz_solve.total_s"]
    values.update(
        {
            "linalg.factorize.lu_nnz": counters["lu_nnz"],
            f"{SOLVE}.p50_us": statistics.median(solve_us) if solve_us else MISSING,
            f"{SOLVE}.tail_us": tail_us,
            f"{SOLVE}.tail_pct": tail_pct,
            f"{SOLVE}.samples": len(solve_us),
            "linalg.max_rel_residual": counters["max_rel_residual"],
            "coupling.schwarz_solve.iterations": iterations,
            "coupling.schwarz_solve.us_per_iter": (
                schwarz_s * 1e6 / iterations if iterations else MISSING
            ),
            "fem.assemble_coupled_system.rows": counters["rows"],
            "fem.assemble_coupled_system.nnz": counters["nnz"],
            "cli_io.bytes_written": counters["bytes_written"] / passes,
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
