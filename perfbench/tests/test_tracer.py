"""Self-test of the benchmark's tracer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings():
    """Every module-level binding of a stokescouple function, and the class
    binding of Factorization.solve."""
    import stokescouple
    from stokescouple import cli_io, coupling, fem, linalg, mesh, verification

    modules = [stokescouple, cli_io, coupling, fem, linalg, mesh, verification]
    found = {
        (module.__name__, attr): value
        for module in modules
        for attr, value in vars(module).items()
        if callable(value)
    }
    found[("linalg.Factorization", "solve")] = linalg.Factorization.__dict__["solve"]
    return found


def test_install_rebinds_every_import_and_uninstall_restores():
    from stokescouple import coupling, linalg, verification

    before = _bindings()
    spans = tracer.Tracer()
    spans.install()
    try:
        # names imported with `from .x import y` are wrapped too
        assert coupling.factorize is not before[("stokescouple.coupling", "factorize")]
        assert verification.schwarz_solve is not before[("stokescouple.verification", "schwarz_solve")]
        assert linalg.Factorization.solve is not before[("linalg.Factorization", "solve")]
        changed = {key for key, value in _bindings().items() if value is not before[key]}
        assert {f"{module}.{attr}" for module, attr in changed} >= {
            "stokescouple.discretize",
            "stokescouple.coupling.discretize",
            "stokescouple.verification.discretize",
            "stokescouple.cli_io.schwarz_solve",
            "stokescouple.fem.assemble_stokes",
        }
    finally:
        spans.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_and_read_counters_while_recording():
    from stokescouple import coupling, fem, mesh

    m = mesh.build_layered_mesh(mesh.Geometry(), 4, 2, 1)
    force = fem.BodyForce(1.0, -1.0)
    spans = tracer.Tracer()
    spans.install()
    try:
        coupling.discretize(m, 1.0, 1.0, force, force)  # not recording
        assert spans.spans == []
        with spans.recording():
            coupling.solve_monolithic_friction(m, 1.0, 1.0, force, force, alpha=10.0)
    finally:
        spans.uninstall()
    names = [span[0] for span in spans.spans]
    assert names[0] == "coupling.solve_monolithic_friction"
    assert "linalg.Factorization.solve" in names
    for name, start, end, parent in spans.spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = spans.spans[parent]
            assert p_start <= start and end <= p_end
    assert spans.counters["lu_nnz"] > 0
    assert 0.0 <= spans.counters["max_rel_residual"] <= 1e-10
    assert spans.counters["rows"] > 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 50, 70, 0),
        ("d", 55, 60, 2),
        ("b", 200, 210, -1),
    ]
    assert tracer.span_totals(spans) == {
        "a": [1, 100, 50],
        "b": [2, 40, 40],
        "c": [1, 20, 15],
        "d": [1, 5, 5],
    }


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracer.tail_percentile(range(1, 1001)) == (99.0, 990)
    assert tracer.tail_percentile(range(1, 41)) == (75.0, 30)
    assert tracer.tail_percentile(range(30)) == (tracer.MISSING, tracer.MISSING)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = tracer.per_layer_metrics([], {**tracer.Tracer().counters}, 1, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == [m["unit"] for m in per_layer.values()]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "alpha, expected", [(1.0, 70), (10.0, 536), (100.0, 4265), (1000.0, 32145)]
)
def test_scalar_reference_at_the_reference_force(alpha, expected):
    assert workloads.body_force(0) == (1.0, -1.0)
    assert workloads.schwarz_reference_iterations(alpha, 1.0, workloads.TOL_INCREMENT) == expected
