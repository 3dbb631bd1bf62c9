"""Smoke tests of the timing scripts on the smallest mesh of the ladder, one
repeat each, so that a change of the package's API cannot break them
unnoticed."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name, monkeypatch):
    # each script pins the thread pools in os.environ when imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_assembly_ladder_times_every_phase(monkeypatch):
    ladder = load_script("assembly_ladder", monkeypatch)
    monkeypatch.setattr(ladder, "MESHES", ("8x4x2",))
    monkeypatch.setattr(ladder, "REPEATS", {"8x4x2": 1})
    monkeypatch.setattr(sys, "path", list(sys.path))  # time_phases prepends the checkout's src
    phases = ladder.time_phases(ROOT)["8x4x2"]
    timed = ["mesh", "validate", "spaces", "assemble_stokes", "continuity", "friction"]
    systems = ("friction", "continuity", "upper_core", "lower_core")
    for system in systems:
        timed += [f"{system}.{phase}" for phase in ("factorize", "solve", "certify")]
        assert phases[f"{system}.lu_nnz"] > 0
        assert 0.0 <= phases[f"{system}.residual"] <= 1e-10
        assert phases[f"{system}.path"] == "X-FOURIER"
    assert all(phases[name] >= 0.0 for name in timed)
    assert len(phases) == len(timed) + 3 * len(systems)


def test_schwarz_ladder_loop(monkeypatch):
    ladder = load_script("schwarz_ladder", monkeypatch)
    rows = ladder.ladder(("8x4x2",), ladder.ALPHAS, 1)
    assert [(row["mesh"], row["alpha"]) for row in rows] == [("8x4x2", a) for a in ladder.ALPHAS]
    assert [row["n_iterations"] for row in rows] == [536, 4265, 32145]
    assert all(row["converged"] and row["us_per_iter"] > 0.0 for row in rows)
