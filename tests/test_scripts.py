"""Smoke tests of the timing scripts on the smallest mesh of the ladder, one
repeat each, so that a change of the package's API cannot break them
unnoticed, and the verdicts of the output comparison on small trees."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from stokescouple.fem import BodyForce
from stokescouple.mesh import Geometry, build_layered_mesh

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
    monkeypatch.setattr(ladder, "SCHWARZ_ALPHAS", (10.0,))
    monkeypatch.setattr(sys, "path", list(sys.path))  # time_phases prepends the checkout's src
    phases = ladder.time_phases(ROOT)["8x4x2"]
    timed = ["mesh", "validate", "spaces", "assemble_stokes", "continuity", "friction"]
    systems = ("friction", "continuity", "upper_core", "lower_core")
    for system in systems:
        timed += [f"{system}.{phase}" for phase in ("factorize", "solve", "certify")]
        assert phases[f"{system}.lu_nnz"] > 0
        assert phases[f"{system}.vm_mb"] >= 0.0
        assert 0.0 <= phases[f"{system}.residual"] <= 1e-10
        assert phases[f"{system}.path"] == "X-FOURIER"
    timed += ["upper_core.setup", "lower_core.setup", "schwarz.10.iterate", "schwarz.10.us_per_iter"]
    assert all(phases[name] >= 0.0 for name in timed)
    assert phases["schwarz.10.n_iterations"] == 536
    peaked = ("spaces", "assemble_stokes", "continuity", "friction")
    assert ladder.PEAKED == peaked
    assert all(phases[f"{name}.numpy_peak_mb"] > 0.0 for name in peaked)
    assert len(phases) == len(timed) + 4 * len(systems) + 1 + len(peaked)


@pytest.mark.parametrize("run", ["schwarz_run", "friction_run"])
def test_fresh_process_runs_report_their_peaks(monkeypatch, run):
    ladder = load_script("assembly_ladder", monkeypatch)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the run prepends the checkout's src
    record = getattr(ladder, run)(ROOT, "8x4x2")
    assert record["mesh"] == "8x4x2" and record["wall_s"] > 0.0
    # the address space holds at least what was resident
    assert 0.0 < record["peak_rss_mb"] <= record["vm_peak_mb"]


def test_schwarz_ladder_loop(monkeypatch):
    ladder = load_script("assembly_ladder", monkeypatch)
    mesh = build_layered_mesh(Geometry(), 8, 4, 2)
    phases = ladder.time_schwarz(mesh, BodyForce(1.0, -1.0), 1)
    counts = [phases[f"schwarz.{alpha:g}.n_iterations"] for alpha in ladder.SCHWARZ_ALPHAS]
    assert ladder.SCHWARZ_ALPHAS == (10.0, 100.0, 1000.0) and counts == [536, 4265, 32145]
    assert all(phases[f"schwarz.{alpha:g}.us_per_iter"] > 0.0 for alpha in ladder.SCHWARZ_ALPHAS)
    assert phases["upper_core.setup"] > 0.0 and phases["lower_core.setup"] > 0.0


def output_root(root, value="1.0", residual="1e-15", nested="2.5"):
    """Two per-command directories as the CLI writes them, one nested."""
    (root / "run").mkdir(parents=True)
    (root / "run" / "report.csv").write_text(
        f"mode,jump_l2,energy_residual\nschwarz,{value},{residual}\n", encoding="utf-8"
    )
    (root / "sweep" / "fine").mkdir(parents=True)
    (root / "sweep" / "fine" / "sweep.csv").write_text(f"alpha,jump_l2\n10,{nested}\n", encoding="utf-8")
    return root


@pytest.mark.parametrize(
    "change, code, line",
    [
        ({}, 0, "run/report.csv: byte-identical"),
        ({"value": repr(1.0 + 1e-10)}, 1, "  jump_l2 "),  # 1e-10 relative
        ({"residual": "1.5e-15"}, 0, "run/report.csv: differs in bytes"),  # 5e-16 absolute
        ({"nested": "2.5000001"}, 1, "sweep/fine/sweep.csv: differs in bytes"),
    ],
    ids=["identical", "relative", "energy-residual", "nested"],
)
def test_compare_outputs_descends_into_shared_directories(tmp_path, monkeypatch, capsys, change, code, line):
    compare = load_script("compare_outputs", monkeypatch)
    a, b = output_root(tmp_path / "a"), output_root(tmp_path / "b", **change)
    monkeypatch.setattr(sys, "argv", ["compare_outputs.py", str(a), str(b)])
    assert compare.main() == code
    out = capsys.readouterr().out
    assert line in out and "present in one directory only" not in out
    assert ("FAIL" in out) == (code == 1)


def test_compare_outputs_fails_a_file_on_one_side(tmp_path, monkeypatch, capsys):
    compare = load_script("compare_outputs", monkeypatch)
    a, b = output_root(tmp_path / "a"), output_root(tmp_path / "b")
    (b / "sweep" / "fine" / "extra.csv").write_text("alpha\n1\n", encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["compare_outputs.py", str(a), str(b)])
    assert compare.main() == 1
    assert "sweep/fine/extra.csv: present in one directory only  FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("last", ["1.0", "2.0"], ids=["identical", "differs"])
def test_compare_outputs_keeps_its_status_when_the_reader_stops(tmp_path, last):
    # 3000 columns print about 300 kB, more than a pipe holds, so the script
    # is still writing when the reader closes the pipe after one line; the
    # last column decides the verdict
    names = [f"c{k}" for k in range(3000)]
    for side, value in (("a", "1.0"), ("b", last)):
        (tmp_path / side).mkdir()
        row = ["1.0"] * (len(names) - 1) + [value]
        (tmp_path / side / "wide.csv").write_text(f"{','.join(names)}\n{','.join(row)}\n", encoding="utf-8")
    script = ROOT / "scripts" / "compare_outputs.py"
    with subprocess.Popen(
        [sys.executable, str(script), str(tmp_path / "a"), str(tmp_path / "b")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.readline().startswith(b"wide.csv: ")
        child.stdout.close()
        stderr = child.stderr.read()
        code = child.wait(timeout=60)
    assert stderr == b""
    assert code == (0 if last == "1.0" else 1)
