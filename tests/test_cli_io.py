"""Tests for config parsing, CSV/VTK writers, field export, and the CLI."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokescouple.cli_io import (
    FieldExport,
    ParseError,
    RunConfig,
    ValidationError,
    export_field,
    main,
    parse_config,
    render_config,
    write_csv,
    write_vtk,
)
from stokescouple.coupling import solve_monolithic_friction
from stokescouple.fem import BodyForce
from stokescouple.mesh import Geometry, build_layered_mesh


@pytest.fixture(autouse=True)
def _no_out_dir_env(monkeypatch):
    monkeypatch.delenv("COUPLE_OUT_DIR", raising=False)


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_is_reference_setup():
    config = parse_config("")
    assert config == RunConfig()
    assert (config.L, config.z_plus, config.z_minus) == (100.0, 50.0, -5.0)
    assert (config.nu1, config.nu2) == (1.0, 1.0)
    assert config.f1 == (1.0, -1.0) and config.f2 == (1.0, -1.0)


def test_parse_scientific_notation_and_pairs():
    config = parse_config(
        "[coupling]\nalpha = 1e9\n[physics]\nf1 = 2.0, 3.5\n[mesh]\nnx = 7\n"
    )
    assert config.alpha == 1e9
    assert config.f1 == (2.0, 3.5)
    assert config.nx == 7


def test_constraint_violation_names_field():
    with pytest.raises(ValidationError, match="nz_upper") as err:
        parse_config("[mesh]\nnz_upper = 0\n")
    assert ">= 1" in str(err.value)


def test_unknown_key_is_parse_error_with_line():
    with pytest.raises(ParseError, match="unknown key") as err:
        parse_config("[mesh]\nnx = 4\nnz_uppr = 2\n")
    assert err.value.line == 3
    with pytest.raises(ParseError, match="unknown section"):
        parse_config("[grid]\nnx = 4\n")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("nx = 4\n")  # entry before any section header
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_config("[mesh]\nnx = 1\nnx = 2\n")  # duplicate key
    with pytest.raises(ParseError):
        parse_config("[mesh]\njust words\n")


def test_value_type_errors():
    with pytest.raises(ValidationError, match="alpha"):
        parse_config("[coupling]\nalpha = fast\n")
    with pytest.raises(ValidationError, match="nx"):
        parse_config("[mesh]\nnx = 2.5\n")
    with pytest.raises(ValidationError, match="f1"):
        parse_config("[physics]\nf1 = 1.0\n")
    with pytest.raises(ValidationError, match="mode"):
        parse_config("[coupling]\nmode = quantum\n")
    with pytest.raises(ValidationError, match="formats"):
        parse_config("[output]\nformats = vtk, hdf5\n")


def test_config_round_trip_defaults():
    config = RunConfig()
    assert parse_config(render_config(config)) == config


def test_config_round_trip_custom():
    config = RunConfig(
        L=12.5,
        z_plus=3.0,
        z_minus=-0.5,
        nx=3,
        nz_upper=2,
        nz_lower=5,
        nu1=0.25,
        nu2=4.0,
        f1=(0.0, 9.81),
        f2=(-1.5, 0.0),
        mode="monolithic-continuity",
        alpha=float("inf"),
        tol=1e-7,
        max_iter=17,
        directory="results/run-3",
        formats=("csv",),
    )
    assert parse_config(render_config(config)) == config


@settings(max_examples=40, deadline=None)
@given(
    L=st.floats(0.5, 1e4, allow_nan=False),
    z_plus=st.floats(0.1, 1e3, allow_nan=False),
    z_minus=st.floats(-1e3, -0.1, allow_nan=False),
    nx=st.integers(1, 64),
    nz_upper=st.integers(1, 64),
    nz_lower=st.integers(1, 64),
    nu1=st.floats(1e-3, 1e3, allow_nan=False),
    nu2=st.floats(1e-3, 1e3, allow_nan=False),
    f1=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    f2=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    mode=st.sampled_from(("monolithic-friction", "monolithic-continuity", "schwarz", "dirichlet-demo")),
    alpha=st.one_of(st.floats(0.0, 1e12, allow_nan=False), st.just(float("inf"))),
    tol=st.floats(1e-12, 1.0, allow_nan=False),
    max_iter=st.integers(1, 10**6),
    directory=st.text("abcdefghij-_./0123456789", min_size=1, max_size=12),
    formats=st.sampled_from((("vtk",), ("csv",), ("vtk", "csv"), ("csv", "vtk"))),
)
def test_config_round_trip_property(**kwargs):
    config = RunConfig(**kwargs)
    assert parse_config(render_config(config)) == config


# ---------------------------------------------------------------------------
# writers


def test_write_csv_header_only_and_determinism(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), ["a", "b"], [])
    assert path.read_bytes() == b"a,b\n"
    full = tmp_path / "table.csv"
    rows = [[1, 0.1, "x", True], [2, float("nan"), "y", False]]
    write_csv(str(full), ["i", "v", "s", "flag"], rows)
    first = full.read_bytes()
    assert first.startswith(b"i,v,s,flag\n1,0.1,x,1\n2,nan,y,0\n")
    write_csv(str(full), ["i", "v", "s", "flag"], rows)
    assert full.read_bytes() == first


def small_field(alpha=10.0):
    mesh = build_layered_mesh(Geometry(), 2, 1, 1)
    force = BodyForce(1.0, -1.0)
    return solve_monolithic_friction(mesh, 1.0, 1.0, force, force, alpha=alpha)


def test_write_vtk_structure_and_determinism(tmp_path):
    export = export_field(small_field())
    path = tmp_path / "field.vtk"
    write_vtk(export, str(path))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert "ASCII" in lines and "DATASET UNSTRUCTURED_GRID" in lines
    assert "POINTS 9 double" in lines  # (2+1) x (1+1+1) vertices
    assert "CELLS 8 32" in lines  # two triangles per quad, 2x(1+1) quads
    assert lines.count("5") >= 8  # triangle cell type
    assert "VECTORS velocity double" in lines
    assert "SCALARS pressure double 1" in lines
    assert "SCALARS subdomain int 1" in lines
    again = tmp_path / "again.vtk"
    write_vtk(export, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_export_field_averages_interface_values():
    field = small_field(alpha=10.0)
    export = export_field(field)
    a = 1237.5 * 10.0 / (1.0 + 55.0 * 10.0)
    b1, b2 = 1250.0 - 50.0 * a, 12.5 + 5.0 * a
    at_interface = np.isclose(export.points[:, 1], 0.0)
    assert np.allclose(export.velocity[at_interface, 0], 0.5 * (b1 + b2), atol=1e-9)
    assert np.allclose(export.velocity[:, 1], 0.0, atol=1e-9)
    # per-layer pressures -z + 25 and -z - 2.5 average to 11.25 at z = 0
    assert np.allclose(export.pressure[at_interface], 11.25, atol=1e-9)
    walls = np.isclose(export.points[:, 1], 50.0) | np.isclose(export.points[:, 1], -5.0)
    assert np.allclose(export.velocity[walls], 0.0, atol=1e-12)
    assert set(export.subdomain) == {0, 1}


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return str(path)


def small_config_body(out_dir, extra=""):
    return (
        "[mesh]\nnx = 4\nnz_upper = 2\nnz_lower = 1\n"
        f"[output]\ndirectory = {out_dir}\n" + extra
    )


def test_cli_run_monolithic(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_config_body(out))
    code = main(["run", "--config", config, "--mode", "monolithic-friction", "--alpha", "10"])
    assert code == 0
    assert (out / "field.vtk").exists() and (out / "report.csv").exists()
    header, row = (out / "report.csv").read_text().splitlines()
    assert header == "mode,alpha,n_iterations,converged,jump_l2,energy_residual"
    cells = row.split(",")
    assert cells[0] == "monolithic-friction" and cells[3] == "1"
    assert float(cells[4]) == pytest.approx(10.0 * 1237.5 / 551.0, rel=1e-9)
    assert "wrote" in capsys.readouterr().out


def test_cli_run_schwarz_fast_large_alpha(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_config_body(out, "[coupling]\nalpha = 1e9\n"))
    assert main(["run", "--config", config, "--mode", "schwarz"]) == 0
    row = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "schwarz" and int(row[2]) == 2 and row[3] == "1"


def test_cli_run_did_not_converge_is_still_success(tmp_path, capsys):
    out = tmp_path / "out"
    body = small_config_body(out, "[coupling]\nalpha = 1e4\n[schwarz]\nmax_iter = 30\n")
    config = write_config(tmp_path, body)
    assert main(["run", "--config", config, "--mode", "schwarz"]) == 0
    row = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert int(row[2]) == 30 and row[3] == "0"
    assert "did not converge" in capsys.readouterr().out


def test_cli_sweep_columns_and_flagging(tmp_path, capsys):
    out = tmp_path / "out"
    body = small_config_body(out, "[schwarz]\nmax_iter = 40\n")
    config = write_config(tmp_path, body)
    assert main(["sweep", "--config", config, "--alphas", "0,1e4,1e9"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,n_iterations,w_dist_to_continuity,jump_l2,energy_residual,converged"
    table = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in table] == ["0.0", "10000.0", "1000000000.0"]
    assert [row[5] for row in table] == ["1", "0", "1"]  # the capped row is flagged
    assert int(table[1][1]) == 40


def test_cli_sweep_rejects_descending(tmp_path, capsys):
    config = write_config(tmp_path, small_config_body(tmp_path / "out"))
    assert main(["sweep", "--config", config, "--alphas", "100,10"]) == 2
    assert "ascending" in capsys.readouterr().err


def test_cli_sweep_deterministic_bytes(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_config_body(out))
    main(["sweep", "--config", config, "--alphas", "0,1e9"])
    first = (out / "sweep.csv").read_bytes()
    main(["sweep", "--config", config, "--alphas", "0,1e9"])
    assert (out / "sweep.csv").read_bytes() == first


def test_cli_sweep_jobs_match_sequential(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    c1 = write_config(tmp_path, small_config_body(out1))
    main(["sweep", "--config", c1, "--alphas", "0,1e9"])
    c2 = (tmp_path / "run2.ini")
    c2.write_text(small_config_body(out2))
    main(["sweep", "--config", str(c2), "--alphas", "0,1e9", "--jobs", "2"])
    assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


def test_cli_validate(tmp_path, capsys):
    config = write_config(tmp_path, small_config_body(tmp_path / "out"))
    assert main(["validate", "--config", config]) == 0
    assert "config ok" in capsys.readouterr().out
    assert main(["validate"]) == 0  # defaults need no file


def test_cli_validate_rejects_bad_config(tmp_path, capsys):
    config = write_config(tmp_path, "[mesh]\nnz_lower = 0\n")
    assert main(["validate", "--config", config]) == 2
    assert "nz_lower" in capsys.readouterr().err
    # a schwarz run cannot take alpha = inf, so validate rejects it as run does
    config = write_config(tmp_path, "[coupling]\nalpha = inf\n")
    assert main(["validate", "--config", config]) == 2
    assert "error: alpha: " in capsys.readouterr().err


def test_cli_demo_stagnation(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_config_body(out))
    assert main(["demo-stagnation", "--config", config, "--steps", "5"]) == 0
    lines = (out / "trace_history.csv").read_text().splitlines()
    assert lines[0].startswith("step,side,delta_max,u0")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    assert [r[1] for r in rows] == ["upper", "lower", "upper", "lower", "upper"]
    assert all(float(r[2]) == 0.0 for r in rows[1:])  # frozen after the first solve
    assert (out / "field.vtk").exists()


def test_cli_out_dir_env_override(tmp_path, monkeypatch):
    configured = tmp_path / "configured"
    actual = tmp_path / "actual"
    config = write_config(tmp_path, small_config_body(configured))
    monkeypatch.setenv("COUPLE_OUT_DIR", str(actual))
    assert main(["run", "--config", config, "--mode", "monolithic-continuity"]) == 0
    assert (actual / "report.csv").exists()
    assert not configured.exists()


def test_cli_bad_alphas_text(tmp_path, capsys):
    config = write_config(tmp_path, small_config_body(tmp_path / "out"))
    assert main(["sweep", "--config", config, "--alphas", "1,two,3"]) == 2
    assert "alphas" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "--alpha", "inf"], "alpha"),
        (["sweep", "--alphas", "10,inf"], "alphas"),
        (["sweep", "--alphas", "10,nan"], "alphas"),
        (["sweep", "--alphas", ","], "alphas"),
        (["sweep", "--alphas", "10", "--jobs", "0"], "jobs"),
        (["demo-stagnation", "--steps", "0"], "steps"),
    ],
    ids=["run-schwarz-alpha-inf", "sweep-inf", "sweep-nan", "sweep-empty", "sweep-jobs-0", "demo-steps-0"],
)
def test_cli_invalid_input_exits_2(tmp_path, capsys, argv, field):
    config = write_config(tmp_path, small_config_body(tmp_path / "out"))
    assert main(argv[:1] + ["--config", config] + argv[1:]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "out").exists()


def test_cli_run_friction_alpha_inf_is_the_continuity_solve(tmp_path, capsys):
    fric, cont = tmp_path / "fric", tmp_path / "cont"
    args = ["run", "--mode", "monolithic-friction", "--alpha", "inf"]
    assert main(args[:1] + ["--config", write_config(tmp_path, small_config_body(fric))] + args[1:]) == 0
    config = write_config(tmp_path, small_config_body(cont))
    assert main(["run", "--config", config, "--mode", "monolithic-continuity"]) == 0
    assert (fric / "field.vtk").read_bytes() == (cont / "field.vtk").read_bytes()
    row = (fric / "report.csv").read_text().splitlines()[1].split(",")
    assert row[:4] == ["monolithic-friction", "inf", "0", "1"] and float(row[4]) == 0.0


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.ini")]) == 1
    assert "error" in capsys.readouterr().err
