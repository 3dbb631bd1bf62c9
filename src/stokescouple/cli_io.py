"""Command-line front end, configuration parsing, and result export.

Configs are sectioned key=value files ([geometry], [mesh], [physics],
[coupling], [schwarz], [output]).  Unknown sections or keys are rejected:
a typo must not silently fall back to a default in the middle of a long
sweep.  Missing keys take the documented defaults, so the empty file is the
reference two-layer setup (strip 100 x [-5, 50], unit viscosities, body
force (1, -1) in both layers).

Exports are a legacy-VTK ASCII unstructured grid (one record per mesh
vertex; quadratic velocities sampled at vertices, with the two one-sided
interface values averaged) and CSV tables.  Both writers are
byte-deterministic for fixed inputs.

Subcommands: run (one solve; field + report), sweep (friction-coefficient
sweep; CSV), validate (config + mesh checks only), demo-stagnation (pure
Dirichlet trace exchange; trace-history CSV).  The COUPLE_OUT_DIR
environment variable overrides the configured output directory.  Exit codes:
0 success, 1 I/O or mesh-validation failure, 2 config or argument error, 3
out of memory (a factorization's message names the phase and the system's
size), 4 a linear solve failed (singular system, or a residual above its
certification tolerance).  Each failure prints one `error:` line.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .coupling import (
    CoupledField,
    SchwarzConfig,
    dirichlet_exchange_demo,
    schwarz_solve,
    solve_monolithic_continuity,
    solve_monolithic_friction,
)
from .fem import BodyForce
from .linalg import OutOfMemoryError, ResidualCertificationError, SingularSystemError
from .mesh import Mesh, Geometry, Subdomain, build_layered_mesh, validate_mesh
from .verification import check_alphas, energy_residual, jump_norm, run_alpha_sweep

__all__ = [
    "ParseError",
    "ValidationError",
    "RunConfig",
    "FieldExport",
    "parse_config",
    "render_config",
    "export_field",
    "write_csv",
    "write_vtk",
    "main",
]

MODES = ("monolithic-friction", "monolithic-continuity", "schwarz")
FORMATS = ("vtk", "csv")
SWEEP_HEADER = [
    "alpha",
    "n_iterations",
    "w_dist_to_continuity",
    "jump_l2",
    "energy_residual",
    "converged",
]


class ParseError(ValueError):
    """Config text could not be understood (syntax, duplicate or unknown
    entries); carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ValidationError(ValueError):
    """A parsed value violates its constraint; names both."""

    def __init__(self, field: str, constraint: str):
        self.field = field
        self.constraint = constraint
        super().__init__(f"{field}: {constraint}")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; defaults are the reference setup."""

    L: float = 100.0
    z_plus: float = 50.0
    z_minus: float = -5.0
    nx: int = 32
    nz_upper: int = 16
    nz_lower: int = 4
    nu1: float = 1.0
    nu2: float = 1.0
    f1: tuple = (1.0, -1.0)
    f2: tuple = (1.0, -1.0)
    mode: str = "schwarz"
    alpha: float = 10.0
    tol: float = 1e-3
    max_iter: int = 100_000
    directory: str = "out"
    formats: tuple = ("vtk", "csv")

    def __post_init__(self) -> None:
        def positive(field, value):
            if not (np.isfinite(value) and value > 0.0):
                raise ValidationError(field, f"{field} > 0")

        positive("L", self.L)
        positive("z_plus", self.z_plus)
        if not (np.isfinite(self.z_minus) and self.z_minus < 0.0):
            raise ValidationError("z_minus", "z_minus < 0")
        for field in ("nx", "nz_upper", "nz_lower"):
            if getattr(self, field) < 1:
                raise ValidationError(field, f"{field} >= 1")
        positive("nu1", self.nu1)
        positive("nu2", self.nu2)
        for field in ("f1", "f2"):
            pair = getattr(self, field)
            if len(pair) != 2 or not all(np.isfinite(c) for c in pair):
                raise ValidationError(field, f"{field} is a pair of finite numbers")
        if self.mode not in MODES:
            raise ValidationError("mode", f"mode in {{{', '.join(MODES)}}}")
        if np.isnan(self.alpha) or self.alpha < 0.0:  # inf allowed
            raise ValidationError("alpha", "alpha >= 0 (inf allowed)")
        positive("tol", self.tol)
        if self.max_iter < 1:
            raise ValidationError("max_iter", "max_iter >= 1")
        if not self.directory:
            raise ValidationError("directory", "directory nonempty")
        if not self.formats or any(f not in FORMATS for f in self.formats):
            raise ValidationError("formats", f"formats subset of {{{', '.join(FORMATS)}}}")
        if len(set(self.formats)) != len(self.formats):
            raise ValidationError("formats", "formats without repeats")

    def geometry(self) -> Geometry:
        return Geometry(length=self.L, z_plus=self.z_plus, z_minus=self.z_minus)

    def build_mesh(self) -> Mesh:
        return build_layered_mesh(self.geometry(), self.nx, self.nz_upper, self.nz_lower)

    def body_forces(self) -> tuple[BodyForce, BodyForce]:
        return BodyForce(*self.f1), BodyForce(*self.f2)


# ---------------------------------------------------------------------------
# config text <-> RunConfig


def _parse_float(field: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(field, f"{field} is a number, got {text!r}") from None


def _parse_int(field: str, text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValidationError(field, f"{field} is an integer, got {text!r}") from None


def _parse_pair(field: str, text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValidationError(field, f"{field} is two comma-separated numbers, got {text!r}")
    return tuple(_parse_float(field, p) for p in parts)


def _parse_formats(field: str, text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


_SCHEMA = {
    "geometry": {"L": _parse_float, "z_plus": _parse_float, "z_minus": _parse_float},
    "mesh": {"nx": _parse_int, "nz_upper": _parse_int, "nz_lower": _parse_int},
    "physics": {"nu1": _parse_float, "nu2": _parse_float, "f1": _parse_pair, "f2": _parse_pair},
    "coupling": {"mode": lambda f, s: s.strip(), "alpha": _parse_float},
    "schwarz": {"tol": _parse_float, "max_iter": _parse_int},
    "output": {"directory": lambda f, s: s.strip(), "formats": _parse_formats},
}


def _entry_line(text: str, name: str, section: bool = False) -> int | None:
    pattern = re.compile(
        rf"^\s*\[{re.escape(name)}\]" if section else rf"^\s*{re.escape(name)}\s*[=:]"
    )
    for i, line in enumerate(text.splitlines(), start=1):
        if pattern.match(line):
            return i
    return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; unknown entries are ParseErrors,
    bad values ValidationErrors.  The empty string yields the defaults."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive, exactly as documented
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError("entry before any [section] header", line=exc.lineno) from None
    except (configparser.DuplicateOptionError, configparser.DuplicateSectionError) as exc:
        raise ParseError(exc.message.replace("\n", " "), line=exc.lineno) from None
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if exc.errors else None
        raise ParseError("unparsable line", line=lineno) from None

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ParseError(
                f"unknown section [{section}]", line=_entry_line(text, section, section=True)
            )
        for key, raw in parser[section].items():
            converter = _SCHEMA[section].get(key)
            if converter is None:
                raise ParseError(
                    f"unknown key {key!r} in [{section}]", line=_entry_line(text, key)
                )
            values[key] = converter(key, raw)
    return RunConfig(**values)


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(config: RunConfig) -> str:
    """Inverse of parse_config (exact round-trip): the config text that
    parses back to `config`."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_render_value(getattr(config, key))}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# writers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: list, rows: list) -> None:
    """Comma-separated table: header line, one line per row, '.' decimal
    separator, trailing newline; byte-deterministic."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class FieldExport:
    """Vertex-sampled solution: one record per mesh vertex, triangle
    connectivity with per-cell layer labels."""

    points: np.ndarray  # (n_vertices, 2)
    velocity: np.ndarray  # (n_vertices, 2)
    pressure: np.ndarray  # (n_vertices,)
    triangles: np.ndarray  # (n_triangles, 3)
    subdomain: np.ndarray  # (n_triangles,)


def _node_rows(nodes: np.ndarray, points: np.ndarray, what: str) -> np.ndarray:
    """Row of each point in nodes, matched exactly on (x, z).

    The spaces store their nodes in lexicographic (x, z) order, which is the
    order numpy sorts complex numbers x + iz in, so one binary search finds
    every point.
    """
    keys = nodes[:, 0] + 1j * nodes[:, 1]
    wanted = points[:, 0] + 1j * points[:, 1]
    rows = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    missing = keys[rows] != wanted
    if np.any(missing):
        x, z = points[np.argmax(missing)].tolist()
        raise ValueError(f"mesh vertex ({x!r}, {z!r}) is not a {what} node of its layer")
    return rows


def export_field(field: CoupledField) -> FieldExport:
    """Sample the per-layer solutions at the shared mesh vertices.

    Interface vertices carry one value from each layer; the export averages
    the two (they differ by the friction slip in the horizontal component).
    """
    mesh = field.disc.mesh
    n_vertices = len(mesh.vertices)
    velocity = np.zeros((n_vertices, 2))
    pressure = np.zeros(n_vertices)
    count = np.zeros(n_vertices)
    for sub, u, p in [
        (Subdomain.UPPER, field.u1, field.p1),
        (Subdomain.LOWER, field.u2, field.p2),
    ]:
        space = field.disc.space(sub)
        layer_vertices = np.unique(mesh.triangles[mesh.triangle_subdomain == sub])
        points = mesh.vertices[layer_vertices]
        rows = _node_rows(space.velocity_nodes, points, "velocity")
        velocity[layer_vertices] += u.reshape(-1, 2)[rows]
        pressure[layer_vertices] += p[_node_rows(space.pressure_nodes, points, "pressure")]
        count[layer_vertices] += 1.0
    velocity /= count[:, None]
    pressure /= count
    return FieldExport(
        points=mesh.vertices.copy(),
        velocity=velocity,
        pressure=pressure,
        triangles=mesh.triangles.copy(),
        subdomain=mesh.triangle_subdomain.astype(np.int64),
    )


def write_vtk(export: FieldExport, path: str) -> None:
    """Legacy-VTK ASCII unstructured grid with point velocity/pressure and
    per-cell layer labels; byte-deterministic."""
    n_pts = len(export.points)
    n_tri = len(export.triangles)
    lines = [
        "# vtk DataFile Version 3.0",
        "two-layer coupled flow",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_pts} double",
    ]
    # tolist() yields Python floats and ints, whose repr/str is the output
    point = "{!r} {!r} 0.0".format
    lines.extend(map(point, *np.asarray(export.points, dtype=float).T.tolist()))
    lines.append(f"CELLS {n_tri} {4 * n_tri}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in export.triangles.tolist())
    lines.append(f"CELL_TYPES {n_tri}")
    lines.extend(["5"] * n_tri)  # VTK_TRIANGLE
    lines.append(f"CELL_DATA {n_tri}")
    lines.append("SCALARS subdomain int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(map(str, np.asarray(export.subdomain, dtype=np.int64).tolist()))
    lines.append(f"POINT_DATA {n_pts}")
    lines.append("VECTORS velocity double")
    lines.extend(map(point, *np.asarray(export.velocity, dtype=float).T.tolist()))
    lines.append("SCALARS pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(map(repr, np.asarray(export.pressure, dtype=float).tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _ensure_dir(config: RunConfig) -> str:
    directory = os.environ.get("COUPLE_OUT_DIR") or config.directory
    os.makedirs(directory, exist_ok=True)
    return directory


def _write_field_outputs(
    config: RunConfig, directory: str, field: CoupledField, report_row: list
) -> list:
    written = []
    if "vtk" in config.formats:
        path = os.path.join(directory, "field.vtk")
        write_vtk(export_field(field), path)
        written.append(path)
    if "csv" in config.formats:
        path = os.path.join(directory, "report.csv")
        header = ["mode", "alpha", "n_iterations", "converged", "jump_l2", "energy_residual"]
        write_csv(path, header, [report_row])
        written.append(path)
    return written


def _check_runnable(config: RunConfig) -> None:
    """The alternating solver needs a finite coefficient; monolithic friction
    takes alpha = inf as its continuity limit."""
    if config.mode == "schwarz" and np.isinf(config.alpha):
        raise ValidationError("alpha", "alpha finite for mode schwarz")


def _cmd_run(config: RunConfig) -> int:
    _check_runnable(config)
    mesh = config.build_mesh()
    f1, f2 = config.body_forces()
    directory = _ensure_dir(config)

    if config.mode == "schwarz":
        schwarz = SchwarzConfig(
            alpha=config.alpha, tol_increment=config.tol, max_iter=config.max_iter
        )
        report = schwarz_solve(mesh, config.nu1, config.nu2, f1, f2, schwarz)
        field, n, converged = report.final, report.n_iterations, report.converged
    elif config.mode == "monolithic-friction" and np.isfinite(config.alpha):
        field = solve_monolithic_friction(
            mesh, config.nu1, config.nu2, f1, f2, alpha=config.alpha
        )
        n, converged = 0, True
    else:  # monolithic-continuity, or friction in its alpha = inf limit
        field = solve_monolithic_continuity(mesh, config.nu1, config.nu2, f1, f2)
        n, converged = 0, True

    row = [
        config.mode,
        field.alpha_used,
        n,
        converged,
        jump_norm(field),
        energy_residual(field),
    ]
    written = _write_field_outputs(config, directory, field, row)
    status = "converged" if converged else "did not converge (recorded as data)"
    print(f"{config.mode}: {status}, n_iterations={n}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_demo(config: RunConfig, steps: int) -> int:
    mesh = config.build_mesh()
    f1, f2 = config.body_forces()
    directory = _ensure_dir(config)
    demo = dirichlet_exchange_demo(mesh, config.nu1, config.nu2, f1, f2, steps=steps)
    written = []
    if "csv" in config.formats:
        path = os.path.join(directory, "trace_history.csv")
        n_trace = len(demo.traces[0])
        header = ["step", "side", "delta_max"] + [f"u{k}" for k in range(n_trace)]
        rows = []
        for k, (side, trace) in enumerate(zip(demo.sides, demo.traces)):
            delta = demo.deltas[k - 1] if k > 0 else float("nan")
            rows.append([k, side, delta] + list(trace))
        write_csv(path, header, rows)
        written.append(path)
    if "vtk" in config.formats:
        path = os.path.join(directory, "field.vtk")
        write_vtk(export_field(demo.final), path)
        written.append(path)
    stagnated = max(demo.deltas, default=0.0)
    print(f"dirichlet-demo: {steps} half-steps, max trace change after first exchange = {stagnated}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(config: RunConfig, alphas: list) -> int:
    mesh = config.build_mesh()
    f1, f2 = config.body_forces()
    directory = _ensure_dir(config)
    result = run_alpha_sweep(
        mesh,
        config.nu1,
        config.nu2,
        f1,
        f2,
        alphas,
        tol_increment=config.tol,
        max_iter=config.max_iter,
    )
    rows = [
        [r.alpha, r.n_iterations, r.w_dist_to_continuity, r.jump_l2, r.energy_residual, r.converged]
        for r in result.rows
    ]
    path = os.path.join(directory, "sweep.csv")
    write_csv(path, SWEEP_HEADER, rows)
    for r in result.rows:
        note = " DID-NOT-CONVERGE" if not r.converged else ""
        err = f" error={r.error}" if r.error else ""
        print(f"alpha={r.alpha:g}: n={r.n_iterations}{note}{err}")
    print(f"wrote {path}")
    return 0


def _cmd_validate(config: RunConfig) -> int:
    _check_runnable(config)
    mesh = config.build_mesh()
    violations = validate_mesh(mesh)
    if violations:
        for v in violations:
            print(f"mesh violation: {v}", file=sys.stderr)
        return 1
    print(
        f"config ok: mesh {config.nx}x({config.nz_upper}+{config.nz_lower}), "
        f"{len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles, mode={config.mode}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def _parse_alphas(text: str) -> list:
    try:
        alphas = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValidationError("alphas", f"alphas is a comma-separated number list, got {text!r}")
    try:
        return check_alphas(alphas)
    except ValueError as exc:
        raise ValidationError("alphas", str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stokescouple",
        description="Two-layer coupled flow solver (friction or continuity interface law).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one solve; writes field + report")
    run_p.add_argument("--config", metavar="FILE")
    run_p.add_argument("--mode", choices=MODES)
    run_p.add_argument("--alpha", type=float)

    sweep_p = sub.add_parser("sweep", help="friction-coefficient sweep; writes CSV")
    sweep_p.add_argument("--config", metavar="FILE")
    sweep_p.add_argument("--alphas", required=True, metavar="X1,X2,...")

    val_p = sub.add_parser("validate", help="config + mesh checks only")
    val_p.add_argument("--config", metavar="FILE")

    demo_p = sub.add_parser("demo-stagnation", help="pure Dirichlet exchange demo")
    demo_p.add_argument("--config", metavar="FILE")
    demo_p.add_argument("--steps", type=int, default=8)

    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "run":
            if args.mode is not None:
                config = dataclasses.replace(config, mode=args.mode)
            if args.alpha is not None:
                config = dataclasses.replace(config, alpha=args.alpha)
            return _cmd_run(config)
        if args.command == "sweep":
            return _cmd_sweep(config, _parse_alphas(args.alphas))
        if args.command == "validate":
            return _cmd_validate(config)
        if args.steps < 1:
            raise ValidationError("steps", "steps >= 1")
        return _cmd_demo(config, args.steps)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OutOfMemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except (SingularSystemError, ResidualCertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
