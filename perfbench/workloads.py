"""The benchmark's workloads: seeded inputs, one timed pass, correctness checks.

Every workload uses the default geometry (strip 100 x [-5, 50]), unit
viscosities and one body force (fx, fz) in both layers, drawn from the seed.
The program is driven only through the public API of ``stokescouple``, and
functions are looked up on their modules at call time so that a tracer which
rebinds them sees every call.

A pass returns one result per operation; an operation whose call raised
returns the exception (a pass that raises fails all its operations).
``check`` turns the results into one failure message (or None) per
operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable

FORCE_RANGE = (0.9, 1.1)  # |fx| and |fz| are log-uniform in this range
TOL_INCREMENT = 1e-3  # the alternating solver's default stop
SWEEP_ALPHAS = (1.0, 10.0, 100.0)  # of the CLI sweep: 70 + 536 + 4265 iterations
CLI_ALPHA = 10.0  # the default config's friction coefficient
ORACLE_TOL = 1e-8  # bound on the monolithic velocity error and energy residual
DEMO_STEPS = 8  # default of demo-stagnation


def body_force(seed: int) -> tuple:
    """(fx, fz) for a seed.  Seed 0 is the reference force (1, -1); other
    seeds scale both components independently within FORCE_RANGE."""
    if seed == 0:
        return 1.0, -1.0
    rng = random.Random(seed)
    lo, hi = (math.log(b) for b in FORCE_RANGE)
    return math.exp(rng.uniform(lo, hi)), -math.exp(rng.uniform(lo, hi))


def attempt(call: Callable):
    """Run one operation; its exception is its result."""
    try:
        return call()
    except (Exception, SystemExit) as exc:  # argparse exits; any failure is data
        return exc


def _failed_call(result):
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    return None


# ---------------------------------------------------------------------------
# scalar reference for the alternating solver


def schwarz_reference_iterations(alpha: float, fx: float, tol: float) -> int:
    """Iteration count of the alternating Robin solver, from its exact
    dynamics on the x-independent channel of the default geometry with unit
    viscosity.

    Each layer's iterate is the channel profile fx (-z^2/2 + c z + d) with
    zero velocity at its wall, so one Robin half-step is a scalar map on the
    slope c, and a change dc of slope changes the layer's velocity by
    fx dc (z - z_wall), of L2 norm fx |dc| sqrt(length |z_wall|^3 / 3).  The
    lower layer starts from the zero field, so its first increment is the
    norm of its whole profile.
    """
    import numpy as np
    from stokescouple import mesh

    geometry = mesh.Geometry()
    zp, zm, length = geometry.z_plus, geometry.z_minus, geometry.length
    scale_upper = fx * math.sqrt(length * zp**3 / 3.0)
    scale_lower = fx * math.sqrt(length * (-zm) ** 3 / 3.0)
    nodes, weights = np.polynomial.legendre.leggauss(4)
    z = 0.5 * zm * (1.0 - nodes)  # Gauss points on [zm, 0]

    c1 = alpha * (zp**2 / 2.0) / (1.0 + alpha * zp)
    c2 = None
    for n in range(1, 10_000_000):
        c2_new = alpha * (zp**2 / 2.0 - zp * c1 - zm**2 / 2.0) / (1.0 - alpha * zm)
        c1_new = alpha * (zp**2 / 2.0 - zm**2 / 2.0 + zm * c2_new) / (1.0 + alpha * zp)
        inc_upper = scale_upper * abs(c1_new - c1)
        if c2 is None:
            profile = fx * (-0.5 * z**2 + c2_new * (z - zm) + 0.5 * zm**2)
            inc_lower = math.sqrt(length * -0.5 * zm * float(weights @ profile**2))
        else:
            inc_lower = scale_lower * abs(c2_new - c2)
        c1, c2 = c1_new, c2_new
        if math.hypot(inc_upper, inc_lower) < tol:
            return n
    raise RuntimeError(f"reference recursion did not stop for alpha={alpha}")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Inputs:
    fx: float
    fz: float
    digest: str  # identifies the generated inputs; equal for equal seeds
    data: dict = field(default_factory=dict)


def _mesh_inputs(seed: int, nx: int, nz_upper: int, nz_lower: int) -> Inputs:
    import numpy as np
    from stokescouple import fem, mesh

    fx, fz = body_force(seed)
    m = mesh.build_layered_mesh(mesh.Geometry(), nx, nz_upper, nz_lower)
    h = hashlib.sha256(np.array([fx, fz]).tobytes())
    h.update(m.vertices.tobytes())
    h.update(m.triangles.tobytes())
    return Inputs(fx, fz, h.hexdigest(), {"mesh": m, "force": fem.BodyForce(fx, fz)})


# -- monolithic-64x32x8 --------------------------------------------------------


def monolithic_setup(seed: int, workdir: str) -> Inputs:
    return _mesh_inputs(seed, 64, 32, 8)


def monolithic_pass(inputs: Inputs) -> list:
    from stokescouple import coupling

    m, f = inputs.data["mesh"], inputs.data["force"]
    disc = coupling.discretize(m, 1.0, 1.0, f, f)
    return [
        attempt(lambda: coupling.solve_monolithic_friction(m, 1.0, 1.0, f, f, alpha=10.0, disc=disc)),
        attempt(lambda: coupling.solve_monolithic_continuity(m, 1.0, 1.0, f, f, disc=disc)),
    ]


def _relative_velocity_error(field_, fx: float) -> float:
    """Relative L2 error of both velocity components against the channel
    oracle (the exact profile lies in the discrete space)."""
    import numpy as np
    from stokescouple import verification
    from stokescouple.mesh import Subdomain

    oracle = verification.ChannelOracle(fx=fx, alpha=field_.alpha_used)
    disc = field_.disc
    err_sq = ref_sq = 0.0
    for sub, u, op in [
        (Subdomain.UPPER, field_.u1, disc.op_upper),
        (Subdomain.LOWER, field_.u2, disc.op_lower),
    ]:
        exact = verification.channel_exact(oracle, disc.space(sub).velocity_nodes[:, 1], sub)
        err = u.copy()
        err[0::2] -= exact
        ref = np.zeros_like(u)
        ref[0::2] = exact
        err_sq += err @ (op.mass @ err)
        ref_sq += ref @ (op.mass @ ref)
    return math.sqrt(err_sq / ref_sq)


def monolithic_check(inputs: Inputs, results: list, memo: dict) -> list:
    from stokescouple import verification

    failures = []
    for kind, result in zip(("friction", "continuity"), results):
        failure = _failed_call(result)
        if failure is None:
            error = _relative_velocity_error(result, inputs.fx)
            if not error <= ORACLE_TOL:
                failure = f"{kind}: velocity error {error:.3e} > {ORACLE_TOL}"
            elif kind == "friction":
                energy = verification.energy_residual(result)
                if not energy <= ORACLE_TOL:
                    failure = f"friction: energy residual {energy:.3e} > {ORACLE_TOL}"
        failures.append(failure)
    return failures


# -- cli -----------------------------------------------------------------------

# (name, arguments, config): "default" is the default config with the seeded
# force, "sweep" the same on the 8x4x2 mesh, where each alternating iteration
# costs ~250 us of mostly Python and scipy dispatch.
CLI_COMMANDS = (
    ("run", ["run"], "default"),
    ("run-friction", ["run", "--mode", "monolithic-friction"], "default"),
    ("run-continuity", ["run", "--mode", "monolithic-continuity"], "default"),
    ("demo-stagnation", ["demo-stagnation"], "default"),
    ("validate", ["validate"], "default"),
    ("sweep", ["sweep", "--alphas", ",".join(f"{a:g}" for a in SWEEP_ALPHAS)], "sweep"),
)
SWEEP_MESH = "[mesh]\nnx = 8\nnz_upper = 4\nnz_lower = 2\n"
REPORT_HEADER = "mode,alpha,n_iterations,converged,jump_l2,energy_residual"


def cli_setup(seed: int, workdir: str) -> Inputs:
    fx, fz = body_force(seed)
    physics = f"[physics]\nf1 = {fx!r}, {fz!r}\nf2 = {fx!r}, {fz!r}\n"
    configs = {}
    h = hashlib.sha256()
    for name, text in (("default", physics), ("sweep", SWEEP_MESH + physics)):
        configs[name] = os.path.join(workdir, f"{name}.ini")
        with open(configs[name], "w", encoding="utf-8") as handle:
            handle.write(text)
        h.update(text.encode())
    return Inputs(fx, fz, h.hexdigest(), {"configs": configs, "workdir": workdir, "passes": 0})


def _run_main(argv: list, out_dir: str) -> tuple:
    """cli_io.main in this process with COUPLE_OUT_DIR set; returns
    (exit code, captured stdout)."""
    from stokescouple import cli_io

    previous = os.environ.get("COUPLE_OUT_DIR")
    os.environ["COUPLE_OUT_DIR"] = out_dir
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli_io.main(argv)
    finally:
        if previous is None:
            del os.environ["COUPLE_OUT_DIR"]
        else:
            os.environ["COUPLE_OUT_DIR"] = previous
    return code, stdout.getvalue()


def cli_pass(inputs: Inputs) -> list:
    inputs.data["passes"] += 1
    root = os.path.join(inputs.data["workdir"], f"pass{inputs.data['passes']}")
    results = []
    for name, args, config in CLI_COMMANDS:
        out_dir = os.path.join(root, name)
        argv = args + ["--config", inputs.data["configs"][config]]
        results.append(attempt(lambda: _run_main(argv, out_dir)))
    return results


def _outputs_digest(out_dir: str) -> dict:
    digests = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def _read_lines(path: str) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


def _cli_command_failure(name: str, result, out_dir: str, expected: dict) -> str | None:
    failure = _failed_call(result)
    if failure is not None:
        return failure
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    files = _outputs_digest(out_dir)
    if name.startswith("run"):
        mode, n = {
            "run": ("schwarz", expected[CLI_ALPHA]),
            "run-friction": ("monolithic-friction", 0),
            "run-continuity": ("monolithic-continuity", 0),
        }[name]
        if set(files) != {"field.vtk", "report.csv"}:
            return f"outputs {sorted(files)}"
        lines = _read_lines(os.path.join(out_dir, "report.csv"))
        fields = lines[1].split(",") if len(lines) == 2 else []
        if lines[0] != REPORT_HEADER or fields[:1] != [mode] or fields[2:4] != [str(n), "1"]:
            return f"report.csv {lines}, expected mode {mode}, n_iterations {n}, converged 1"
    elif name == "sweep":
        if set(files) != {"sweep.csv"}:
            return f"outputs {sorted(files)}"
        rows = [line.split(",") for line in _read_lines(os.path.join(out_dir, "sweep.csv"))[1:]]
        try:
            got = [(float(row[0]), int(row[1]), row[-1]) for row in rows]
        except (IndexError, ValueError):
            return f"sweep.csv rows {rows}"
        want = [(alpha, expected[alpha], "1") for alpha in SWEEP_ALPHAS]
        if got != want:
            return f"sweep.csv (alpha, n_iterations, converged) {got}, reference {want}"
    elif name == "demo-stagnation":
        if set(files) != {"field.vtk", "trace_history.csv"}:
            return f"outputs {sorted(files)}"
        if len(_read_lines(os.path.join(out_dir, "trace_history.csv"))) != DEMO_STEPS + 1:
            return "trace_history.csv has the wrong number of rows"
    elif not stdout.startswith("config ok"):
        return f"validate printed {stdout!r}"
    return None


def cli_check(inputs: Inputs, results: list, memo: dict) -> list:
    """Exit codes and report fields of each command, and outputs
    byte-identical to those of the first pass of the run."""
    root = os.path.join(inputs.data["workdir"], f"pass{inputs.data['passes']}")
    if "expected" not in memo:
        memo["expected"] = {
            alpha: schwarz_reference_iterations(alpha, inputs.fx, TOL_INCREMENT)
            for alpha in {CLI_ALPHA, *SWEEP_ALPHAS}
        }
    failures = []
    for (name, _, _), result in zip(CLI_COMMANDS, results):
        out_dir = os.path.join(root, name)
        failure = _cli_command_failure(name, result, out_dir, memo["expected"])
        if failure is None:
            digest = _outputs_digest(out_dir)
            if memo.setdefault(name, digest) != digest:
                failure = "outputs differ from the first pass"
        failures.append(None if failure is None else f"{name}: {failure}")
    shutil.rmtree(root, ignore_errors=True)
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, workdir) -> Inputs
    run: Callable  # Inputs -> list of per-operation results; the timed pass
    check: Callable  # (Inputs, results, memo) -> list of failure messages or None
    ops: int  # operations per pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("monolithic-64x32x8", monolithic_setup, monolithic_pass, monolithic_check, 2),
        Workload("cli", cli_setup, cli_pass, cli_check, len(CLI_COMMANDS)),
    )
}
