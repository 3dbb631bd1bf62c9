"""Analytic oracles, norms, energy diagnostics, and the friction-sweep harness.

The default setup (unit viscosities, constant body force, x-periodic strip)
has an exact solution that is independent of x with zero vertical velocity
and piecewise-quadratic horizontal velocity; `channel_exact` evaluates it
from the closed-form coefficients and `channel_fd` re-derives it by an
independent one-dimensional finite-difference solve so the two oracles
cross-check each other.

Norms are discrete quadratic forms over raw coefficient vectors: `l2_norm`
uses the velocity mass matrices, `w_norm` the viscosity-weighted gradient
form (the energy inner product of the coupled problem), and `jump_norm` the
interface trace mass matrix.  `energy_residual` checks the balance

    nu1 ||grad u1||^2 + nu2 ||grad u2||^2 + alpha ||jump||^2 = (F, U)

satisfied exactly (up to solver precision) by every friction solution.

`run_alpha_sweep` runs, for each friction coefficient, the monolithic solve
(for the distance-to-continuity, jump and energy columns) and the
alternating solver (for the iteration-count column), against one shared
continuity reference solution.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .coupling import (
    CoupledField,
    Discretization,
    SchwarzConfig,
    discretize,
    schwarz_solve,
    solve_monolithic_continuity,
    solve_monolithic_friction,
)
from .fem import BodyForce
from .mesh import Geometry, Mesh, Subdomain

__all__ = [
    "ChannelOracle",
    "ChannelSamples",
    "SweepRow",
    "SweepResult",
    "channel_coefficients",
    "channel_exact",
    "channel_fd",
    "l2_norm",
    "w_norm",
    "jump_norm",
    "energy_residual",
    "check_alphas",
    "run_alpha_sweep",
]


# ---------------------------------------------------------------------------
# channel oracles


@dataclass(frozen=True)
class ChannelOracle:
    """x-independent two-layer configuration: unit-depth strip geometry,
    common viscosity, horizontal body force, friction coefficient (may be
    inf for the continuity-coupled limit)."""

    geometry: Geometry = Geometry()
    nu: float = 1.0
    fx: float = 1.0
    alpha: float = 10.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError(f"viscosity must be positive and finite, got {self.nu}")
        if not np.isfinite(self.fx):
            raise ValueError(f"body force must be finite, got {self.fx}")
        if not (self.alpha >= 0.0):  # inf allowed
            raise ValueError(f"friction coefficient must be >= 0 or inf, got {self.alpha}")


def channel_coefficients(oracle: ChannelOracle) -> tuple[float, float, float]:
    """Coefficients (a, b1, b2) of u_i(z) = (fx/nu) (-z^2/2 + a z) + b_i.

    The wall conditions pin b_i = (fx/nu)(z_w^2/2 - a z_w) for each layer's
    wall coordinate, and the friction relation fx*a = alpha*(b1 - b2) closes
    the system (summing the two one-sided friction conditions shows both
    layers share the slope a).  alpha = inf gives the continuity solution
    a = (z+ + z-)/2; alpha = 0 decouples the layers (a = 0).
    """
    zp, zm = oracle.geometry.z_plus, oracle.geometry.z_minus
    if np.isinf(oracle.alpha):
        a = 0.5 * (zp + zm)
    else:
        a = oracle.alpha * (zp**2 - zm**2) / 2.0 / (oracle.nu + oracle.alpha * (zp - zm))
    scale = oracle.fx / oracle.nu
    b1 = scale * (zp**2 / 2.0 - a * zp)
    b2 = scale * (zm**2 / 2.0 - a * zm)
    return a, b1, b2


def channel_exact(oracle: ChannelOracle, z, side: Subdomain):
    """Exact horizontal velocity at height(s) z within the given layer.

    Raises ValueError if any z lies outside the layer's interval.
    """
    z = np.asarray(z, dtype=np.float64)
    geom = oracle.geometry
    if side == Subdomain.UPPER:
        lo, hi = 0.0, geom.z_plus
    else:
        lo, hi = geom.z_minus, 0.0
    if np.any(z < lo) or np.any(z > hi):
        raise ValueError(f"z out of range [{lo}, {hi}] for side {side.name}")
    a, b1, b2 = channel_coefficients(oracle)
    b = b1 if side == Subdomain.UPPER else b2
    values = (oracle.fx / oracle.nu) * (-0.5 * z**2 + a * z) + b
    return values if values.ndim else float(values)


@dataclass(frozen=True)
class ChannelSamples:
    """Grid solution of the one-dimensional reduction, one array per layer
    (each including its wall and interface endpoints)."""

    z_upper: np.ndarray
    u_upper: np.ndarray
    z_lower: np.ndarray
    u_lower: np.ndarray


def channel_fd(oracle: ChannelOracle, n_points: int = 10_000) -> ChannelSamples:
    """Independent finite-difference solve of the x-independent reduction.

    Second-order central stencils for -nu u'' = fx in each layer, one-sided
    second-order derivatives in the friction (or, for alpha = inf, trace
    equality plus shear continuity) closure at z = 0, Dirichlet walls.  All
    stencils are exact on quadratics, so the result matches `channel_exact`
    to solver roundoff; agreement of the two oracles validates both.
    """
    if n_points < 8:
        raise ValueError(f"n_points must be >= 8, got {n_points}")
    geom, nu, fx, alpha = oracle.geometry, oracle.nu, oracle.fx, oracle.alpha
    zp, zm = geom.z_plus, geom.z_minus
    m1 = max(3, round(n_points * zp / (zp - zm)))
    m2 = max(3, n_points - m1)
    z2 = np.linspace(zm, 0.0, m2 + 1)
    z1 = np.linspace(0.0, zp, m1 + 1)
    h2 = -zm / m2
    h1 = zp / m1
    n = (m2 + 1) + (m1 + 1)
    i1 = m2 + 1  # offset of the upper block; u2[k] at k, u1[k] at i1 + k

    rows, cols, vals = [], [], []
    rhs = np.zeros(n)

    def put(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    put(0, 0, 1.0)  # lower wall
    for k in range(1, m2):
        put(k, k - 1, -nu / h2**2)
        put(k, k, 2.0 * nu / h2**2)
        put(k, k + 1, -nu / h2**2)
        rhs[k] = fx
    put(i1 + m1, i1 + m1, 1.0)  # upper wall
    for k in range(1, m1):
        put(i1 + k, i1 + k - 1, -nu / h1**2)
        put(i1 + k, i1 + k, 2.0 * nu / h1**2)
        put(i1 + k, i1 + k + 1, -nu / h1**2)
        rhs[i1 + k] = fx

    # one-sided derivatives at the interface: u2'(0) from below, u1'(0) above
    d2 = [(m2, 3.0 / (2.0 * h2)), (m2 - 1, -4.0 / (2.0 * h2)), (m2 - 2, 1.0 / (2.0 * h2))]
    d1 = [(i1, -3.0 / (2.0 * h1)), (i1 + 1, 4.0 / (2.0 * h1)), (i1 + 2, -1.0 / (2.0 * h1))]
    if np.isinf(alpha):
        put(m2, m2, 1.0)  # trace equality
        put(m2, i1, -1.0)
        for c, v in d1:  # shear continuity u1'(0) = u2'(0)
            put(i1, c, v)
        for c, v in d2:
            put(i1, c, -v)
    else:
        # nu u2'(0) + alpha u2(0) - alpha u1(0) = 0
        for c, v in d2:
            put(m2, c, nu * v)
        put(m2, m2, alpha)
        put(m2, i1, -alpha)
        # -nu u1'(0) + alpha u1(0) - alpha u2(0) = 0
        for c, v in d1:
            put(i1, c, -nu * v)
        put(i1, i1, alpha)
        put(i1, m2, -alpha)

    matrix = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    u = scipy.sparse.linalg.spsolve(matrix.tocsc(), rhs)
    return ChannelSamples(z_upper=z1, u_upper=u[i1:], z_lower=z2, u_lower=u[: m2 + 1])


# ---------------------------------------------------------------------------
# norms and the energy balance


def l2_norm(field: CoupledField) -> float:
    """Combined velocity L2 norm over both layers."""
    return field.disc.velocity_l2(field.u1, field.u2)


def w_norm(field: CoupledField) -> float:
    """Energy norm: viscosity-weighted gradient form summed over the layers."""
    d = field.disc
    return float(
        np.sqrt(field.u1 @ (d.op_upper.viscous @ field.u1) + field.u2 @ (d.op_lower.viscous @ field.u2))
    )


def jump_norm(field: CoupledField) -> float:
    """L2 norm of the horizontal interface trace difference (no alpha factor)."""
    return field.disc.jump_l2(field.u1, field.u2)


def energy_residual(field: CoupledField, alpha: float | None = None) -> float:
    """Relative defect of the energy balance for a friction solution.

    alpha defaults to the coefficient the field was solved with.  For the
    continuity limit (alpha = inf) the jump term is omitted: the jump is
    identically zero there by dof identification.
    """
    if alpha is None:
        alpha = field.alpha_used
    d = field.disc
    lhs = w_norm(field) ** 2
    if not np.isinf(alpha):
        lhs += alpha * jump_norm(field) ** 2
    rhs = float(d.op_upper.load @ field.u1 + d.op_lower.load @ field.u2)
    return abs(lhs - rhs) / max(abs(rhs), float(np.finfo(np.float64).tiny))


def _difference(a: CoupledField, b: CoupledField) -> CoupledField:
    return dataclasses.replace(
        a, u1=a.u1 - b.u1, p1=a.p1 - b.p1, u2=a.u2 - b.u2, p2=a.p2 - b.p2
    )


# ---------------------------------------------------------------------------
# friction-coefficient sweep


@dataclass(frozen=True)
class SweepRow:
    """One friction coefficient's results.  n_iterations and converged come
    from the alternating solver; the three diagnostic columns are computed
    from the monolithic friction solution (the alternating iterate would
    fold its own truncation error into them).  error records a per-row
    failure; its diagnostic columns are NaN."""

    alpha: float
    n_iterations: int
    converged: bool
    w_dist_to_continuity: float
    jump_l2: float
    energy_residual: float
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]

    @property
    def alphas(self) -> np.ndarray:
        return np.array([r.alpha for r in self.rows])

    @property
    def n_iterations(self) -> np.ndarray:
        return np.array([r.n_iterations for r in self.rows])


def _sweep_row(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    disc: Discretization,
    continuity: CoupledField,
    alpha: float,
    tol_increment: float,
    max_iter: int,
) -> SweepRow:
    try:
        mono = solve_monolithic_friction(
            mesh, nu1, nu2, force1, force2, alpha=alpha, disc=disc
        )
        config = SchwarzConfig(alpha=alpha, tol_increment=tol_increment, max_iter=max_iter)
        report = schwarz_solve(mesh, nu1, nu2, force1, force2, config, disc=disc)
        return SweepRow(
            alpha=alpha,
            n_iterations=report.n_iterations,
            converged=report.converged,
            w_dist_to_continuity=w_norm(_difference(mono, continuity)),
            jump_l2=jump_norm(mono),
            energy_residual=energy_residual(mono),
        )
    except Exception as exc:  # per-row failures are data; the sweep continues
        nan = float("nan")
        return SweepRow(
            alpha=alpha,
            n_iterations=0,
            converged=False,
            w_dist_to_continuity=nan,
            jump_l2=nan,
            energy_residual=nan,
            error=f"{type(exc).__name__}: {exc}",
        )


def check_alphas(alphas) -> list[float]:
    """The friction coefficients of a sweep as floats: nonempty, finite,
    >= 0 and strictly ascending, else ValueError."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must be nonempty")
    if any(not (np.isfinite(a) and a >= 0.0) for a in alphas):
        raise ValueError("alphas must be finite and >= 0")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly ascending")
    return alphas


def run_alpha_sweep(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    alphas,
    tol_increment: float = 1e-3,
    max_iter: int = 100_000,
    jobs: int = 1,
) -> SweepResult:
    """Monolithic + alternating solves for each friction coefficient.

    alphas must pass `check_alphas`.  The continuity
    reference is solved once on the same mesh, so the distance column
    isolates the pure coefficient effect.  jobs > 1 runs rows concurrently
    (each row is independent); row order in the result is always the input
    order.
    """
    alphas = check_alphas(alphas)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    disc = discretize(mesh, nu1, nu2, force1, force2)
    continuity = solve_monolithic_continuity(mesh, nu1, nu2, force1, force2, disc=disc)

    def row(alpha: float) -> SweepRow:
        return _sweep_row(
            mesh, nu1, nu2, force1, force2, disc, continuity, alpha, tol_increment, max_iter
        )

    if jobs == 1:
        rows = [row(a) for a in alphas]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(row, alphas))
    return SweepResult(rows=rows)
