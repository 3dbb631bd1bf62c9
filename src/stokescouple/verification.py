"""Analytic oracles, norms, energy diagnostics, and the friction-sweep harness.

The default setup (unit viscosities, constant body force, x-periodic strip)
has an exact solution that is independent of x with zero vertical velocity
and piecewise-quadratic horizontal velocity; `channel_exact` evaluates it
from the closed-form coefficients.

Norms are discrete quadratic forms over raw coefficient vectors: `l2_norm`
uses the velocity mass matrices, `w_norm` the viscosity-weighted gradient
form (the energy inner product of the coupled problem), and `jump_norm` the
interface trace mass matrix.  `energy_residual` checks the balance

    nu1 ||grad u1||^2 + nu2 ||grad u2||^2 + alpha ||jump||^2 = (F, U)

satisfied exactly (up to solver precision) by every friction solution.

`run_alpha_sweep` runs, for each friction coefficient, the monolithic solve
(for the distance-to-continuity, jump and energy columns) and the
alternating solver (for the iteration-count column), against one shared
continuity reference solution.  Every row shares one discretization, so the
alternating solver's alpha-free interface cores are built once per sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

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
    "SweepRow",
    "SweepResult",
    "channel_coefficients",
    "channel_exact",
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


def energy_residual(field: CoupledField) -> float:
    """Relative defect of the energy balance for a friction solution, at the
    coefficient the field was solved with (`alpha_used`).  For the
    continuity limit (alpha = inf) the jump term is omitted: the jump is
    identically zero there by dof identification.
    """
    d, alpha = field.disc, field.alpha_used
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


def _failed_row(alpha: float, exc: Exception) -> SweepRow:
    nan = float("nan")
    return SweepRow(
        alpha=alpha, n_iterations=0, converged=False, w_dist_to_continuity=nan,
        jump_l2=nan, energy_residual=nan, error=f"{type(exc).__name__}: {exc}",
    )


def _monolithic_row(d: Discretization, continuity: CoupledField, alpha: float) -> SweepRow:
    """A row's diagnostic columns, from the monolithic friction solve."""
    try:
        mono = solve_monolithic_friction(d.mesh, d.nu1, d.nu2, d.force1, d.force2, alpha, disc=d)
        return SweepRow(
            alpha=alpha, n_iterations=0, converged=False,
            w_dist_to_continuity=w_norm(_difference(mono, continuity)),
            jump_l2=jump_norm(mono), energy_residual=energy_residual(mono),
        )
    except Exception as exc:  # per-row failures are data; the sweep continues
        return _failed_row(alpha, exc)


def _alternating_row(
    d: Discretization, row: SweepRow, tol_increment: float, max_iter: int
) -> SweepRow:
    """The row with the alternating solver's columns, or its failure."""
    if row.error is not None:
        return row
    try:
        config = SchwarzConfig(alpha=row.alpha, tol_increment=tol_increment, max_iter=max_iter)
        report = schwarz_solve(d.mesh, d.nu1, d.nu2, d.force1, d.force2, config, disc=d)
        return dataclasses.replace(row, n_iterations=report.n_iterations, converged=report.converged)
    except Exception as exc:
        return _failed_row(row.alpha, exc)


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
) -> SweepResult:
    """Monolithic + alternating solves for each friction coefficient.

    alphas must pass `check_alphas`.  The continuity
    reference is solved once on the same mesh, so the distance column
    isolates the pure coefficient effect, and the alternating solver's
    interface cores are factored once for every alpha.  Rows are in the
    input order.
    """
    alphas = check_alphas(alphas)
    disc = discretize(mesh, nu1, nu2, force1, force2)
    continuity = solve_monolithic_continuity(mesh, nu1, nu2, force1, force2, disc=disc)
    # Every monolithic solve comes before the first alternating one, which
    # caches the interface cores on disc: no monolithic factorization is
    # alive beside them, and the sweep peaks no higher than its solves do.
    rows = [_monolithic_row(disc, continuity, a) for a in alphas]
    return SweepResult(rows=[_alternating_row(disc, r, tol_increment, max_iter) for r in rows])
