"""Solution drivers for the two-layer problem.

Monolithic solves assemble both layers into one system.  Friction borders
the uncoupled system with an interface-traction multiplier lam = alpha *
jump on the periodic trace, [[A, B^T], [B, -M_p / alpha]]: eliminating lam
gives the alpha-weighted penalty system, but no matrix entry grows with
alpha, so every friction solve is certified at the caller's tolerance.
Continuity identifies the two horizontal traces (the alpha = inf limit).
The alternating solver decomposes by layer: starting from
an upper-layer solve against a zero neighbor trace, it repeatedly solves the
lower layer against the newest upper trace and then the upper layer against
the newest lower trace (Robin half-steps with the friction coefficient), and
stops when the L2 norm of the velocity increment over both layers drops below
a tolerance.  Each half-step matrix is independent of the exchanged trace, so
both factorizations are computed once and reused.

`dirichlet_exchange_demo` runs the same alternation with pure Dirichlet trace
exchange instead: each solve copies the imposed trace verbatim, so the traces
freeze after the first exchange and the iteration stagnates away from the
coupled solution.  It exists to demonstrate why the Robin exchange is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import fem
from .fem import (
    BodyForce,
    CouplingMode,
    MixedSpace,
    SparseSystem,
    StokesOperator,
    assemble_coupled_system,
    assemble_dirichlet_subproblem,
    assemble_interface_friction,
    assemble_robin_subproblem,
    assemble_stokes,
    build_space,
    check_periodic_trace,
    dirichlet_trace_lift,
)
from .linalg import CsrMatrix, factorize, solve
from .mesh import Mesh, Subdomain

__all__ = [
    "Discretization",
    "CoupledField",
    "SchwarzConfig",
    "IterationRecord",
    "ConvergenceReport",
    "StagnationReport",
    "discretize",
    "solve_monolithic_friction",
    "solve_monolithic_continuity",
    "schwarz_solve",
    "dirichlet_exchange_demo",
]


@dataclass(frozen=True)
class Discretization:
    """Mesh, physics, per-layer spaces and raw operators, shared by solvers
    and by the norm/diagnostic routines."""

    mesh: Mesh
    nu1: float
    nu2: float
    force1: BodyForce
    force2: BodyForce
    space_upper: MixedSpace
    space_lower: MixedSpace
    op_upper: StokesOperator
    op_lower: StokesOperator
    trace_mass: scipy.sparse.csr_matrix = field(repr=False)

    def space(self, sub: Subdomain) -> MixedSpace:
        return self.space_upper if sub == Subdomain.UPPER else self.space_lower

    def op(self, sub: Subdomain) -> StokesOperator:
        return self.op_upper if sub == Subdomain.UPPER else self.op_lower

    def trace_of(self, sub: Subdomain, u: np.ndarray) -> np.ndarray:
        """Horizontal velocity at the interface nodes, ascending x."""
        return u[2 * self.space(sub).interface_nodes]

    def velocity_l2(self, u1: np.ndarray, u2: np.ndarray) -> float:
        """L2 norm of a two-layer velocity field from raw coefficient vectors."""
        return float(
            np.sqrt(u1 @ (self.op_upper.mass @ u1) + u2 @ (self.op_lower.mass @ u2))
        )

    def jump_l2(self, u1: np.ndarray, u2: np.ndarray) -> float:
        d = self.trace_of(Subdomain.UPPER, u1) - self.trace_of(Subdomain.LOWER, u2)
        return float(np.sqrt(d @ (self.trace_mass @ d)))


def discretize(
    mesh: Mesh, nu1: float, nu2: float, force1: BodyForce, force2: BodyForce
) -> Discretization:
    space_u = build_space(mesh, Subdomain.UPPER)
    space_l = build_space(mesh, Subdomain.LOWER)
    return Discretization(
        mesh=mesh,
        nu1=nu1,
        nu2=nu2,
        force1=force1,
        force2=force2,
        space_upper=space_u,
        space_lower=space_l,
        op_upper=assemble_stokes(space_u, nu1, force1),
        op_lower=assemble_stokes(space_l, nu2, force2),
        trace_mass=assemble_interface_friction(space_u, space_l),
    )


@dataclass(frozen=True)
class CoupledField:
    """Raw per-layer coefficient vectors of one coupled solution.

    alpha_used is the friction coefficient the field was solved with
    (0 <= alpha < inf for friction mode, inf for the continuity-coupled
    limit); disc carries the discretization the vectors live on.
    """

    disc: Discretization
    alpha_used: float
    u1: np.ndarray
    p1: np.ndarray
    u2: np.ndarray
    p2: np.ndarray

    def interface_trace(self, sub: Subdomain) -> np.ndarray:
        u = self.u1 if sub == Subdomain.UPPER else self.u2
        return self.disc.trace_of(sub, u)


def _field_from_solution(disc: Discretization, layout, x: np.ndarray, alpha_used: float) -> CoupledField:
    out = layout.expand(x)
    return CoupledField(
        disc=disc,
        alpha_used=alpha_used,
        u1=out[(Subdomain.UPPER, "velocity")],
        p1=out[(Subdomain.UPPER, "pressure")],
        u2=out[(Subdomain.LOWER, "velocity")],
        p2=out[(Subdomain.LOWER, "pressure")],
    )


def _friction_multiplier_system(
    system: SparseSystem, trace_mass: scipy.sparse.csr_matrix, alpha: float
) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """Border the uncoupled two-layer system with the interface traction.

    The multiplier lam lives on the n_trace - 1 periodic trace dofs (the
    x = L node is the x = 0 node).  With T_upper / T_lower the layout's
    `trace_map`s, taking solved unknowns to the full horizontal traces, and
    P folding the full trace onto the periodic one, B = P^T M (T_upper -
    T_lower) and M_p = P^T M P, and the system is

        [[-M_p / alpha, B], [B^T, A]] [lam; x] = [0; b].

    The first row gives lam = alpha * jump, so eliminating lam recovers the
    penalty matrix A + alpha (T_u - T_l)^T P^T M P (T_u - T_l) exactly, while
    every entry stays O(1) or O(1/alpha) instead of O(alpha).  The multiplier
    comes first; the minimum-degree ordering of `linalg.factorize` makes the
    placement immaterial: on 64x32x8 at alpha = 10 the L+U fill is 5,660,504
    with the multiplier first and 5,660,649 with it last.
    """
    layout = system.layout
    n_trace = trace_mass.shape[0]
    fold = scipy.sparse.csr_matrix(
        (np.ones(n_trace), (np.arange(n_trace), np.append(np.arange(n_trace - 1), 0))),
        shape=(n_trace, n_trace - 1),
    )
    fold_mass = fold.T @ trace_mass
    b = fold_mass @ (layout.trace_map(Subdomain.UPPER) - layout.trace_map(Subdomain.LOWER))
    c = -(fold_mass @ fold) / alpha
    matrix = scipy.sparse.bmat([[c, b], [b.T, system.matrix.to_scipy()]], format="csr")
    return matrix, np.concatenate([np.zeros(n_trace - 1), system.rhs])


def solve_monolithic_friction(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    alpha: float,
    solver_tol: float = 1e-10,
    disc: Discretization | None = None,
) -> CoupledField:
    """Both layers in one system, coupled by the friction law through an
    interface-traction multiplier (see `_friction_multiplier_system`).

    Solving for the traction lam = alpha * jump instead of adding an
    alpha-weighted trace-jump penalty keeps the matrix entries independent
    of the size of alpha, so the energy identity holds near roundoff and the
    solve is certified at solver_tol for every finite alpha.  alpha = 0
    leaves lam = 0: the two layers are solved uncoupled.
    """
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"friction mode needs a finite friction coefficient >= 0, got {alpha}")
    if disc is None:
        disc = discretize(mesh, nu1, nu2, force1, force2)
    system = assemble_coupled_system(disc.op_upper, disc.op_lower, CouplingMode.UNCOUPLED)
    if alpha == 0.0:
        x, _ = solve(system.matrix, system.rhs, tol=solver_tol)
    else:
        matrix, rhs = _friction_multiplier_system(system, disc.trace_mass, alpha)
        x, _ = solve(CsrMatrix.from_scipy(matrix), rhs, tol=solver_tol)
    return _field_from_solution(disc, system.layout, x[-system.layout.n_rows :], alpha)


def solve_monolithic_continuity(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    solver_tol: float = 1e-10,
    disc: Discretization | None = None,
) -> CoupledField:
    """Both layers with the horizontal interface traces identified (the
    infinite-friction limit)."""
    if disc is None:
        disc = discretize(mesh, nu1, nu2, force1, force2)
    system = assemble_coupled_system(disc.op_upper, disc.op_lower, CouplingMode.CONTINUITY)
    x, _ = solve(system.matrix, system.rhs, tol=solver_tol)
    return _field_from_solution(disc, system.layout, x, float("inf"))


@dataclass(frozen=True)
class SchwarzConfig:
    """Parameters of the alternating solver.

    tol_increment is compared against the L2 norm of the velocity increment
    between consecutive full iterations (one lower and one upper half-step).
    """

    alpha: float
    tol_increment: float = 1e-3
    max_iter: int = 100_000
    initial_neighbor_trace: np.ndarray | None = None
    solver_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"friction coefficient must be finite and >= 0, got {self.alpha}")
        if not (self.tol_increment > 0.0):
            raise ValueError(f"tol_increment must be positive, got {self.tol_increment}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    increment_l2: float
    jump_l2: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of the alternating solver.  converged=False (DidNotConverge)
    is data, not an error: final holds the last iterate either way."""

    converged: bool
    n_iterations: int
    records: list[IterationRecord]
    final: CoupledField

    @property
    def increments(self) -> np.ndarray:
        return np.array([r.increment_l2 for r in self.records])


class _RobinSide:
    """One layer's prefactorized Robin half-step solver."""

    def __init__(self, disc: Discretization, sub: Subdomain, alpha: float, solver_tol: float):
        space = disc.space(sub)
        zero = np.zeros(len(space.interface_nodes))
        system = assemble_robin_subproblem(disc.op(sub), alpha, zero)
        self.sub = sub
        self.space = space
        self.alpha = alpha
        self.solver_tol = solver_tol
        self.layout = system.layout
        self.base_rhs = system.rhs  # neighbor trace contributes nothing at zero
        self.factorization = factorize(system.matrix)
        self.trace_mass = disc.trace_mass
        self.inject = self.layout.trace_map(sub).T.tocsr()

    def solve(self, neighbor_trace: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (raw velocity vector, raw pressure vector)."""
        rhs = self.base_rhs + self.inject @ (self.alpha * (self.trace_mass @ neighbor_trace))
        x, _ = self.factorization.solve(rhs, tol=self.solver_tol)
        out = self.layout.expand(x)
        return out[(self.sub, "velocity")], out[(self.sub, "pressure")]


def schwarz_solve(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    config: SchwarzConfig,
    disc: Discretization | None = None,
) -> ConvergenceReport:
    """Alternating Robin solver.

    Step 1 solves the upper layer against `initial_neighbor_trace` (zero by
    default).  Iteration n then solves the lower layer against the current
    upper trace and the upper layer against the new lower trace, in that
    order, and stops at the first n where the combined velocity increment
    has L2 norm below tol_increment; hitting max_iter first is reported as
    converged=False.
    """
    if disc is None:
        disc = discretize(mesh, nu1, nu2, force1, force2)
    upper = _RobinSide(disc, Subdomain.UPPER, config.alpha, config.solver_tol)
    lower = _RobinSide(disc, Subdomain.LOWER, config.alpha, config.solver_tol)

    n_trace = len(upper.space.interface_nodes)
    g0 = config.initial_neighbor_trace
    if g0 is None:
        g0 = np.zeros(n_trace)
    g0 = np.asarray(g0, dtype=np.float64)
    if g0.shape != (n_trace,):
        raise ValueError(f"initial trace has shape {g0.shape}, expected ({n_trace},)")

    u1, p1 = upper.solve(g0)
    u2 = np.zeros(disc.space_lower.n_velocity_dofs)
    p2 = np.zeros(disc.space_lower.n_pressure_dofs)

    records: list[IterationRecord] = []
    converged = False
    n_done = 0
    for n in range(1, config.max_iter + 1):
        u2_new, p2_new = lower.solve(disc.trace_of(Subdomain.UPPER, u1))
        u1_new, p1_new = upper.solve(disc.trace_of(Subdomain.LOWER, u2_new))
        increment = disc.velocity_l2(u1_new - u1, u2_new - u2)
        u1, p1, u2, p2 = u1_new, p1_new, u2_new, p2_new
        records.append(
            IterationRecord(iteration=n, increment_l2=increment, jump_l2=disc.jump_l2(u1, u2))
        )
        n_done = n
        if increment < config.tol_increment:
            converged = True
            break

    final = CoupledField(disc=disc, alpha_used=config.alpha, u1=u1, p1=p1, u2=u2, p2=p2)
    return ConvergenceReport(
        converged=converged, n_iterations=n_done, records=records, final=final
    )


@dataclass(frozen=True)
class StagnationReport:
    """Trace history of the pure Dirichlet exchange.

    sides[k] labels the layer solved at half-step k; traces[k] is the
    interface trace of that solve.  deltas[k] = max |traces[k] -
    traces[k-1]|: identically the exchange copies the imposed data, so
    deltas vanish after the first exchange while the iterate stays frozen at
    the initial trace."""

    steps: int
    sides: list[str]
    traces: list[np.ndarray]
    deltas: list[float]
    final: CoupledField


class _DirichletSide:
    """One layer's prefactorized Dirichlet half-step solver: the matrix does
    not depend on the imposed trace, which enters the rhs through the lift."""

    def __init__(self, disc: Discretization, sub: Subdomain, solver_tol: float):
        op = disc.op(sub)
        self.sub = sub
        self.solver_tol = solver_tol
        self.ifx = 2 * op.space.interface_nodes
        system = assemble_dirichlet_subproblem(op, np.zeros(len(self.ifx)))
        self.layout = system.layout
        self.base_rhs = system.rhs
        self.lift = dirichlet_trace_lift(op, system.layout)
        self.factorization = factorize(system.matrix)

    def solve(self, trace: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (raw velocity vector, raw pressure vector)."""
        x, _ = self.factorization.solve(self.base_rhs - self.lift @ trace, tol=self.solver_tol)
        out = self.layout.expand(x)
        u = out[(self.sub, "velocity")]
        u[self.ifx] = trace
        return u, out[(self.sub, "pressure")]


def dirichlet_exchange_demo(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    steps: int,
    initial_trace: np.ndarray | None = None,
    solver_tol: float = 1e-10,
    disc: Discretization | None = None,
) -> StagnationReport:
    """Alternate single-layer solves exchanging pure Dirichlet traces.

    Each half-step imposes the neighbor's interface velocity pointwise, so
    its own trace equals the imposed data and nothing new is ever produced:
    the iteration stagnates at the initial trace instead of approaching the
    coupled solution.  Each layer is factorized once; only the rhs follows
    the imposed trace.  The initial trace must be periodic: its first and
    last entries sit on the identified nodes x = 0 and x = L."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if disc is None:
        disc = discretize(mesh, nu1, nu2, force1, force2)
    if initial_trace is None:
        g = np.zeros(len(disc.space_upper.interface_nodes))
    else:
        g = check_periodic_trace(disc.space_upper, initial_trace, "initial trace")

    sides: list[str] = []
    traces: list[np.ndarray] = []
    deltas: list[float] = []
    solvers = {}
    fields = {
        sub: (np.zeros(disc.space(sub).n_velocity_dofs), np.zeros(disc.space(sub).n_pressure_dofs))
        for sub in (Subdomain.UPPER, Subdomain.LOWER)
    }
    for k in range(steps):
        sub = Subdomain.UPPER if k % 2 == 0 else Subdomain.LOWER
        if sub not in solvers:
            solvers[sub] = _DirichletSide(disc, sub, solver_tol)
        fields[sub] = solvers[sub].solve(g)
        trace = disc.trace_of(sub, fields[sub][0])
        sides.append(sub.name.lower())
        if traces:
            deltas.append(float(np.max(np.abs(trace - traces[-1]))))
        traces.append(trace)
        g = trace
    (u1, p1), (u2, p2) = fields[Subdomain.UPPER], fields[Subdomain.LOWER]
    final = CoupledField(disc=disc, alpha_used=float("nan"), u1=u1, p1=p1, u2=u2, p2=p2)
    return StagnationReport(steps=steps, sides=sides, traces=traces, deltas=deltas, final=final)
