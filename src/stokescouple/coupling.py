"""Solution drivers for the two-layer problem.

Monolithic solves factor one two-layer system (`fem.assemble_coupled_system`),
one reduction of both layers: friction borders it with an interface-traction
multiplier lam = alpha * jump, so no matrix entry grows with alpha and every
friction solve is certified at one tolerance; continuity identifies the two
horizontal traces in it (the alpha = inf limit).  The alternating solver
decomposes by layer: starting from an upper-layer solve against a zero
neighbor trace, it repeatedly solves the lower layer against the newest
upper trace and then the upper layer against the newest lower trace (Robin
half-steps with the friction coefficient), and stops when the L2 norm of
the velocity increment over both layers drops below a tolerance.  A Robin
half-step is the layer's friction-free problem driven by the traction lam =
alpha * (neighbor trace - own trace), the monolithic multiplier on one
layer.  Each layer's friction-free matrix (`fem.assemble_robin_subproblem`)
is factored once per `Discretization`, for one certified block solve of
three columns that spans its traction-to-trace map: the layer repeats
along x, so every other column is a shift of one of them, and the map is
block-circulant.  The factorization is then dropped; alpha enters only
dense algebra on the n_trace - 1 periodic trace unknowns, and a half-step
is an affine map of the neighbor trace.  The iteration runs on traces of
length n_trace = 2 nx + 1 alone, the increment norm exact through Gram
matrices of each layer's velocity response, as the map s <- a + K s of the
upper trace, advanced a block of iterations per numpy call through the
powers of K.  When it stops, each layer's field is rebuilt from its three
solved columns by a convolution along x and certified by a product of the
layer's matrix; a run factors nothing.  The monolithic solves share only
the layers' Stokes operators with it: they assemble and factor their own
two-layer matrix.

`dirichlet_exchange_demo` shows why the Robin exchange is used.  A pure
Dirichlet half-step imposes the neighbor trace as a constraint on the
friction-free system, so its own trace is the data it was given: its map on
the trace is the identity, the traces freeze at the initial one, and the
exchange stagnates away from the coupled solution.  The demo iterates that
map on the trace and solves each layer it touches once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse

from .fem import (
    BodyForce,
    MixedSpace,
    StokesOperator,
    assemble_coupled_system,
    assemble_dirichlet_subproblem,
    assemble_interface_friction,
    assemble_robin_subproblem,
    assemble_stokes,
    build_space,
    periodic_fold,
)
from .linalg import X_FOURIER, SolveReport, certify, factorize, solve
from .mesh import Mesh, Subdomain

__all__ = [
    "Discretization",
    "CoupledField",
    "SchwarzConfig",
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

    @cached_property
    def interface_cores(self) -> dict[Subdomain, _InterfaceCore]:
        """Each layer's alpha-free Robin core, upper first, built on first use
        and kept for every later alternating solve; it holds no reference
        back to self."""
        subs = (Subdomain.UPPER, Subdomain.LOWER)
        return {sub: _InterfaceCore(self.op(sub), self.trace_mass) for sub in subs}


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


def _discretization(
    mesh: Mesh, nu1: float, nu2: float, force1: BodyForce, force2: BodyForce,
    disc: Discretization | None,
) -> Discretization:
    """`disc` when it was built from these inputs, a new discretization when
    it is None; a `disc` of other inputs is a ValueError naming the first
    argument that differs."""
    if disc is None:
        return discretize(mesh, nu1, nu2, force1, force2)
    if disc.mesh is not mesh:
        raise ValueError("disc was built on another mesh")
    given = {"nu1": nu1, "nu2": nu2, "force1": force1, "force2": force2}
    for name, value in given.items():
        if getattr(disc, name) != value:
            raise ValueError(f"disc was built with {name}={getattr(disc, name)!r}, not {value!r}")
    return disc


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


def _solve_coupled(disc: Discretization, alpha: float) -> CoupledField:
    """One certified solve of the two-layer system at 0 <= alpha <= inf."""
    system = assemble_coupled_system(disc.op_upper, disc.op_lower, alpha)
    x, _ = solve(system.matrix, system.rhs)
    out = system.layout.expand(x)
    (u1, p1), (u2, p2) = (
        (out[(sub, "velocity")], out[(sub, "pressure")])
        for sub in (Subdomain.UPPER, Subdomain.LOWER)
    )
    return CoupledField(disc=disc, alpha_used=alpha, u1=u1, p1=p1, u2=u2, p2=p2)


def solve_monolithic_friction(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    alpha: float,
    disc: Discretization | None = None,
) -> CoupledField:
    """Both layers in one system, coupled by the friction law through an
    interface-traction multiplier (see `fem.assemble_coupled_system`).

    Solving for the traction lam = alpha * jump instead of adding an
    alpha-weighted trace-jump penalty keeps the matrix entries independent
    of the size of alpha, so the energy identity holds near roundoff and the
    solve is certified at one tolerance for every finite alpha.  alpha = 0
    leaves lam = 0: the two layers are solved uncoupled.
    """
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"friction mode needs a finite friction coefficient >= 0, got {alpha}")
    disc = _discretization(mesh, nu1, nu2, force1, force2, disc)
    return _solve_coupled(disc, alpha)


def solve_monolithic_continuity(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    disc: Discretization | None = None,
) -> CoupledField:
    """Both layers with the horizontal interface traces identified (the
    infinite-friction limit)."""
    disc = _discretization(mesh, nu1, nu2, force1, force2, disc)
    return _solve_coupled(disc, float("inf"))


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

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"friction coefficient must be finite and >= 0, got {self.alpha}")
        if not (self.tol_increment > 0.0):
            raise ValueError(f"tol_increment must be positive, got {self.tol_increment}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of the alternating solver.  converged=False (DidNotConverge)
    is data, not an error: final holds the last iterate either way.

    setup_reports holds the one certified block solve that spanned each
    layer's interface core (upper first), built once per `Discretization`:
    every run on one discretization reports the same solves.
    reconstruction_reports holds the certifications of the upper and the
    lower field, each rebuilt from its core's solved columns against the
    last traces: the set-up's report with the rebuilt field's residual (a
    product of the layer's matrix) and solve_s the seconds of the rebuild.
    setup_s is this run's time for both half-step maps: the cores, near
    zero once an earlier run built them, and the per-alpha dense algebra.
    iterate_s is the time of the trace iteration and the reconstruction.
    """

    converged: bool
    n_iterations: int
    increments: np.ndarray  # increment_l2 of every iteration
    jumps: np.ndarray  # jump_l2 of every iteration
    final: CoupledField
    setup_reports: tuple[SolveReport, ...]
    reconstruction_reports: tuple[SolveReport, SolveReport]
    setup_s: float
    iterate_s: float


def _check_trace(space: MixedSpace, trace: np.ndarray, what: str) -> np.ndarray:
    """A trace given at the layer's interface nodes, ascending x: one finite
    value per node."""
    trace = np.asarray(trace, dtype=np.float64)
    if trace.shape != (len(space.interface_nodes),):
        raise ValueError(
            f"{what} has shape {trace.shape}, expected ({len(space.interface_nodes)},)"
        )
    bad = np.flatnonzero(~np.isfinite(trace))
    if len(bad):
        raise ValueError(f"{what} must be finite, got {trace[bad[0]]} at interface node {bad[0]}")
    return trace


def check_periodic_trace(space: MixedSpace, trace: np.ndarray, what: str = "trace") -> np.ndarray:
    """A trace prescribed pointwise at the layer's interface nodes: one entry
    per node, and one value at the periodically identified end nodes x = 0
    and x = L (the reduction keeps a single dof for both)."""
    trace = _check_trace(space, trace, what)
    if trace[0] != trace[-1]:
        raise ValueError(
            f"{what} must be periodic, got {trace[0]} at x = 0 and {trace[-1]} at x = L"
        )
    return trace


def _shift_rows(columns, n_reduced: int, traces: np.ndarray) -> np.ndarray:
    """The solved rows of each x-column a layer's span shifts along, (n, m):
    row [c, p] holds in-column position p of x-column c.  They are the
    x-columns of `columns` when trace dof j = q c + p sits in x-column c at
    the in-column position of dof p (q trace dofs per x-column); any other
    matrix, or None, is one x-column of every reduced row, which no shift
    moves.  The rows past n_reduced (the gauges) are in none."""
    if columns is not None and len(traces) % columns.nx == 0:
        rows = columns.rows()
        q = len(traces) // columns.nx
        hit = rows[0][:, None] == traces[:q]
        if hit.any(axis=0).all() and np.array_equal(rows[:, hit.argmax(axis=0)], traces.reshape(-1, q)):
            return rows
    return np.arange(n_reduced)[None, :]


def _circulant(first: np.ndarray) -> np.ndarray:
    """The block-circulant (n q, n q) matrix whose block (a, c) is
    first[(a - c) % n], from its first block column `first` (n, q, q)."""
    n, q = first.shape[:2]
    shift = (np.arange(n)[:, None] - np.arange(n)) % n
    return first[shift].transpose(0, 2, 1, 3).reshape(n * q, n * q)


class _InterfaceCore:
    """One layer driven by an interface traction: the alpha-free core of
    its Robin half-steps.

    `assemble_robin_subproblem` gives the layer with free tangential traction
    and E = T_p^T, which takes a traction y on the k = n_trace - 1 periodic
    trace dofs to the rhs: the solved vector is x0 + X y, the raw velocity
    u0 + R y.  On the layered mesh the matrix repeats from x-column to
    x-column (`factorize` checks it and reports X-FOURIER), and trace dof j =
    2 c + p, the vertex (p = 0) or the midpoint (p = 1) of cell column c, is
    dof p shifted by c x-columns.  So column j of X is column p shifted by c,
    with the gauge rows held (`_shift_rows`), and one certified block solve
    of [rhs(0), E[:, 0], E[:, 1]] spans the layer: X y is a convolution along
    x of y with the two traction fields, formed by `rfft`.  A matrix that is
    factored whole is one x-column of q = k trace dofs, and that block solve
    is [rhs(0), E].  The factorization is dropped once the columns are solved.

    Of the span only n_trace-sized products are kept beside the q + 1 solved
    columns: the periodic trace tau0 + S y (tau0 = T_p x0, S = T_p X), the
    traction pin = S^-1 tau0 that holds it at zero, and the Gram matrix V^T
    M_u V of V = [u0 - R pin, R] and the velocity mass M_u.  S and the R^T
    M_u R block of the Gram matrix are block-circulant with q x q blocks
    (P. J. Davis, *Circulant Matrices*, 1979): their first block columns are
    the traction fields' traces and the cross-correlations along x of the
    fields with their mass products, which the mass reduced to the solved
    rows keeps periodic (a raw x = L node repeats x = 0 and would not shift).

    `setup_reports` holds the one certified block solve; every field the
    core rebuilds (`solve`) is certified by a scipy product of the layer's
    matrix at the default tolerance.
    """

    def __init__(self, op: StokesOperator, trace_mass: scipy.sparse.csr_matrix):
        space = op.space
        self.sub = space.subdomain
        system, self.coupling = assemble_robin_subproblem(op)
        self.layout, self.rhs, matrix = system.layout, system.rhs, system.matrix
        self.product = matrix.to_scipy()
        factorization = factorize(matrix)
        layout, k = self.layout, self.coupling.shape[1]
        traces = self.coupling.tocsc().indices  # the solved row of each trace dof
        columns = matrix.columns if factorization.ordering == X_FOURIER else None
        self.rows = _shift_rows(columns, layout.n_reduced, traces)
        n, q = len(self.rows), k // len(self.rows)
        rhs = np.column_stack([self.rhs, self.coupling[:, :q].toarray()])
        self.x, report = factorization.solve(rhs)
        del factorization
        self.setup_reports = [report]
        self.tau0 = self.x[traces, 0]
        self.S = _circulant(self.x[traces, 1:].reshape(n, q, q))
        self.pin = np.linalg.solve(self.S, self.tau0)
        offset = layout.offsets[(space.subdomain, "velocity")]
        to_velocity = layout.reduction[offset : offset + space.n_velocity_dofs]
        reduced = slice(0, layout.n_reduced)
        v0 = self.x[reduced, 0] - self._shifted(self.pin)[reduced]  # u0 - R pin
        fields = np.column_stack([self.x[reduced, 1:], v0])
        weighted = to_velocity.T @ (op.mass @ (to_velocity @ fields))  # M_u on the solved rows
        # [a, r, s]: traction field r shifted by a x-columns against weighted s
        spectrum = np.matmul(
            np.fft.rfft(fields[self.rows, :q], axis=0).conj().transpose(0, 2, 1),
            np.fft.rfft(weighted[self.rows], axis=0),
        )
        correlation = np.fft.irfft(spectrum, n=n, axis=0)
        self.gram = np.empty((k + 1, k + 1))
        self.gram[1:, 1:] = _circulant(correlation[:, :, :q])
        self.gram[1:, 0] = self.gram[0, 1:] = correlation[:, :, q].reshape(k)
        self.gram[0, 0] = v0 @ weighted[:, q]
        fold = periodic_fold(k + 1)
        fold_mass = (fold.T @ trace_mass).toarray()  # P^T M
        mass_p = fold_mass @ fold  # M_p = P^T M P
        self.mass_s = mass_p @ self.S
        self.traction_rhs = np.column_stack([-(mass_p @ self.tau0), fold_mass])

    def _shifted(self, y: np.ndarray) -> np.ndarray:
        """X y = sum_j y_j shift_(j // q)(x_(1 + j % q)): the solved columns'
        response to the traction y, one FFT convolution along x; the gauge
        rows, which no shift moves, take sum_j y_j x_(1 + j % q)."""
        n, q = len(self.rows), self.x.shape[1] - 1
        y = y.reshape(n, q)
        spectrum = np.einsum(
            "kmp,kp->km", np.fft.rfft(self.x[self.rows, 1:], axis=0), np.fft.rfft(y, axis=0)
        )
        out = np.empty(len(self.x))
        out[self.rows] = np.fft.irfft(spectrum, n=n, axis=0)
        gauges = slice(self.layout.n_reduced, None)
        out[gauges] = self.x[gauges, 1:] @ y.sum(axis=0)
        return out

    def solve(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, SolveReport]:
        """The full field against the traction y, rebuilt from the solved
        columns as x0 + X y and certified by a product of the layer's matrix
        against rhs(0) + E y: (raw velocity, raw pressure, report).  The
        report is the set-up's with this residual and solve_s the seconds of
        the rebuild and its certification."""
        start = time.perf_counter()
        x = self.x[:, 0] + self._shifted(y)
        residual = certify(self.product, x, self.rhs + self.coupling @ y)
        report = replace(
            self.setup_reports[0], relative_residual=residual, solve_s=time.perf_counter() - start
        )
        out = self.layout.expand(x)
        return out[(self.sub, "velocity")], out[(self.sub, "pressure")], report

    def robin(self, alpha: float) -> _RobinMap:
        """The Robin half-step with friction coefficient alpha, an affine map
        of the neighbor trace g.

        Its traction y = alpha P^T M (g - P (tau0 + S y)), with M the trace
        mass and P the periodic fold, solves (I/alpha + M_p S) y = P^T M g -
        M_p tau0.  That matrix stays bounded as alpha grows, and S has no null
        direction on the periodic trace.  At alpha = 0, y = 0.

        The velocity at g = 0, u0 + R y0, is the small difference of two
        large terms (tau0 is 1250 on the upper layer, against a trace near
        40).  On the pinned field it is (u0 - R pin) + R z with z = y0 + pin
        = (I/alpha + M_p S)^-1 pin / alpha, which does not cancel; its trace
        is S z.  At alpha = 0, z = pin.
        """
        if not (np.isfinite(alpha) and alpha >= 0.0):
            raise ValueError(f"friction coefficient must be finite and >= 0, got {alpha}")
        if alpha == 0.0:
            return _RobinMap(self, np.zeros(self.traction_rhs.shape), self.pin)
        eye = np.eye(len(self.pin)) / alpha
        zy = np.linalg.solve(eye + self.mass_s, np.column_stack([self.pin / alpha, self.traction_rhs]))
        return _RobinMap(self, zy[:, 1:], zy[:, 0])


class _RobinMap:
    """One layer's Robin half-step at one alpha, whose traction is y [1; g]
    against the neighbor trace g (see `_InterfaceCore.robin`).

    On the core's basis V = [u0 - R pin, R] the velocity is V Y [1; g] with
    Y = [[1, 0], [z, y_g]], y = [y0, y_g].  Since u0 - R pin has no periodic
    trace, the trace map is t(g) = t0 + T g with [t0, T] = P S [z, y_g], and
    [[c, h^T], [h, G]] = Y^T gram Y: the squared L2 norm of the velocity
    u(g) is g^T G g + 2 h^T g + c (the lower layer's first increment, from
    the zero field), and that of an increment u(g + d) - u(g) is exactly
    d^T G d.  `solve` rebuilds the field at a neighbor trace from the core's
    solved columns, with no factorization.
    """

    def __init__(self, core: _InterfaceCore, y: np.ndarray, z: np.ndarray):
        self.core, self.y = core, y
        span = np.vstack([np.eye(1, y.shape[1]), np.column_stack([z, y[:, 1:]])])
        trace = core.S @ span[1:]
        trace = trace[np.append(np.arange(len(y)), 0)]  # P: x = L repeats x = 0
        self.t0, self.T = trace[:, 0], trace[:, 1:]
        gram = span.T @ core.gram @ span
        self.c, self.h, self.G = float(gram[0, 0]), gram[1:, 0], gram[1:, 1:]

    def trace(self, neighbor_trace: np.ndarray) -> np.ndarray:
        """This layer's interface trace after a half-step against neighbor_trace."""
        return self.t0 + self.T @ neighbor_trace

    def increment_sq(self, d: np.ndarray) -> float:
        """Squared velocity L2 norm of u(g + d) - u(g)."""
        return float(d @ (self.G @ d))

    def velocity_sq(self, g: np.ndarray) -> float:
        """Squared velocity L2 norm of u(g)."""
        return float(g @ (self.G @ g) + 2.0 * (self.h @ g) + self.c)

    def solve(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, SolveReport]:
        """Certified full-field half-step: (raw velocity, raw pressure, report),
        rebuilt by the core (`_InterfaceCore.solve`)."""
        return self.core.solve(self.y[:, 0] + self.y[:, 1:] @ g)


# Entries of the power stack [K, ..., K^B] of the trace iteration: B
# n_trace^2 doubles, at most 512 KiB, and at most 64 iterations per block.
_STACK_ENTRIES = 65536
_MAX_BLOCK = 64


def _block_iterations(n_trace: int) -> int:
    """Iterations B advanced per block of the trace loop."""
    return max(1, min(_MAX_BLOCK, _STACK_ENTRIES // n_trace**2))


def _power_stack(k: np.ndarray, a: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """The powers K, ..., K^block stacked into one (block n, n) matrix, and
    the offsets c_j = a + K a + ... + K^(j-1) a, so that the affine iteration
    s <- a + K s maps s_m to s_(m+j) = c_j + K^j s_m."""
    n = len(a)
    powers = np.empty((block, n, n))
    offsets = np.empty((block, n))
    powers[0], offsets[0] = k, a
    for j in range(1, block):
        powers[j] = k @ powers[j - 1]
        offsets[j] = a + k @ offsets[j - 1]
    return powers.reshape(block * n, n), offsets


def schwarz_solve(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    config: SchwarzConfig,
    disc: Discretization | None = None,
) -> ConvergenceReport:
    """Alternating Robin solver, iterated on the interface traces.

    Step 1 solves the upper layer against `initial_neighbor_trace` (zero by
    default).  Iteration n then solves the lower layer against the current
    upper trace and the upper layer against the new lower trace, in that
    order, and stops at the first n where the combined velocity increment
    has L2 norm below tol_increment; hitting max_iter first is reported as
    converged=False.

    Each half-step is applied through its affine map (`_RobinMap`, from the
    layer's cached `Discretization.interface_cores`), so after iteration 1
    the upper trace follows s_n = a + K s_(n-1) with K = T_upper T_lower.
    The loop advances it B iterations per step (`_block_iterations`): the
    stack [K, ..., K^B] and its offsets map the current s_n to the next B
    traces at once, from the exact current trace, so no error carries from
    block to block.  The increment norm is
    exact through the Gram matrices and jump_l2 comes from the two traces
    and the trace mass; a block stops at its first increment below
    tol_increment, so the counts are those of one-step-at-a-time iteration.
    At the stop each layer's field is rebuilt from its core's solved columns
    against the neighbor trace its last half-step saw, and certified.
    """
    disc = _discretization(mesh, nu1, nu2, force1, force2, disc)
    n_trace = len(disc.space_upper.interface_nodes)
    g0 = config.initial_neighbor_trace
    if g0 is None:
        g0 = np.zeros(n_trace)
    g0 = _check_trace(disc.space_upper, g0, "initial trace")

    start = time.perf_counter()
    upper, lower = (core.robin(config.alpha) for core in disc.interface_cores.values())
    setup_s = time.perf_counter() - start

    start = time.perf_counter()
    trace_mass = disc.trace_mass.toarray()
    # Iteration 1 starts from g0 and from the lower layer's zero field.
    s_prev = upper.trace(g0)  # s_0, the upper trace iteration 1 starts from
    t_lower = lower.trace(s_prev)
    s = upper.trace(t_lower)  # s_1
    increment = np.sqrt(upper.increment_sq(t_lower - g0) + lower.velocity_sq(s_prev))
    jump = s - t_lower
    increments = [np.array([increment])]
    jumps = [np.array([np.sqrt(jump @ (trace_mass @ jump))])]
    converged = bool(increment < config.tol_increment)
    n_done = 1
    if not converged and config.max_iter > 1:
        # From iteration 2 on, s_n = a + K s_{n-1} with K = T_upper T_lower,
        # and the increment of iteration n is the quadratic form of
        # delta = s_{n-1} - s_{n-2}: T_lower delta is the upper layer's
        # neighbor-trace change, delta the lower layer's.
        gram = lower.T.T @ upper.G @ lower.T + lower.G
        block = min(_block_iterations(n_trace), config.max_iter - 1)
        powers, offsets = _power_stack(upper.T @ lower.T, upper.trace(lower.t0), block)
        while not converged and n_done < config.max_iter:
            b = min(block, config.max_iter - n_done)
            # chain = s_{n-1}, s_n, ..., s_{n+b} for n = n_done
            chain = np.empty((b + 2, n_trace))
            chain[0], chain[1] = s_prev, s
            chain[2:] = offsets[:b] + (powers[: b * n_trace] @ s).reshape(b, n_trace)
            delta = chain[1:-1] - chain[:-2]
            increment = np.sqrt(np.einsum("ij,ij->i", delta @ gram, delta))
            jump = chain[2:] - chain[1:-1] @ lower.T.T - lower.t0
            below = np.flatnonzero(increment < config.tol_increment)
            if len(below):
                b = int(below[0]) + 1
                converged = True
            increments.append(increment[:b])
            jumps.append(np.sqrt(np.einsum("ij,ij->i", jump[:b] @ trace_mass, jump[:b])))
            s_prev, s = chain[b], chain[b + 1]
            n_done += b
    # The last iteration's half-steps saw g_lower = s_{n-1} and g_upper =
    # the lower trace it produced.
    g_lower = s_prev
    g_upper = lower.trace(g_lower)

    u1, p1, report_upper = upper.solve(g_upper)
    u2, p2, report_lower = lower.solve(g_lower)
    iterate_s = time.perf_counter() - start
    final = CoupledField(disc=disc, alpha_used=config.alpha, u1=u1, p1=p1, u2=u2, p2=p2)
    return ConvergenceReport(
        converged=converged,
        n_iterations=n_done,
        increments=np.concatenate(increments),
        jumps=np.concatenate(jumps),
        final=final,
        setup_reports=tuple(upper.core.setup_reports + lower.core.setup_reports),
        reconstruction_reports=(report_upper, report_lower),
        setup_s=setup_s,
        iterate_s=iterate_s,
    )


@dataclass(frozen=True)
class StagnationReport:
    """Trace history of the pure Dirichlet exchange.

    sides[k] labels the layer solved at half-step k; traces[k] is half-step
    k's imposed data, which its solve reproduces as its own trace.  deltas[k]
    = max |traces[k+1] - traces[k]|: the exchange copies the imposed data, so
    every trace is the initial one and every delta is zero.  final holds the
    field of each layer that a half-step solved, and a zero field for a layer
    that none did."""

    steps: int
    sides: list[str]
    traces: list[np.ndarray]
    deltas: list[float]
    final: CoupledField


def dirichlet_exchange_demo(
    mesh: Mesh,
    nu1: float,
    nu2: float,
    force1: BodyForce,
    force2: BodyForce,
    steps: int,
    initial_trace: np.ndarray | None = None,
    disc: Discretization | None = None,
) -> StagnationReport:
    """Alternate single-layer solves exchanging pure Dirichlet traces,
    upper layer first.

    Each half-step imposes the neighbor's interface velocity pointwise, so
    its own trace is the imposed data: its map on the trace is the identity,
    and the iteration stagnates at the initial trace instead of approaching
    the coupled solution.  Each layer a half-step touches (the lower one from
    steps = 2 on) is solved once, against the initial trace, by one certified
    solve of its friction-free system bordered by its trace constraint.  The
    initial trace must be periodic: its first and last entries sit on the
    identified nodes x = 0 and x = L."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    disc = _discretization(mesh, nu1, nu2, force1, force2, disc)
    if initial_trace is None:
        g = np.zeros(len(disc.space_upper.interface_nodes))
    else:
        g = check_periodic_trace(disc.space_upper, initial_trace, "initial trace").copy()

    fields = {
        sub: (np.zeros(disc.space(sub).n_velocity_dofs), np.zeros(disc.space(sub).n_pressure_dofs))
        for sub in (Subdomain.UPPER, Subdomain.LOWER)
    }
    for sub in (Subdomain.UPPER, Subdomain.LOWER)[:steps]:
        system, coupling = assemble_dirichlet_subproblem(disc.op(sub))
        x, _ = solve(system.matrix, system.rhs + coupling @ g)
        out = system.layout.expand(x)
        u, p = out[(sub, "velocity")], out[(sub, "pressure")]
        # the constraint reproduces g to roundoff; the field takes g itself
        u[2 * disc.space(sub).interface_nodes] = g
        fields[sub] = (u, p)
    sides = ["upper" if k % 2 == 0 else "lower" for k in range(steps)]
    (u1, p1), (u2, p2) = fields[Subdomain.UPPER], fields[Subdomain.LOWER]
    final = CoupledField(disc=disc, alpha_used=float("nan"), u1=u1, p1=p1, u2=u2, p2=p2)
    return StagnationReport(
        steps=steps, sides=sides, traces=[g] * steps, deltas=[0.0] * (steps - 1), final=final
    )
