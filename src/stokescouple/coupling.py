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
block-circulant.  The factorization is then dropped, and each operator on
the periodic trace is kept as its Fourier symbols along x, one 2 x 2 matrix
per mode.  The iteration runs on the nx // 2 + 1 modes of the upper trace
alone, as the affine map s <- a + K s advanced a block of iterations per
numpy call, the increment norm exact through Gram symbols.  When it stops,
each layer's field is rebuilt from its three solved columns by a
convolution along x and certified by a product of the layer's matrix; a
run factors nothing, and shares only the layers' Stokes operators with
the monolithic solves.

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
        and kept for every later alternating solve; no core refers back to
        self.  Both are spanned whole when either layer is factored whole."""
        subs = (Subdomain.UPPER, Subdomain.LOWER)
        cores = {sub: _InterfaceCore(self.op(sub), self.trace_mass) for sub in subs}
        if len({len(core.rows) for core in cores.values()}) > 1:
            cores = {sub: _InterfaceCore(self.op(sub), self.trace_mass, whole=True) for sub in subs}
        return cores


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
    contraction is rho(K) = max |eig| over the mode symbols of K = T_upper
    T_lower.  setup_s is this run's time for both half-step maps (the cores,
    near zero once an earlier run built them) and for contraction.
    iterate_s is the time of the trace iteration and the reconstruction.
    """

    converged: bool
    n_iterations: int
    increments: np.ndarray  # increment_l2 of every iteration
    jumps: np.ndarray  # jump_l2 of every iteration
    contraction: float
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
    factored or spanned whole is one x-column of q = k trace dofs, and that
    block solve is [rhs(0), E].  The factorization is then dropped.

    Beside the solved columns only Fourier symbols are kept: the periodic
    trace is tau0 + S y (tau0 = T_p x0, S = T_p X), and S, the folded trace
    mass M_p = P^T M P and the Gram matrix V^T M_u V of V = [u0 - R pin, R]
    (pin = S^-1 tau0, M_u the velocity mass) are block-circulant (P. J.
    Davis, *Circulant Matrices*, 1979): each is the `rfft` along x of its
    first block column, a q x q symbol for each of m = n // 2 + 1 modes.
    The Gram's column is the cross-correlation along x of the fields with
    their mass products, which the mass reduced to the solved rows keeps
    periodic (a raw x = L node repeats x = 0 and would not shift).  Every
    field the core rebuilds is certified by a product of the layer's matrix.
    """

    def __init__(self, op: StokesOperator, trace_mass: scipy.sparse.csr_matrix, whole: bool = False):
        space = op.space
        self.sub = space.subdomain
        system, self.coupling = assemble_robin_subproblem(op)
        self.layout, self.rhs, matrix = system.layout, system.rhs, system.matrix
        self.product = matrix.to_scipy()
        factorization = factorize(matrix)
        layout, k = self.layout, self.coupling.shape[1]
        traces = self.coupling.tocsc().indices  # the solved row of each trace dof
        columns = matrix.columns if factorization.ordering == X_FOURIER and not whole else None
        self.rows = _shift_rows(columns, layout.n_reduced, traces)
        n, q = len(self.rows), k // len(self.rows)
        rhs = np.column_stack([self.rhs, self.coupling[:, :q].toarray()])
        self.x, report = factorization.solve(rhs)
        del factorization
        self.setup_reports = [report]
        # Parseval: x^T y = sum over modes of weights * Re(x_hat^H y_hat)
        self.weights = (2.0 - (2 * np.arange(n // 2 + 1) % n == 0)) / n
        fold = periodic_fold(k + 1)
        self.fold_mass = (fold.T @ trace_mass).tocsr()  # P^T M
        self.mass_hat = np.fft.rfft((self.fold_mass @ fold)[:, :q].toarray().reshape(n, q, q), axis=0)
        self.S_hat = np.fft.rfft(self.x[traces, 1:].reshape(n, q, q), axis=0)
        self.pin_hat = np.linalg.solve(self.S_hat, self.modes(self.x[traces, 0]))
        offset = layout.offsets[(space.subdomain, "velocity")]
        to_velocity = layout.reduction[offset : offset + space.n_velocity_dofs]
        reduced = slice(0, layout.n_reduced)
        v0 = self.x[reduced, 0] - self._shifted(self.values(self.pin_hat))[reduced]  # u0 - R pin
        fields = np.column_stack([self.x[reduced, 1:], v0])
        weighted = to_velocity.T @ (op.mass @ (to_velocity @ fields))  # M_u on the solved rows
        # mode by mode, the traction fields r against the weighted fields s
        fields_hat = np.fft.rfft(fields[self.rows, :q], axis=0).conj().transpose(0, 2, 1)
        spectrum = fields_hat @ np.fft.rfft(weighted[self.rows], axis=0)
        self.gram_hat, self.cross_hat = spectrum[:, :, :q], spectrum[:, :, q:]
        self.gram_00 = float(v0 @ weighted[:, q])

    def modes(self, values: np.ndarray) -> np.ndarray:
        """The modes along x (m, q, 1) of values on the k periodic dofs."""
        return np.fft.rfft(values.reshape(len(self.rows), -1, 1), axis=0)

    def values(self, modes: np.ndarray) -> np.ndarray:
        """The values on the k periodic dofs of the modes (m, q, 1)."""
        return np.fft.irfft(modes, n=len(self.rows), axis=0).reshape(-1)

    def trace(self, modes: np.ndarray) -> np.ndarray:
        """P values: the trace at every interface node, x = L repeating x = 0."""
        return np.append(values := self.values(modes), values[0])

    def data_modes(self, g: np.ndarray) -> np.ndarray:
        """The modes of M_p^-1 P^T M g, a periodic trace with g's traction data."""
        return np.linalg.solve(self.mass_hat, self.modes(self.fold_mass @ g))

    def inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a^T b of each pair of periodic traces stacked (m, q, b) as modes."""
        return self.weights @ (a.conj() * b).real.sum(axis=1)

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
        """The full field x0 + X y against the traction y, certified by a
        product of the layer's matrix against rhs(0) + E y: (raw velocity, raw
        pressure, report), the set-up's report with this residual and solve_s
        the seconds of the rebuild and its certification."""
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
        of the neighbor trace g.  Its traction y = alpha P^T M (g - P (tau0 +
        S y)) solves (I/alpha + M_p S) y = P^T M g - M_p tau0, one q x q
        system per mode, bounded as alpha grows (S has no null direction on
        the periodic trace).  At alpha = 0, y = 0.  The velocity at g = 0,
        u0 + R y0, is the small difference of two large terms (tau0 is 1250
        on the upper layer, against a trace near 40).  On the pinned field it
        is (u0 - R pin) + R z with z = y0 + pin = (I/alpha + M_p S)^-1 pin /
        alpha, which does not cancel; its trace is S z.  At alpha = 0, z = pin.
        """
        if not (np.isfinite(alpha) and alpha >= 0.0):
            raise ValueError(f"friction coefficient must be finite and >= 0, got {alpha}")
        if alpha == 0.0:
            return _RobinMap(self, np.zeros_like(self.S_hat), self.pin_hat)
        matrix = np.eye(self.S_hat.shape[1]) / alpha + self.mass_hat @ self.S_hat
        yz = np.linalg.solve(matrix, np.concatenate([self.mass_hat, self.pin_hat / alpha], axis=2))
        return _RobinMap(self, yz[:, :, :-1], yz[:, :, -1:])


class _RobinMap:
    """One layer's Robin half-step at one alpha (see `_InterfaceCore.robin`)
    as symbols: `trace`, `increment_sq` and `velocity_sq` take the modes of
    periodic traces, which `_InterfaceCore.data_modes` gives for any trace.

    Against g the traction is y0 + Y g (Y = (I/alpha + M_p S)^-1 M_p, y0 = z
    - pin), the velocity V [1; z + Y g] on the core's basis V = [u0 - R pin,
    R], and, as u0 - R pin has no periodic trace, the trace t0 + T g (t0 = S
    z, T = S Y).  The squared L2 norm of u(g) is g^T G g + 2 h^T g + c on
    the core's Gram blocks (G = Y^T gram Y, h = Y^T (cross + gram z), c =
    gram_00 + (2 cross + gram z)^T z), and that of an increment u(g + d) -
    u(g) is exactly d^T G d.
    """

    def __init__(self, core: _InterfaceCore, y: np.ndarray, z: np.ndarray):
        self.core, self.Y_hat, self.y0_hat = core, y, z - core.pin_hat
        self.T_hat, self.t0_hat = core.S_hat @ y, core.S_hat @ z
        gram_z = core.gram_hat @ z
        y_h = y.conj().transpose(0, 2, 1)
        self.G_hat = y_h @ core.gram_hat @ y
        self.h_hat = y_h @ (core.cross_hat + gram_z)
        self.c = core.gram_00 + core.inner(2.0 * core.cross_hat + gram_z, z)[0]

    def trace(self, g: np.ndarray) -> np.ndarray:
        """This layer's interface trace after a half-step against g; a stack
        (m, q, b) of b neighbor traces gives b traces."""
        return self.t0_hat + self.T_hat @ g

    def increment_sq(self, d: np.ndarray) -> np.ndarray:
        """Squared velocity L2 norm of u(g + d) - u(g), one per trace d."""
        return self.core.inner(d, self.G_hat @ d)

    def velocity_sq(self, g: np.ndarray) -> np.ndarray:
        """Squared velocity L2 norm of u(g), one per trace g."""
        return self.core.inner(g, self.G_hat @ g + 2.0 * self.h_hat) + self.c

    def solve(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, SolveReport]:
        """Certified full-field half-step against the neighbor trace g itself:
        (raw velocity, raw pressure, report), rebuilt by `_InterfaceCore.solve`."""
        core = self.core
        return core.solve(core.values(self.y0_hat + self.Y_hat @ core.data_modes(g)))


# Power stack [K, ..., K^B]: B m q^2 complex entries, at most 1 MiB, B <= 64.
_STACK_ENTRIES = 65536
_MAX_BLOCK = 64


def _block_iterations(entries: int) -> int:
    """Iterations B per block of the trace loop, whose symbol K has `entries`."""
    return max(1, min(_MAX_BLOCK, _STACK_ENTRIES // entries))


def _power_stack(k: np.ndarray, a: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """The powers K^j of the symbol K (m, q, q) and the offsets c_j = a + K a
    + ... + K^(j-1) a (a: modes (m, q, 1)), j = 1..block, laid out so that
    `offsets + (powers @ s).reshape(offsets.shape)` iterates s <- a + K s."""
    powers = np.empty((block, *k.shape), dtype=complex)
    offsets = np.empty((block, *a.shape), dtype=complex)
    powers[0], offsets[0] = k, a
    done = 1  # doubling: K^(h + j) = K^j K^h and c_(h + j) = c_h + K^h c_j
    while done < block:
        j = min(done, block - done)
        powers[done : done + j] = powers[:j] @ powers[done - 1]
        offsets[done : done + j] = offsets[done - 1] + powers[done - 1] @ offsets[:j]
        done += j
    m, q = a.shape[:2]
    return powers.transpose(1, 2, 0, 3).reshape(m, q * block, q), offsets[..., 0].transpose(1, 2, 0)


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
    layer's cached `Discretization.interface_cores`).  Iteration 1 folds the
    initial trace, which need not be periodic; then the upper trace follows
    s_n = a + K s_(n-1), K = T_upper T_lower, on its modes along x, B
    iterations per block (`_block_iterations`) through each mode's powers
    [K, ..., K^B] from the exact current trace.  Increment norms (Gram
    symbols) and jump_l2 (trace mass symbols) are sums over modes
    (Parseval); a block stops at its first increment below tol_increment,
    so the counts are those of one-step-at-a-time iteration.  At the stop
    each layer's field is rebuilt from its core's solved columns against
    the neighbor trace its last half-step saw, and certified.
    """
    disc = _discretization(mesh, nu1, nu2, force1, force2, disc)
    g0 = config.initial_neighbor_trace
    g0 = np.zeros(len(disc.space_upper.interface_nodes)) if g0 is None else g0
    g0 = _check_trace(disc.space_upper, g0, "initial trace")

    start = time.perf_counter()
    upper, lower = (core.robin(config.alpha) for core in disc.interface_cores.values())
    k = upper.T_hat @ lower.T_hat
    contraction = float(np.abs(np.linalg.eigvals(k)).max())
    setup_s = time.perf_counter() - start

    start = time.perf_counter()
    core = upper.core
    # Iteration 1 starts from g0 and from the lower layer's zero field.
    g0 = core.data_modes(g0)
    s_prev = upper.trace(g0)  # s_0, the upper trace iteration 1 starts from
    t_lower = lower.trace(s_prev)
    s = upper.trace(t_lower)  # s_1
    increment = np.sqrt(upper.increment_sq(t_lower - g0) + lower.velocity_sq(s_prev))
    jump = s - t_lower
    increments, jumps = [increment], [np.sqrt(core.inner(jump, core.mass_hat @ jump))]
    converged = bool(increment < config.tol_increment)
    n_done = 1
    if not converged and config.max_iter > 1:
        # From iteration 2 on, the increment is a quadratic form of delta =
        # s_{n-1} - s_{n-2}, the lower layer's neighbor-trace change.
        gram = lower.T_hat.conj().transpose(0, 2, 1) @ upper.G_hat @ lower.T_hat + lower.G_hat
        block = min(_block_iterations(k.size), config.max_iter - 1)
        powers, offsets = _power_stack(k, upper.trace(lower.t0_hat), block)
        while not converged and n_done < config.max_iter:
            b = min(block, config.max_iter - n_done)
            # chain = s_{n-1}, s_n, ..., s_{n+b} for n = n_done, along the last axis
            ahead = offsets + (powers @ s).reshape(offsets.shape)
            chain = np.concatenate([s_prev, s, ahead[:, :, :b]], axis=2)
            delta = chain[:, :, 1:-1] - chain[:, :, :-2]
            increment = np.sqrt(core.inner(delta, gram @ delta))
            below = np.flatnonzero(increment < config.tol_increment)
            if len(below):
                b = int(below[0]) + 1
                converged = True
            jump = chain[:, :, 2 : b + 2] - lower.trace(chain[:, :, 1 : b + 1])
            increments.append(increment[:b])
            jumps.append(np.sqrt(core.inner(jump, core.mass_hat @ jump)))
            s_prev, s = chain[:, :, b : b + 1], chain[:, :, b + 1 : b + 2]
            n_done += b
    # The last half-steps saw g_lower = s_{n-1} and g_upper = its lower trace.
    u1, p1, report_upper = upper.solve(core.trace(lower.trace(s_prev)))
    u2, p2, report_lower = lower.solve(core.trace(s_prev))
    iterate_s = time.perf_counter() - start
    final = CoupledField(disc=disc, alpha_used=config.alpha, u1=u1, p1=p1, u2=u2, p2=p2)
    return ConvergenceReport(
        converged=converged,
        n_iterations=n_done,
        increments=np.concatenate(increments),
        jumps=np.concatenate(jumps),
        contraction=contraction,
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
