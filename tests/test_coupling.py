"""Tests for the monolithic and alternating solution drivers.

The body force (1, -1) with no-slip walls has an exact x-independent
solution whose horizontal velocity is piecewise quadratic in z, so the
quadratic elements reproduce it exactly and every solver in this module can
be checked against closed-form channel profiles.  The alternating solver's
entire iteration collapses onto a two-parameter scalar recursion (one Robin
channel coefficient per layer), which the oracle below implements
independently; iteration counts and increment histories must match it to
solver precision.
"""

from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.sparse

from stokescouple import coupling, linalg
from stokescouple.coupling import (
    SchwarzConfig,
    _block_iterations,
    dirichlet_exchange_demo,
    discretize,
    schwarz_solve,
    solve_monolithic_continuity,
    solve_monolithic_friction,
)
from stokescouple.fem import (
    BodyForce,
    assemble_coupled_system,
    assemble_dirichlet_subproblem,
    assemble_robin_subproblem,
)
from stokescouple.linalg import factorize, solve
from stokescouple.mesh import Geometry, Subdomain, build_layered_mesh, validate_mesh
from test_fem import reference_trace, robin_solve, robin_system

GEOM = Geometry()  # length 100, z in [-5, 50]
FORCE = BodyForce(1.0, -1.0)


def default_mesh(nx=8, nzu=4, nzl=2):
    return build_layered_mesh(GEOM, nx, nzu, nzl)


def small_mesh():
    return build_layered_mesh(GEOM, 4, 2, 1)


def channel_coefficients(alpha):
    """Slope a and interface values (b1, b2) of the exact coupled channel
    flow u_i(z) = -z^2/2 + a z + b_i for unit viscosity and unit force."""
    zp, zm = GEOM.z_plus, GEOM.z_minus
    if np.isinf(alpha):
        a = 0.5 * (zp + zm)
    else:
        a = alpha * (zp**2 - zm**2) / 2.0 / (1.0 + alpha * (zp - zm))
    b1 = zp**2 / 2.0 - a * zp
    b2 = zm**2 / 2.0 - a * zm
    return a, b1, b2


# ---------------------------------------------------------------------------
# scalar recursion oracle for the alternating solver


def _layer_l2(c, d, z_lo, z_hi, quadratic=True):
    """L2 norm over one layer (width 100 in x) of -z^2/2 + c z + d
    (quadratic=True) or of c z + d, integrated in closed form: the recursion
    runs 1e5 steps, so it stays in Python floats."""

    def antiderivative(z):
        value = c * c * z**3 / 3.0 + c * d * z**2 + d * d * z  # of (c z + d)^2
        if quadratic:  # ... plus z^4/4 - z^2 (c z + d)
            value += z**5 / 20.0 - c * z**4 / 4.0 - d * z**3 / 3.0
        return value

    return math.sqrt(100.0 * (antiderivative(z_hi) - antiderivative(z_lo)))


def scalar_schwarz(alpha, tol, max_iter):
    """Exact dynamics of the alternating solver on this geometry.

    Upper half-step against trace g: c1 = alpha (1250 - g) / (1 + 50 alpha),
    trace 1250 - 50 c1.  Lower half-step: c2 = alpha (g - 12.5) /
    (1 + 5 alpha), trace 12.5 + 5 c2.  The lower layer starts from the zero
    field, so the first increment uses the full profile norm there.

    Returns (n, converged, increments).
    """
    zp, zm = GEOM.z_plus, GEOM.z_minus
    c1 = alpha * (zp**2 / 2.0) / (1.0 + alpha * zp)
    c2 = None  # zero field, not a channel profile
    increments = []
    converged = False
    n_done = 0
    for n in range(1, max_iter + 1):
        t1 = zp**2 / 2.0 - zp * c1
        c2_new = alpha * (t1 - zm**2 / 2.0) / (1.0 - alpha * zm)
        t2 = zm**2 / 2.0 - zm * c2_new
        c1_new = alpha * (zp**2 / 2.0 - t2) / (1.0 + alpha * zp)
        inc_upper = _layer_l2(c1_new - c1, -zp * (c1_new - c1), 0.0, zp, quadratic=False)
        if c2 is None:
            inc_lower = _layer_l2(c2_new, zm**2 / 2.0 - zm * c2_new, zm, 0.0)
        else:
            inc_lower = _layer_l2(c2_new - c2, -zm * (c2_new - c2), zm, 0.0, quadratic=False)
        increment = math.hypot(inc_upper, inc_lower)
        increments.append(increment)
        c1, c2 = c1_new, c2_new
        n_done = n
        if increment < tol:
            converged = True
            break
    return n_done, converged, np.array(increments)


# ---------------------------------------------------------------------------
# monolithic drivers


def test_monolithic_friction_matches_channel():
    field = solve_monolithic_friction(default_mesh(), 1.0, 1.0, FORCE, FORCE, alpha=10.0)
    a, b1, b2 = channel_coefficients(10.0)
    assert np.allclose(field.interface_trace(Subdomain.UPPER), b1, rtol=0, atol=1e-9)
    assert np.allclose(field.interface_trace(Subdomain.LOWER), b2, rtol=0, atol=1e-9)
    jump = field.disc.jump_l2(field.u1, field.u2)
    assert jump == pytest.approx(10.0 * (b1 - b2), rel=1e-10)
    assert b1 - b2 == pytest.approx(1237.5 / 551.0, rel=1e-14)


def penalty_matrix(disc, layout, alpha):
    """Reference: the layers' own systems side by side, in the joint
    `layout`'s rows, plus the alpha-weighted trace-jump penalty alpha J^T M
    J, the jump J = T_upper - T_lower read from the interface rows of the
    joint reduction."""
    jump = reference_trace(layout, Subdomain.UPPER) - reference_trace(layout, Subdomain.LOWER)
    layers = [assemble_robin_subproblem(op)[0] for op in (disc.op_upper, disc.op_lower)]
    # a layer's raw dofs sit at its offset in the joint raw numbering, so
    # each of its reduced rows is the joint row of the same raw dof; the
    # layers' gauge rows come last
    rows = []
    for k, layer in enumerate(layers):
        own = layer.layout
        offset = layout.offsets[(own.gauge_subdomains[0], "velocity")]
        place = np.empty(own.n_rows, dtype=np.int64)
        live = own.col_of >= 0
        place[own.col_of[live]] = layout.col_of[offset + np.flatnonzero(live)]
        place[own.n_reduced] = layout.n_reduced + k
        rows.append(place)
    rows = np.concatenate(rows)
    place = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))))
    side_by_side = place @ scipy.sparse.block_diag([layer.matrix.to_scipy() for layer in layers]) @ place.T
    return side_by_side + alpha * (jump.T @ disc.trace_mass @ jump)


@pytest.mark.parametrize("alpha", [10.0, 1e12])
def test_friction_multiplier_eliminates_to_penalty_matrix(alpha):
    mesh = small_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    base = assemble_coupled_system(disc.op_upper, disc.op_lower, 0.0)  # unbordered
    system = assemble_coupled_system(disc.op_upper, disc.op_lower, alpha)
    matrix, rhs = system.matrix.to_scipy(), system.rhs
    n = base.matrix.n_rows  # multiplier unknowns come last
    # the border leaves the alpha = 0 system and its layout as they are
    lead = matrix[:n, :n].tocsc()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(lead, name), getattr(base.matrix, name))
    np.testing.assert_array_equal(system.layout.col_of, base.layout.col_of)
    a, bt = matrix[:n, :n].toarray(), matrix[:n, n:].toarray()
    b, c = matrix[n:, :n].toarray(), matrix[n:, n:].toarray()
    assert np.array_equal(bt, b.T)
    schur = a - bt @ np.linalg.solve(c, b)
    expected = penalty_matrix(disc, system.layout, alpha).toarray()
    assert np.max(np.abs(schur - expected)) <= 1e-12 * np.max(np.abs(expected))
    np.testing.assert_array_equal(rhs, np.concatenate([base.rhs, np.zeros(len(rhs) - n)]))


def test_monolithic_continuity_matches_channel():
    mesh = build_layered_mesh(GEOM, 4, 20, 4)  # rows every 2.5 in z, peak resolved
    field = solve_monolithic_continuity(mesh, 1.0, 1.0, FORCE, FORCE)
    a, b1, _ = channel_coefficients(float("inf"))
    assert a == 22.5 and b1 == 125.0
    t_up = field.interface_trace(Subdomain.UPPER)
    t_lo = field.interface_trace(Subdomain.LOWER)
    assert np.array_equal(t_up, t_lo)  # identified dofs expand identically
    assert np.allclose(t_up, 125.0, rtol=0, atol=1e-9)
    assert field.disc.jump_l2(field.u1, field.u2) == 0.0
    # parabola peak u(22.5) = -22.5^2/2 + 22.5^2 + 125
    assert np.max(field.u1) == pytest.approx(378.125, rel=1e-10)
    assert np.isinf(field.alpha_used)


def test_monolithic_accepts_prebuilt_discretization():
    mesh = small_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    f1 = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=10.0, disc=disc)
    f2 = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=10.0)
    assert f1.disc is disc
    assert np.array_equal(f1.u1, f2.u1) and np.array_equal(f1.p2, f2.p2)


def test_velocity_l2_of_constant_field():
    disc = discretize(small_mesh(), 1.0, 1.0, FORCE, FORCE)
    u1 = np.zeros(disc.space_upper.n_velocity_dofs)
    u2 = np.zeros(disc.space_lower.n_velocity_dofs)
    u1[0::2] = 1.0
    u2[0::2] = 1.0
    area = GEOM.length * (GEOM.z_plus - GEOM.z_minus)
    assert disc.velocity_l2(u1, u2) == pytest.approx(np.sqrt(area), rel=1e-12)


# ---------------------------------------------------------------------------
# alternating (Robin-exchange) solver


def test_schwarz_zero_force_converges_in_one_iteration():
    zero = BodyForce(0.0, 0.0)
    report = schwarz_solve(small_mesh(), 1.0, 1.0, zero, zero, SchwarzConfig(alpha=10.0))
    assert report.converged and report.n_iterations == 1
    assert np.max(np.abs(report.final.u1)) <= 1e-12
    assert np.max(np.abs(report.final.u2)) <= 1e-12


def test_schwarz_alpha_zero_decouples():
    report = schwarz_solve(small_mesh(), 1.0, 1.0, FORCE, FORCE, SchwarzConfig(alpha=0.0))
    assert report.converged and report.n_iterations == 2
    # decoupled channels: pure Neumann traces z_w^2/2
    assert np.allclose(report.final.interface_trace(Subdomain.UPPER), 1250.0, atol=1e-9)
    assert np.allclose(report.final.interface_trace(Subdomain.LOWER), 12.5, atol=1e-9)


def test_schwarz_contraction_ratio_matches_product_of_half_step_factors():
    alpha = 10.0
    config = SchwarzConfig(alpha=alpha, tol_increment=1e-300, max_iter=40)
    report = schwarz_solve(small_mesh(), 1.0, 1.0, FORCE, FORCE, config)
    assert not report.converged
    inc = report.increments
    rho = (50.0 * alpha / (1.0 + 50.0 * alpha)) * (5.0 * alpha / (1.0 + 5.0 * alpha))
    ratios = inc[25:] / inc[24:-1]
    assert np.allclose(ratios, rho, rtol=1e-6)


@pytest.mark.parametrize("alpha,expected_n", [(10.0, 536), (100.0, 4265), (1e9, 2)])
def test_schwarz_iteration_count_matches_scalar_recursion(alpha, expected_n):
    n_oracle, conv_oracle, _ = scalar_schwarz(alpha, tol=1e-3, max_iter=100_000)
    assert (n_oracle, conv_oracle) == (expected_n, True)
    config = SchwarzConfig(alpha=alpha, tol_increment=1e-3, max_iter=100_000)
    report = schwarz_solve(small_mesh(), 1.0, 1.0, FORCE, FORCE, config)
    assert report.converged
    assert report.n_iterations == n_oracle


def test_schwarz_increment_history_matches_scalar_recursion():
    _, _, oracle_inc = scalar_schwarz(10.0, tol=1e-300, max_iter=12)
    config = SchwarzConfig(alpha=10.0, tol_increment=1e-300, max_iter=12)
    report = schwarz_solve(small_mesh(), 1.0, 1.0, FORCE, FORCE, config)
    assert np.allclose(report.increments, oracle_inc, rtol=1e-9)


def test_schwarz_tight_tolerance_agrees_with_monolithic():
    mesh = small_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    config = SchwarzConfig(alpha=10.0, tol_increment=1e-9, max_iter=10_000)
    report = schwarz_solve(mesh, 1.0, 1.0, FORCE, FORCE, config, disc=disc)
    assert report.converged
    mono = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=10.0, disc=disc)
    gap = disc.velocity_l2(report.final.u1 - mono.u1, report.final.u2 - mono.u2)
    assert gap <= 1e-6
    assert report.jumps[-1] == pytest.approx(
        disc.jump_l2(mono.u1, mono.u2), rel=1e-9
    )


def test_schwarz_large_alpha_stops_far_from_solution():
    # Near-Dirichlet exchange: the increment collapses after two iterations
    # while the iterate is still O(10^3) away from the coupled solution.
    mesh = small_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    config = SchwarzConfig(alpha=1e9, tol_increment=1e-3, max_iter=100)
    report = schwarz_solve(mesh, 1.0, 1.0, FORCE, FORCE, config, disc=disc)
    assert report.converged and report.n_iterations == 2
    mono = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=1e9, disc=disc)
    gap = disc.velocity_l2(report.final.u1 - mono.u1, report.final.u2 - mono.u2)
    assert gap > 100.0


def test_schwarz_cap_reported_as_did_not_converge():
    config = SchwarzConfig(alpha=1e4, tol_increment=1e-3, max_iter=50)
    report = schwarz_solve(small_mesh(), 1.0, 1.0, FORCE, FORCE, config)
    assert not report.converged
    assert report.n_iterations == 50
    assert len(report.increments) == len(report.jumps) == 50
    assert np.all(np.isfinite(report.final.u1))


def test_schwarz_config_validation():
    with pytest.raises(ValueError):
        SchwarzConfig(alpha=float("inf"))
    with pytest.raises(ValueError):
        SchwarzConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        SchwarzConfig(alpha=float("nan"))
    with pytest.raises(ValueError):
        SchwarzConfig(alpha=1.0, tol_increment=0.0)
    with pytest.raises(ValueError):
        SchwarzConfig(alpha=1.0, max_iter=0)
    bad = SchwarzConfig(alpha=1.0, initial_neighbor_trace=np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        schwarz_solve(small_mesh(), 1.0, 1.0, FORCE, FORCE, bad)


def test_schwarz_record_fields_are_consistent():
    config = SchwarzConfig(alpha=10.0, tol_increment=1e-3, max_iter=1000)
    report = schwarz_solve(small_mesh(), 1.0, 1.0, FORCE, FORCE, config)
    assert len(report.increments) == len(report.jumps) == report.n_iterations
    assert np.all(report.increments > 0)
    assert report.increments[-1] < 1e-3 <= report.increments[-2]


def reference_alternation(disc, config):
    """The alternating solver in full-field form: every half-step builds its
    Robin matrix (`robin_system`), takes the neighbor's current trace into
    its rhs and solves it from scratch; the increment and the jump are
    measured on the fields.  Returns (n_iterations, increments, jumps, (u1,
    p1, u2, p2))."""

    def half_step(sub, neighbor_trace):
        matrix, rhs, trace_operator, layout = robin_system(disc.op(sub), config.alpha)
        x, _ = solve(matrix, rhs + trace_operator @ neighbor_trace)
        out = layout.expand(x)
        return out[(sub, "velocity")], out[(sub, "pressure")]

    u1, p1 = half_step(Subdomain.UPPER, config.initial_neighbor_trace)
    u2 = np.zeros(disc.space_lower.n_velocity_dofs)
    increments, jumps = [], []
    for n in range(1, config.max_iter + 1):
        u2_new, p2 = half_step(Subdomain.LOWER, disc.trace_of(Subdomain.UPPER, u1))
        u1_new, p1 = half_step(Subdomain.UPPER, disc.trace_of(Subdomain.LOWER, u2_new))
        increments.append(disc.velocity_l2(u1_new - u1, u2_new - u2))
        u1, u2 = u1_new, u2_new
        jumps.append(disc.jump_l2(u1, u2))
        if increments[-1] < config.tol_increment:
            break
    return n, np.array(increments), np.array(jumps), (u1, p1, u2, p2)


@pytest.mark.parametrize("start", ["zero", "periodic"])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 10.0])
def test_schwarz_trace_iteration_matches_full_field_alternation(alpha, start):
    mesh = default_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    x = disc.space_upper.interface_x
    g0 = np.zeros_like(x)
    if start == "periodic":
        g0 = 3.0 + np.sin(2.0 * np.pi * x / GEOM.length)
        g0[-1] = g0[0]
    config = SchwarzConfig(
        alpha=alpha, tol_increment=1e-300, max_iter=30, initial_neighbor_trace=g0
    )
    report = schwarz_solve(mesh, 1.0, 1.0, FORCE, FORCE, config, disc=disc)
    n, increments, jumps, fields = reference_alternation(disc, config)
    assert report.n_iterations == n
    np.testing.assert_allclose(report.increments, increments, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(report.jumps, jumps, rtol=1e-9, atol=0.0)
    final = report.final
    for got, want in zip((final.u1, final.p1, final.u2, final.p2), fields):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def sequential_trace_loop(disc, config):
    """The trace iteration one step at a time over the solver's own
    half-step maps.  Returns (n, converged, increments, jumps, final
    neighbor traces of the upper and the lower layer)."""
    upper = disc.interface_cores[Subdomain.UPPER].robin(config.alpha)
    lower = disc.interface_cores[Subdomain.LOWER].robin(config.alpha)
    mass = disc.trace_mass.toarray()
    g_upper = np.zeros(len(disc.space_upper.interface_nodes))
    g_lower = None  # the lower field starts at zero
    t_upper = upper.trace(g_upper)
    increments, jumps = [], []
    for n in range(1, config.max_iter + 1):
        t_lower = lower.trace(t_upper)
        t_upper_new = upper.trace(t_lower)
        if g_lower is None:
            lower_sq = lower.velocity_sq(t_upper)
        else:
            lower_sq = lower.increment_sq(t_upper - g_lower)
        increments.append(np.sqrt(upper.increment_sq(t_lower - g_upper) + lower_sq))
        g_upper, g_lower, t_upper = t_lower, t_upper, t_upper_new
        jump = t_upper - t_lower
        jumps.append(np.sqrt(jump @ (mass @ jump)))
        if increments[-1] < config.tol_increment:
            break
    converged = increments[-1] < config.tol_increment
    return n, converged, np.array(increments), np.array(jumps), (g_upper, g_lower)


@pytest.mark.parametrize("stop", ["B-1", "B", "B+1", "B+2", "2B+1", "cap"])
def test_schwarz_blocks_match_sequential_iteration(stop):
    # Iteration 1 runs alone; the blocks then cover 2..B+1, B+2..2B+1, ...
    mesh = default_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    block = _block_iterations(len(disc.space_upper.interface_nodes))
    assert block == 64  # n_trace = 17
    probe = SchwarzConfig(alpha=10.0, tol_increment=1e-300, max_iter=2 * block + 2)
    _, _, history, _, _ = sequential_trace_loop(disc, probe)
    assert np.all(np.diff(history) < 0.0)
    if stop == "cap":
        config = SchwarzConfig(alpha=10.0, tol_increment=1e-300, max_iter=block + 2)
        expected = (block + 2, False)
    else:
        n = {"B-1": block - 1, "B": block, "B+1": block + 1, "B+2": block + 2, "2B+1": 2 * block + 1}[stop]
        # a tolerance between the increments of iterations n - 1 and n
        tol = float(np.sqrt(history[n - 1] * history[n - 2]))
        config = SchwarzConfig(alpha=10.0, tol_increment=tol, max_iter=1000)
        expected = (n, True)
    n, converged, increments, jumps, (g_upper, g_lower) = sequential_trace_loop(disc, config)
    assert (n, converged) == expected
    report = schwarz_solve(mesh, 1.0, 1.0, FORCE, FORCE, config, disc=disc)
    assert (report.n_iterations, report.converged) == expected
    np.testing.assert_allclose(report.increments, increments, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(report.jumps, jumps, rtol=1e-10, atol=0.0)
    # the fields are rebuilt from the neighbor traces of the last iteration
    for sub, u, g in [
        (Subdomain.UPPER, report.final.u1, g_upper),
        (Subdomain.LOWER, report.final.u2, g_lower),
    ]:
        want = disc.interface_cores[sub].robin(config.alpha).solve(g)[0]
        assert np.max(np.abs(u - want)) <= 1e-10 * np.max(np.abs(want))


def test_schwarz_reports_its_certified_solves():
    # every solve is certified at linalg.DEFAULT_TOLERANCE; on this mesh
    # each lands below 1e-11 as well
    config = SchwarzConfig(alpha=10.0, tol_increment=1e-3, max_iter=1000)
    report = schwarz_solve(small_mesh(), 1.0, 1.0, FORCE, FORCE, config)
    assert len(report.setup_reports) >= 2 and len(report.reconstruction_reports) == 2
    solves = report.setup_reports + report.reconstruction_reports
    assert all(0.0 <= r.relative_residual <= 1e-11 for r in solves)
    assert report.setup_s > 0.0 and report.iterate_s > 0.0


@pytest.mark.parametrize("alpha", [0.0, 1.0, 10.0, 1e3, 1e6, 1e9])
def test_robin_maps_match_the_test_built_robin_solve(alpha):
    # each layer's map against the span of the Robin matrix built here:
    # solved for [rhs(0), E], whose velocity columns are [u0, R]
    disc = discretize(default_mesh(), 1.0, 1.0, FORCE, FORCE)
    for sub, core in disc.interface_cores.items():
        op, robin = disc.op(sub), core.robin(alpha)
        matrix, rhs, coupling, layout = robin_system(op, alpha)
        x, _ = solve(matrix, np.column_stack([rhs, coupling.toarray()]))
        u = np.column_stack([layout.expand(col)[(sub, "velocity")] for col in x.T])
        ifx = 2 * op.space.interface_nodes
        t_ref, r = u[ifx, 1:], u[:, 1:]
        g_ref = r.T @ (op.mass @ r)
        assert np.max(np.abs(robin.T - t_ref)) <= 1e-13 * np.max(np.abs(t_ref))
        # t0 is small against the field (2.5 against 1250 on the upper layer
        # at alpha = 10): judged on the field's scale
        assert np.max(np.abs(robin.t0 - u[ifx, 0])) <= 1e-13 * np.max(np.abs(u[:, 0]))
        assert np.max(np.abs(robin.G - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))
        assert np.max(np.abs(robin.h - r.T @ (op.mass @ u[:, 0]))) <= 1e-10 * np.max(np.abs(g_ref))
        assert robin.c == pytest.approx(u[:, 0] @ (op.mass @ u[:, 0]), rel=1e-10)
        x_trace = op.space.interface_x
        for g in (3.0 + x_trace / 17.0, 3.0 + np.cos(2.0 * np.pi * x_trace / GEOM.length)):
            want = robin_solve(op, alpha, g)
            assert np.max(np.abs(robin.solve(g)[0] - want)) <= 1e-12 * np.max(np.abs(want))


def x_dependent_force(x, z):
    """A body force whose interface response has every Fourier mode along x,
    not only the mean one that a uniform force excites."""
    theta = 2.0 * np.pi * x / GEOM.length
    return 1.0 + 0.5 * np.sin(theta) + 0.2 * np.cos(3.0 * theta + 0.3), -1.0 + 0.3 * np.cos(2.0 * theta)


@pytest.mark.parametrize("cells", [(8, 4, 2), (32, 16, 4)])
def test_cores_match_the_full_span_under_an_x_dependent_force(cells):
    # The cores solve three columns per layer and read every other one off
    # them by shifts along x; here the rhs column is not x-uniform, so the
    # shifts of each fixed field are judged too, against the span built
    # here: every column solved, with the matrix factored whole.
    force = BodyForce(evaluator=x_dependent_force)
    mesh = default_mesh(*cells)
    disc = discretize(mesh, 1.0, 1.0, force, force)
    alpha = 10.0
    for sub, core in disc.interface_cores.items():
        op = disc.op(sub)
        ifx = 2 * op.space.interface_nodes
        matrix, rhs, _, layout = robin_system(op, 0.0)
        traction = assemble_robin_subproblem(op)[1]
        x, _ = solve(matrix, np.column_stack([rhs, traction.toarray()]))
        u = np.column_stack([layout.expand(col)[(sub, "velocity")] for col in x.T])
        s_ref, tau0 = u[ifx[:-1], 1:], u[ifx[:-1], 0]
        assert np.ptp(tau0) > 1e-3 * np.max(np.abs(tau0))  # not x-uniform
        pin = np.linalg.solve(s_ref, tau0)
        v = np.column_stack([u[:, 0] - u[:, 1:] @ pin, u[:, 1:]])
        gram = v.T @ (op.mass @ v)
        assert np.max(np.abs(core.S - s_ref)) <= 1e-13 * np.max(np.abs(s_ref))
        assert np.max(np.abs(core.gram - gram)) <= 1e-10 * np.max(np.abs(gram))
        assert np.max(np.abs(core.pin - pin)) <= 1e-10 * np.max(np.abs(pin))
        # at alpha, against the span of the Robin matrix built here
        robin = core.robin(alpha)
        matrix, rhs, coupling_, layout = robin_system(op, alpha)
        x, _ = solve(matrix, np.column_stack([rhs, coupling_.toarray()]))
        u = np.column_stack([layout.expand(col)[(sub, "velocity")] for col in x.T])
        r = u[:, 1:]
        g_ref = r.T @ (op.mass @ r)
        assert np.max(np.abs(robin.G - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))
        assert np.max(np.abs(robin.h - r.T @ (op.mass @ u[:, 0]))) <= 1e-10 * np.max(np.abs(g_ref))
        assert robin.c == pytest.approx(u[:, 0] @ (op.mass @ u[:, 0]), rel=1e-10)
        g = 3.0 + np.cos(2.0 * np.pi * op.space.interface_x / GEOM.length)
        want = robin_solve(op, alpha, g)
        got, _, report = robin.solve(g)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert report.relative_residual <= 1e-10
    # the alternating solver converges to the monolithic friction field
    config = SchwarzConfig(alpha=alpha, tol_increment=1e-6)
    report = schwarz_solve(mesh, 1.0, 1.0, force, force, config, disc=disc)
    mono = solve_monolithic_friction(mesh, 1.0, 1.0, force, force, alpha=alpha, disc=disc)
    assert report.converged
    gap = disc.velocity_l2(report.final.u1 - mono.u1, report.final.u2 - mono.u2)
    assert gap <= 100.0 * config.tol_increment  # rho / (1 - rho) is 45 at alpha = 10


@pytest.mark.parametrize("cells", [(8, 4, 2), (32, 16, 4)])
def test_robin_trace_map_matches_the_exact_half_step(cells):
    # Against a constant neighbor trace g the half-step is the channel
    # profile: upper trace 1250 - 50 alpha (1250 - g) / (1 + 50 alpha),
    # lower 12.5 + 5 alpha (g - 12.5) / (1 + 5 alpha).  The map's trace at
    # g = 0 does not cancel, so it stays within 1e-14 for every alpha.
    disc = discretize(default_mesh(*cells), 1.0, 1.0, FORCE, FORCE)
    exact = {
        Subdomain.UPPER: lambda a, g: 1250.0 - 50.0 * a * (1250.0 - g) / (1.0 + 50.0 * a),
        Subdomain.LOWER: lambda a, g: 12.5 + 5.0 * a * (g - 12.5) / (1.0 + 5.0 * a),
    }
    g = np.full(len(disc.space_upper.interface_nodes), 40.0)
    for sub, core in disc.interface_cores.items():
        for alpha in (1.0, 10.0, 1e3, 1e6, 1e9):
            want = exact[sub](alpha, 40.0)
            error = np.max(np.abs(core.robin(alpha).trace(g) - want)) / abs(want)
            assert error <= 1e-14, (sub, alpha, error)


def test_schwarz_spans_each_layer_once_per_discretization(monkeypatch):
    mesh = default_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    factored, certified = [], []

    def counting(matrix):
        factorization = factorize(matrix)
        factored.append((matrix.n_rows, weakref.ref(factorization)))
        return factorization

    def certifying(product, x, b, *args):
        certified.append(product.shape[0])
        return linalg.certify(product, x, b, *args)

    monkeypatch.setattr(coupling, "factorize", counting)
    monkeypatch.setattr(coupling, "certify", certifying)
    reports = [
        schwarz_solve(mesh, 1.0, 1.0, FORCE, FORCE, SchwarzConfig(alpha=alpha), disc=disc)
        for alpha in (10.0, 100.0, 1e9)
    ]
    assert [r.n_iterations for r in reports] == [536, 4265, 2]
    # each layer is factored and spanned once, by one block solve; no
    # factorization outlives the set-up, and no run factors again: each
    # rebuilds its fields from the solved columns, certified by a product
    # of the layer's matrix
    rows = [n for n, _ in factored]
    assert rows == rows[:2] and all(ref() is None for _, ref in factored)
    assert certified == rows * 3
    assert all(len(r.setup_reports) == 2 and r.setup_reports == reports[0].setup_reports for r in reports)
    assert all(r.ordering == "X-FOURIER" for r in reports[0].setup_reports)
    # the cores hold no reference back to the discretization: it is freed
    # as soon as the last reference to it goes
    cores = disc.interface_cores
    ref = weakref.ref(disc)
    del disc, reports
    assert ref() is None and len(cores) == 2


def test_whole_matrix_cores_span_every_column(monkeypatch):
    # on a mesh whose columns differ each layer is factored whole, once per
    # discretization, and spanned by one block solve of all its columns: the
    # same core, one x-column of 2 nx trace dofs; its factors are dropped too
    mesh = default_mesh()
    vertices = mesh.vertices.copy()
    vertices[[1 * 9 + 3, 4 * 9 + 3]] += (0.4, 0.3)  # inside the lower and the upper layer
    moved = dataclasses.replace(mesh, vertices=vertices)
    assert validate_mesh(moved) == []
    disc = discretize(moved, 1.0, 1.0, FORCE, FORCE)
    factored = []

    def counting(matrix):
        factorization = factorize(matrix)
        factored.append(weakref.ref(factorization))
        return factorization

    monkeypatch.setattr(coupling, "factorize", counting)
    for alpha in (10.0, 1e9):
        config = SchwarzConfig(alpha=alpha)
        report = schwarz_solve(moved, 1.0, 1.0, FORCE, FORCE, config, disc=disc)
        assert report.n_iterations > 0
        assert all(r.ordering == "MMD_AT_PLUS_A" for r in report.reconstruction_reports)
        assert all(r.relative_residual <= 1e-10 for r in report.reconstruction_reports)
    assert len(factored) == 2 and all(ref() is None for ref in factored)
    n_trace = len(disc.space_upper.interface_nodes)
    for sub, core in disc.interface_cores.items():
        assert core.rows.shape[0] == 1 and core.x.shape[1] == n_trace
        g = 3.0 + np.cos(2.0 * np.pi * disc.space(sub).interface_x / GEOM.length)
        want = robin_solve(disc.op(sub), 10.0, g)
        got = core.robin(10.0).solve(g)[0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# pure Dirichlet exchange stagnates


def test_dirichlet_demo_freezes_traces_at_zero_start():
    mesh = small_mesh()
    demo = dirichlet_exchange_demo(mesh, 1.0, 1.0, FORCE, FORCE, steps=7)
    assert demo.sides[:4] == ["upper", "lower", "upper", "lower"]
    assert all(d == 0.0 for d in demo.deltas)
    for t in demo.traces:
        assert np.array_equal(t, np.zeros_like(t))
    # ... while the coupled interface velocity is far from the frozen trace
    mono = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=10.0)
    assert np.min(np.abs(mono.interface_trace(Subdomain.UPPER))) > 1.0


def test_dirichlet_demo_freezes_any_starting_trace():
    mesh = small_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    x = disc.space_upper.interface_x
    g0 = 3.0 + np.sin(2.0 * np.pi * x / GEOM.length)
    g0[-1] = g0[0]  # the trace must honor the periodic identification exactly
    demo = dirichlet_exchange_demo(mesh, 1.0, 1.0, FORCE, FORCE, steps=6, initial_trace=g0)
    for t in demo.traces:
        assert np.array_equal(t, g0)
    assert all(d == 0.0 for d in demo.deltas)


@pytest.mark.parametrize("steps, n_solves", [(1, 1), (2, 2), (7, 2)])
def test_dirichlet_demo_solves_each_layer_once(monkeypatch, steps, n_solves):
    """Every half-step reproduces the trace it was given, so each layer is
    solved once against the initial trace, and a layer no half-step reached
    keeps its zero field.  No factorization outlives the call."""
    mesh = small_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    g0 = 3.0 + np.sin(2.0 * np.pi * disc.space_upper.interface_x / GEOM.length)
    g0[-1] = g0[0]
    expected = {}
    for sub in (Subdomain.UPPER, Subdomain.LOWER)[:n_solves]:
        system, rows = assemble_dirichlet_subproblem(disc.op(sub))
        out = system.layout.expand(solve(system.matrix, system.rhs + rows @ g0)[0])
        u, p = out[(sub, "velocity")], out[(sub, "pressure")]
        u[2 * disc.space(sub).interface_nodes] = g0
        expected[sub] = (u, p)
    certified = linalg.Factorization.solve
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(weakref.ref(self))
        return certified(self, *args, **kwargs)

    monkeypatch.setattr(linalg.Factorization, "solve", counting)
    demo = dirichlet_exchange_demo(
        mesh, 1.0, 1.0, FORCE, FORCE, steps=steps, initial_trace=g0, disc=disc
    )
    assert len(calls) == n_solves
    assert all(factorization() is None for factorization in calls)
    final = demo.final
    fields = {Subdomain.UPPER: (final.u1, final.p1), Subdomain.LOWER: (final.u2, final.p2)}
    for sub, (u, p) in fields.items():
        if sub in expected:
            assert np.array_equal(u, expected[sub][0]) and np.array_equal(p, expected[sub][1])
        else:
            assert not u.any() and not p.any()
    assert len(demo.traces) == steps and all(np.array_equal(t, g0) for t in demo.traces)
    assert demo.deltas == [0.0] * (steps - 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_trace_is_rejected_before_any_solve(monkeypatch, bad):
    mesh = small_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    trace = np.zeros(len(disc.space_upper.interface_nodes))
    trace[3] = bad

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was attempted")

    monkeypatch.setattr(coupling, "factorize", no_solve)
    monkeypatch.setattr(coupling, "solve", no_solve)
    config = SchwarzConfig(alpha=10.0, initial_neighbor_trace=trace)
    with pytest.raises(ValueError, match="initial trace must be finite"):
        schwarz_solve(mesh, 1.0, 1.0, FORCE, FORCE, config, disc=disc)
    with pytest.raises(ValueError, match="initial trace must be finite"):
        dirichlet_exchange_demo(mesh, 1.0, 1.0, FORCE, FORCE, steps=2, initial_trace=trace, disc=disc)


def test_dirichlet_demo_validation():
    with pytest.raises(ValueError):
        dirichlet_exchange_demo(small_mesh(), 1.0, 1.0, FORCE, FORCE, steps=0)
    with pytest.raises(ValueError, match="shape"):
        dirichlet_exchange_demo(
            small_mesh(), 1.0, 1.0, FORCE, FORCE, steps=2, initial_trace=np.zeros(4)
        )
    with pytest.raises(ValueError, match="periodic"):
        dirichlet_exchange_demo(
            small_mesh(), 1.0, 1.0, FORCE, FORCE, steps=2, initial_trace=np.linspace(0.0, 1.0, 9)
        )


DRIVERS = {
    "friction": lambda *inputs, disc: solve_monolithic_friction(*inputs, alpha=10.0, disc=disc),
    "continuity": lambda *inputs, disc: solve_monolithic_continuity(*inputs, disc=disc),
    "schwarz": lambda *inputs, disc: schwarz_solve(*inputs, SchwarzConfig(alpha=10.0), disc=disc),
    "demo": lambda *inputs, disc: dirichlet_exchange_demo(*inputs, steps=2, disc=disc),
}


@pytest.mark.parametrize("driver", DRIVERS.values(), ids=DRIVERS.keys())
def test_drivers_reject_a_discretization_of_other_inputs(driver):
    mesh = small_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    with pytest.raises(ValueError, match="another mesh"):
        driver(small_mesh(), 1.0, 1.0, FORCE, FORCE, disc=disc)
    with pytest.raises(ValueError, match="nu2=1.0, not 2.0"):
        driver(mesh, 1.0, 2.0, FORCE, FORCE, disc=disc)
    with pytest.raises(ValueError, match="force1="):
        driver(mesh, 1.0, 1.0, BodyForce(2.0, -1.0), FORCE, disc=disc)
