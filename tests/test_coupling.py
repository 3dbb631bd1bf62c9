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

import numpy as np
import pytest
import scipy.sparse

from stokescouple.coupling import (
    SchwarzConfig,
    _friction_multiplier_system,
    dirichlet_exchange_demo,
    discretize,
    schwarz_solve,
    solve_monolithic_continuity,
    solve_monolithic_friction,
)
from stokescouple.fem import BodyForce, CouplingMode, assemble_coupled_system
from stokescouple.mesh import Geometry, Subdomain, build_layered_mesh

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


_GAUSS4 = np.polynomial.legendre.leggauss(4)  # computed once: the recursion runs 1e5 steps


def _layer_l2(c, d, z_lo, z_hi, quadratic=True):
    """L2 norm over one layer (width 100 in x) of -z^2/2 + c z + d
    (quadratic=True) or of c z + d."""
    nodes, weights = _GAUSS4
    z = 0.5 * (z_hi + z_lo) + 0.5 * (z_hi - z_lo) * nodes
    w = 0.5 * (z_hi - z_lo) * weights
    vals = c * z + d
    if quadratic:
        vals = vals - 0.5 * z**2
    return float(np.sqrt(100.0 * np.sum(w * vals**2)))


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
        increment = float(np.hypot(inc_upper, inc_lower))
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


def penalty_matrix(disc, system, alpha):
    """Reference: the alpha-weighted trace-jump penalty, assembled on the
    raw dofs as blocks [[+M, -M], [-M, +M]] and reduced together with the
    uncoupled system's matrix."""
    layout = system.layout
    up = layout.offsets[(Subdomain.UPPER, "velocity")] + 2 * disc.space_upper.interface_nodes
    lo = layout.offsets[(Subdomain.LOWER, "velocity")] + 2 * disc.space_lower.interface_nodes
    m = disc.trace_mass.tocoo()
    rows = np.concatenate([up[m.row], up[m.row], lo[m.row], lo[m.row]])
    cols = np.concatenate([up[m.col], lo[m.col], up[m.col], lo[m.col]])
    vals = alpha * np.concatenate([m.data, -m.data, -m.data, m.data])
    raw = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(layout.n_raw, layout.n_raw))
    reduced = layout.reduction.T @ raw @ layout.reduction
    gauge = scipy.sparse.csr_matrix((layout.n_gauge, layout.n_gauge))
    return system.matrix.to_scipy() + scipy.sparse.block_diag([reduced, gauge])


@pytest.mark.parametrize("alpha", [10.0, 1e12])
def test_friction_multiplier_eliminates_to_penalty_matrix(alpha):
    mesh = small_mesh()
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    base = assemble_coupled_system(disc.op_upper, disc.op_lower, CouplingMode.UNCOUPLED)
    matrix, rhs = _friction_multiplier_system(base, disc.trace_mass, alpha)
    k = len(rhs) - base.matrix.n_rows  # multiplier unknowns come first
    c, b = matrix[:k, :k].toarray(), matrix[:k, k:].toarray()
    bt, a = matrix[k:, :k].toarray(), matrix[k:, k:].toarray()
    assert np.array_equal(bt, b.T)
    schur = a - bt @ np.linalg.solve(c, b)
    expected = penalty_matrix(disc, base, alpha).toarray()
    assert np.max(np.abs(schur - expected)) <= 1e-12 * np.max(np.abs(expected))
    np.testing.assert_array_equal(rhs, np.concatenate([np.zeros(k), base.rhs]))


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
    assert report.records[-1].jump_l2 == pytest.approx(
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
    assert len(report.records) == 50
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
    assert [r.iteration for r in report.records] == list(range(1, report.n_iterations + 1))
    assert np.all(report.increments > 0)
    assert report.records[-1].increment_l2 < 1e-3 <= report.records[-2].increment_l2


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
