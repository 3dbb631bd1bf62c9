"""Tests for the oracles, norms, energy diagnostics, and the sweep harness.

The closed-form channel oracle is cross-checked against an independent
finite-difference solve of the same one-dimensional reduction (`channel_fd`,
defined here), so their mutual agreement validates both; the assembled
solutions are then held against the closed form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import stokescouple.verification as verification
from stokescouple.coupling import (
    discretize,
    solve_monolithic_continuity,
    solve_monolithic_friction,
)
from stokescouple.fem import BodyForce
from stokescouple.mesh import Geometry, Subdomain, build_layered_mesh
from stokescouple.verification import (
    ChannelOracle,
    channel_coefficients,
    channel_exact,
    energy_residual,
    jump_norm,
    l2_norm,
    run_alpha_sweep,
    w_norm,
)

GEOM = Geometry()
FORCE = BodyForce(1.0, -1.0)
INF = float("inf")


def solved_field(alpha, nx=8, nzu=4, nzl=2):
    mesh = build_layered_mesh(GEOM, nx, nzu, nzl)
    if np.isinf(alpha):
        return solve_monolithic_continuity(mesh, 1.0, 1.0, FORCE, FORCE)
    return solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=alpha)


# ---------------------------------------------------------------------------
# closed-form oracle


def test_channel_oracle_validation():
    with pytest.raises(ValueError):
        ChannelOracle(nu=0.0)
    with pytest.raises(ValueError):
        ChannelOracle(nu=-1.0)
    with pytest.raises(ValueError):
        ChannelOracle(fx=float("inf"))
    with pytest.raises(ValueError):
        ChannelOracle(alpha=-2.0)
    assert np.isinf(ChannelOracle(alpha=INF).alpha)


def test_channel_exact_continuity_values():
    oracle = ChannelOracle(alpha=INF)
    assert channel_exact(oracle, 0.0, Subdomain.UPPER) == pytest.approx(125.0, rel=1e-14)
    assert channel_exact(oracle, 0.0, Subdomain.LOWER) == pytest.approx(125.0, rel=1e-14)
    assert channel_exact(oracle, 22.5, Subdomain.UPPER) == pytest.approx(378.125, rel=1e-14)


def test_channel_exact_friction_jump():
    a, b1, b2 = channel_coefficients(ChannelOracle(alpha=10.0))
    assert a == pytest.approx(1237.5 * 10.0 / (1.0 + 55.0 * 10.0), rel=1e-14)
    assert b1 - b2 == pytest.approx(1237.5 / 551.0, rel=1e-14)
    # slope formula across coefficients
    for alpha in [0.0, 1.0, 1e3]:
        a, _, _ = channel_coefficients(ChannelOracle(alpha=alpha))
        assert a == pytest.approx(1237.5 * alpha / (1.0 + 55.0 * alpha), rel=1e-14)


def test_channel_exact_zero_force_is_zero():
    oracle = ChannelOracle(alpha=INF, fx=0.0)
    z = np.linspace(0.0, 50.0, 11)
    assert np.all(channel_exact(oracle, z, Subdomain.UPPER) == 0.0)


def test_channel_exact_walls_are_no_slip():
    for alpha in [0.0, 1.0, 10.0, INF]:
        oracle = ChannelOracle(alpha=alpha)
        assert channel_exact(oracle, 50.0, Subdomain.UPPER) == pytest.approx(0.0, abs=1e-12)
        assert channel_exact(oracle, -5.0, Subdomain.LOWER) == pytest.approx(0.0, abs=1e-12)


def test_channel_exact_rejects_out_of_range():
    oracle = ChannelOracle()
    with pytest.raises(ValueError, match="out of range"):
        channel_exact(oracle, -1.0, Subdomain.UPPER)
    with pytest.raises(ValueError, match="out of range"):
        channel_exact(oracle, 1.0, Subdomain.LOWER)


# ---------------------------------------------------------------------------
# finite-difference oracle cross-validation


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


@pytest.mark.parametrize("alpha", [0.0, 1.0, 10.0, 1e3, INF])
def test_fd_oracle_matches_closed_form(alpha):
    oracle = ChannelOracle(alpha=alpha)
    fd = channel_fd(oracle, n_points=10_000)
    exact_up = channel_exact(oracle, fd.z_upper, Subdomain.UPPER)
    exact_lo = channel_exact(oracle, fd.z_lower, Subdomain.LOWER)
    scale = max(np.max(np.abs(exact_up)), np.max(np.abs(exact_lo)))
    assert np.max(np.abs(fd.u_upper - exact_up)) <= 1e-8 * scale
    assert np.max(np.abs(fd.u_lower - exact_lo)) <= 1e-8 * scale


def test_fd_oracle_decoupled_traces():
    fd = channel_fd(ChannelOracle(alpha=0.0), n_points=2_000)
    assert fd.u_upper[0] == pytest.approx(1250.0, rel=1e-10)
    assert fd.u_lower[-1] == pytest.approx(12.5, rel=1e-10)
    assert abs(fd.u_upper[-1]) <= 1e-8 * 1250.0 and abs(fd.u_lower[0]) <= 1e-8 * 1250.0


def test_fd_oracle_validation():
    with pytest.raises(ValueError):
        channel_fd(ChannelOracle(), n_points=4)


# ---------------------------------------------------------------------------
# norms


def test_norms_of_zero_field():
    field = solved_field(10.0, nx=4, nzu=2, nzl=1)
    zero = dataclasses.replace(
        field,
        u1=np.zeros_like(field.u1),
        p1=np.zeros_like(field.p1),
        u2=np.zeros_like(field.u2),
        p2=np.zeros_like(field.p2),
    )
    assert l2_norm(zero) == 0.0
    assert w_norm(zero) == 0.0
    assert jump_norm(zero) == 0.0


def test_norm_absolute_homogeneity():
    field = solved_field(10.0, nx=4, nzu=2, nzl=1)
    scaled = dataclasses.replace(
        field, u1=-3.0 * field.u1, p1=-3.0 * field.p1, u2=-3.0 * field.u2, p2=-3.0 * field.p2
    )
    for norm in (l2_norm, w_norm, jump_norm):
        assert norm(scaled) == pytest.approx(3.0 * norm(field), rel=1e-12)


def test_jump_norm_of_unit_trace_difference():
    field = solved_field(10.0, nx=4, nzu=2, nzl=1)
    u1 = np.zeros_like(field.u1)
    u1[2 * field.disc.space_upper.interface_nodes] = 1.0
    unit = dataclasses.replace(field, u1=u1, u2=np.zeros_like(field.u2))
    assert jump_norm(unit) ** 2 == pytest.approx(GEOM.length, rel=1e-12)


def test_continuity_field_has_zero_jump():
    field = solved_field(INF)
    assert jump_norm(field) <= 1e-12


def test_w_norm_of_continuity_solution():
    # energy identity with no jump term: ||U||_W^2 = (F, U) = L * 55^3 / 12
    field = solved_field(INF)
    assert w_norm(field) ** 2 == pytest.approx(100.0 * 55.0**3 / 12.0, rel=1e-10)


# ---------------------------------------------------------------------------
# energy balance


@pytest.mark.parametrize("alpha", [0.0, 10.0, 1e3, 1e6, 1e9, 1e12])
def test_energy_residual_of_monolithic_solution(alpha):
    assert energy_residual(solved_field(alpha)) <= 1e-8


def test_energy_residual_of_continuity_solution():
    assert energy_residual(solved_field(INF)) <= 1e-8


def test_energy_residual_detects_non_solution():
    field = solved_field(10.0)
    doubled = dataclasses.replace(field, u1=2.0 * field.u1, u2=2.0 * field.u2)
    # LHS quadruples, RHS doubles: residual |4E - 2E| / 2E = 1
    assert energy_residual(doubled) == pytest.approx(1.0, rel=1e-9)


def test_energy_residual_zero_field_zero_force():
    mesh = build_layered_mesh(GEOM, 4, 2, 1)
    zero = BodyForce(0.0, 0.0)
    field = solve_monolithic_friction(mesh, 1.0, 1.0, zero, zero, alpha=10.0)
    assert energy_residual(field) == 0.0


# ---------------------------------------------------------------------------
# assembled solutions against the oracle


@pytest.mark.parametrize("alpha", [10.0, 1e3, 1e9, INF])
def test_solution_reproduces_channel_profile(alpha):
    # The exact profile is quadratic in z, inside the discrete space, so the
    # solver reproduces it to solver precision at every resolution.
    oracle = ChannelOracle(alpha=alpha)
    for nx, nzu, nzl in [(8, 4, 2), (16, 8, 4)]:
        mesh = build_layered_mesh(GEOM, nx, nzu, nzl)
        if np.isinf(alpha):
            field = solve_monolithic_continuity(mesh, 1.0, 1.0, FORCE, FORCE)
        else:
            field = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=alpha)
        for sub, u in [(Subdomain.UPPER, field.u1), (Subdomain.LOWER, field.u2)]:
            space = field.disc.space(sub)
            exact = channel_exact(oracle, space.velocity_nodes[:, 1], sub)
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(u[0::2] - exact)) <= 1e-9 * scale
            assert np.max(np.abs(u[1::2])) <= 1e-9 * scale  # vertical component


# ---------------------------------------------------------------------------
# sweep harness


def small_mesh():
    return build_layered_mesh(GEOM, 4, 2, 1)


def test_sweep_basic_columns():
    result = run_alpha_sweep(small_mesh(), 1.0, 1.0, FORCE, FORCE, [10.0, 100.0])
    assert [r.alpha for r in result.rows] == [10.0, 100.0]
    assert [r.n_iterations for r in result.rows] == [536, 4265]
    assert all(r.converged and r.error is None for r in result.rows)
    a, b1, b2 = channel_coefficients(ChannelOracle(alpha=10.0))
    assert result.rows[0].jump_l2 == pytest.approx(10.0 * (b1 - b2), rel=1e-9)
    assert result.rows[1].jump_l2 < result.rows[0].jump_l2
    assert result.rows[1].w_dist_to_continuity < result.rows[0].w_dist_to_continuity
    assert all(r.energy_residual <= 1e-8 for r in result.rows)


def test_sweep_alpha_zero_decouples():
    result = run_alpha_sweep(small_mesh(), 1.0, 1.0, FORCE, FORCE, [0.0])
    row = result.rows[0]
    assert row.converged and row.n_iterations == 2
    # jump of the decoupled channels: traces 1250 and 12.5 over width 100
    assert row.jump_l2 == pytest.approx(np.sqrt(100.0) * 1237.5, rel=1e-9)


def test_sweep_validation():
    mesh = small_mesh()
    with pytest.raises(ValueError, match="nonempty"):
        run_alpha_sweep(mesh, 1.0, 1.0, FORCE, FORCE, [])
    with pytest.raises(ValueError, match="ascending"):
        run_alpha_sweep(mesh, 1.0, 1.0, FORCE, FORCE, [100.0, 10.0])
    with pytest.raises(ValueError, match="ascending"):
        run_alpha_sweep(mesh, 1.0, 1.0, FORCE, FORCE, [10.0, 10.0])
    with pytest.raises(ValueError):
        run_alpha_sweep(mesh, 1.0, 1.0, FORCE, FORCE, [-1.0, 10.0])


def test_sweep_records_row_failure_and_continues(monkeypatch):
    real = verification.solve_monolithic_friction

    def failing(mesh, nu1, nu2, f1, f2, alpha, **kw):
        if alpha == 100.0:
            raise RuntimeError("synthetic row failure")
        return real(mesh, nu1, nu2, f1, f2, alpha, **kw)

    monkeypatch.setattr(verification, "solve_monolithic_friction", failing)
    result = run_alpha_sweep(small_mesh(), 1.0, 1.0, FORCE, FORCE, [10.0, 100.0, 1000.0])
    assert result.rows[0].error is None
    assert "synthetic row failure" in result.rows[1].error
    assert np.isnan(result.rows[1].jump_l2) and not result.rows[1].converged
    assert result.rows[2].error is None and result.rows[2].converged
