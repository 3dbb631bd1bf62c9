"""Acceptance gate: the seven package-level criteria, one test and one
reported pass/fail line each.

Each criterion keeps the bound of the project's acceptance list and asserts
it on what the method promises:

1. accuracy against the channel oracle, and the convergence order on a
   manufactured profile outside the quadratic space (the channel profile
   itself is reproduced to roundoff, so it has no order to measure);
2. the energy identity of every monolithic friction solve;
3. convergence of the friction solutions to the continuity solution;
4. the alternating solver's fixed point is the monolithic solution, and its
   stopped iterate lies exactly rho/(1-rho) times the last increment away;
5. the iteration counts are those of the exact scalar recursion of the
   alternating solver, growing with the coefficient;
6. the pure Dirichlet exchange stagnates;
7. the named property suites.

The recorded lines summarize the measured values behind each verdict.
"""

from __future__ import annotations

import numpy as np
import pytest

from stokescouple.cli_io import RunConfig, parse_config, render_config
from stokescouple.coupling import (
    SchwarzConfig,
    dirichlet_exchange_demo,
    discretize,
    schwarz_solve,
    solve_monolithic_continuity,
    solve_monolithic_friction,
)
from stokescouple.fem import BodyForce
from stokescouple.linalg import (
    CscMatrix,
    ResidualCertificationError,
    solve,
)
from stokescouple.mesh import Geometry, Subdomain, build_layered_mesh, validate_mesh
from stokescouple.verification import (
    ChannelOracle,
    channel_exact,
    energy_residual,
    jump_norm,
    l2_norm,
    w_norm,
)
from test_coupling import scalar_schwarz
from test_fem import multiplier_border

GEOM = Geometry()  # strip [0, 100] x [-5, 50]
FORCE = BodyForce(1.0, -1.0)
INF = float("inf")
SWEEP_ALPHAS = [10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e9]
SWEEP_TOL = 1e-3
SWEEP_CAP = 100_000
SINE_K = 0.1  # wavenumber of the manufactured profile, under one period over the strip


def relative_l2_error(field, alpha):
    """L2-relative horizontal+vertical velocity error against the channel
    oracle (the exact profile lies in the quadratic space, so nodal
    interpolation is exact and mass-matrix quadrature gives the true
    function-space error)."""
    oracle = ChannelOracle(alpha=alpha)
    disc = field.disc
    err_sq = 0.0
    ref_sq = 0.0
    for sub, u, op in [
        (Subdomain.UPPER, field.u1, disc.op_upper),
        (Subdomain.LOWER, field.u2, disc.op_lower),
    ]:
        space = disc.space(sub)
        exact = channel_exact(oracle, space.velocity_nodes[:, 1], sub)
        evec = u.copy()
        evec[0::2] -= exact
        rvec = np.zeros_like(u)
        rvec[0::2] = exact
        err_sq += evec @ (op.mass @ evec)
        ref_sq += rvec @ (op.mass @ rvec)
    return float(np.sqrt(err_sq / ref_sq))


def sine_coefficients(alpha):
    """Slope a and offsets (b1, b2) of the manufactured channel flow
    u_i(z) = sin(k z) + a z + b_i for unit viscosity, driven by
    f_x = k^2 sin(k z): no slip at both walls and the friction law
    (k + a) = alpha (b1 - b2) at z = 0, with b1 = b2 at alpha = inf."""
    zp, zm = GEOM.z_plus, GEOM.z_minus
    sp, sm = np.sin(SINE_K * zp), np.sin(SINE_K * zm)
    if np.isinf(alpha):
        a = (sm - sp) / (zp - zm)
    else:
        a = (alpha * (sm - sp) - SINE_K) / (1.0 + alpha * (zp - zm))
    return a, -sp - a * zp, -sm - a * zm


SINE_FORCE = BodyForce(evaluator=lambda x, z: (SINE_K**2 * np.sin(SINE_K * z), 0.0))


def _triangle_rule(n):
    """Collapsed-coordinate Gauss rule on the reference triangle:
    barycentric points (n*n, 3) and weights summing to 1/2, exact for
    polynomials of degree 2n - 2."""
    s, ws = np.polynomial.legendre.leggauss(n)
    s, ws = 0.5 * (s + 1.0), 0.5 * ws
    xi = np.repeat(s, n)
    eta = np.tile(s, n) * (1.0 - xi)
    w = np.repeat(ws, n) * np.tile(ws, n) * (1.0 - xi)
    return np.column_stack([1.0 - xi - eta, xi, eta]), w


def sine_relative_l2_error(field, alpha):
    """L2-relative velocity error against the manufactured profile,
    integrated cell by cell with a degree-10 rule on the exact function
    (not on its nodal interpolant, which would hide the interpolation
    error).  The P2 basis follows the cell node order: vertices 0, 1, 2,
    then the midpoints of edges 01, 12, 20."""
    a, b1, b2 = sine_coefficients(alpha)
    lam, w = _triangle_rule(6)
    l0, l1, l2 = lam.T
    phi = np.column_stack(
        [l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1), 4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0]
    )
    err_sq = 0.0
    ref_sq = 0.0
    for sub, u, b in [(Subdomain.UPPER, field.u1, b1), (Subdomain.LOWER, field.u2, b2)]:
        space = field.disc.space(sub)
        cells = space.velocity_cells
        pts = space.velocity_nodes[cells[:, :3]]
        e1 = pts[:, 1] - pts[:, 0]
        e2 = pts[:, 2] - pts[:, 0]
        weights = w[None, :] * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])[:, None]
        z = pts[:, :, 1] @ lam.T
        exact = np.sin(SINE_K * z) + a * z + b
        ux = u[0::2][cells] @ phi.T
        uz = u[1::2][cells] @ phi.T
        err_sq += np.sum(weights * ((ux - exact) ** 2 + uz**2))
        ref_sq += np.sum(weights * exact**2)
    return float(np.sqrt(err_sq / ref_sq))


@pytest.fixture(scope="module")
def sweep_data():
    """Alternating-vs-monolithic data for the reference coefficient list on
    one fixed mesh (the x-independent exact solution is reproduced exactly
    at any resolution, so iteration counts are mesh-independent)."""
    mesh = build_layered_mesh(GEOM, 8, 4, 2)
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    data = {}
    for alpha in SWEEP_ALPHAS:
        config = SchwarzConfig(alpha=alpha, tol_increment=SWEEP_TOL, max_iter=SWEEP_CAP)
        report = schwarz_solve(mesh, 1.0, 1.0, FORCE, FORCE, config, disc=disc)
        mono = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=alpha, disc=disc)
        data[alpha] = (report, mono)
    return mesh, disc, data


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_criterion_1_oracle_accuracy_and_order(record_criterion):
    meshes = [(16, 8, 2), (32, 16, 4), (64, 32, 8)]
    accuracy_ok = True
    order_ok = True
    details = []
    for alpha in [10.0, 1e3, INF]:
        oracle_errors = []
        sine_errors = []
        for nx, nzu, nzl in meshes:
            mesh = build_layered_mesh(GEOM, nx, nzu, nzl)
            if np.isinf(alpha):
                field = solve_monolithic_continuity(mesh, 1.0, 1.0, FORCE, FORCE)
                sine = solve_monolithic_continuity(mesh, 1.0, 1.0, SINE_FORCE, SINE_FORCE)
            else:
                field = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=alpha)
                sine = solve_monolithic_friction(
                    mesh, 1.0, 1.0, SINE_FORCE, SINE_FORCE, alpha=alpha
                )
            oracle_errors.append(relative_l2_error(field, alpha))
            sine_errors.append(sine_relative_l2_error(sine, alpha))
        orders = [np.log2(sine_errors[i] / sine_errors[i + 1]) for i in range(len(meshes) - 1)]
        accuracy_ok &= oracle_errors[-1] <= 1e-3 and sine_errors[-1] <= 1e-3
        order_ok &= all(o >= 2.5 for o in orders)
        details.append(
            f"alpha={alpha:g}: oracle errors={['%.1e' % e for e in oracle_errors]}, "
            f"sine errors={['%.2e' % e for e in sine_errors]}, "
            f"orders={['%.2f' % o for o in orders]}"
        )
    ok = accuracy_ok and order_ok
    record_criterion(
        f"criterion 1 (oracle accuracy <=1e-3 and order >=2.5): {verdict(ok)} — "
        f"accuracy {verdict(accuracy_ok)}, order {verdict(order_ok)} (the channel profile "
        f"lies in the quadratic space and is reproduced to roundoff; the order is measured "
        f"on the manufactured profile sin({SINE_K:g} z) + a z + b_i); "
        + "; ".join(details)
    )
    assert accuracy_ok, "relative L2 error above 1e-3 on the finest mesh; see recorded line"
    assert order_ok, "convergence order below 2.5; see recorded criterion line"


def test_criterion_2_energy_identity(record_criterion, sweep_data):
    mesh, disc, data = sweep_data
    residuals = {alpha: energy_residual(mono) for alpha, (_, mono) in data.items()}
    big_mesh = build_layered_mesh(GEOM, 32, 16, 4)
    for alpha in [10.0, 1e9]:
        field = solve_monolithic_friction(mesh=big_mesh, nu1=1.0, nu2=1.0, force1=FORCE, force2=FORCE, alpha=alpha)
        residuals[(alpha, "fine")] = energy_residual(field)
    worst = max(residuals.values())
    ok = worst <= 1e-8
    shown = ", ".join(
        f"{k if not isinstance(k, tuple) else '%g@fine' % k[0]}: {v:.1e}"
        for k, v in residuals.items()
    )
    record_criterion(
        f"criterion 2 (energy identity <=1e-8 on every monolithic friction solve): "
        f"{verdict(ok)} — worst {worst:.2e} ({shown}); friction is solved with an "
        f"interface-traction multiplier, so no alpha-sized entry enters the matrix and "
        f"the identity holds near roundoff for every alpha"
    )
    assert ok, f"worst relative energy residual {worst:.3e} > 1e-8"


def test_criterion_3_penalty_convergence(record_criterion):
    mesh = build_layered_mesh(GEOM, 32, 16, 4)
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    continuity = solve_monolithic_continuity(mesh, 1.0, 1.0, FORCE, FORCE, disc=disc)
    w_ref = w_norm(continuity)
    alphas = [10.0, 1e2, 1e3, 1e4, 1e5, 1e6]
    dists = []
    weighted_jumps = []
    import dataclasses

    for alpha in alphas:
        mono = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=alpha, disc=disc)
        diff = dataclasses.replace(
            mono,
            u1=mono.u1 - continuity.u1,
            p1=mono.p1 - continuity.p1,
            u2=mono.u2 - continuity.u2,
            p2=mono.p2 - continuity.p2,
        )
        dists.append(w_norm(diff))
        weighted_jumps.append(alpha * jump_norm(mono) ** 2)
    nonincreasing = all(b <= a for a, b in zip(dists, dists[1:]))
    small_at_end = dists[-1] <= 1e-4 * w_ref
    bounded = all(wj <= 2.0 * weighted_jumps[0] for wj in weighted_jumps)
    ok = nonincreasing and small_at_end and bounded
    record_criterion(
        f"criterion 3 (penalty convergence in the energy norm): {verdict(ok)} — "
        f"distances {['%.2e' % d for d in dists]} nonincreasing={nonincreasing}, "
        f"final {dists[-1]:.2e} <= 1e-4*{w_ref:.3e}={small_at_end}, "
        f"alpha*jump^2 {['%.2e' % w for w in weighted_jumps]} all <= 2x first={bounded}"
    )
    assert ok


def error_to_increment(alpha):
    """rho / (1 - rho) for the sweep geometry, rho being the contraction per
    full iteration, (50 alpha / (1 + 50 alpha)) (5 alpha / (1 + 5 alpha)).
    The alternating error keeps one direction and shrinks by rho per
    iteration, so the stopped iterate lies exactly this factor times the
    last increment from the fixed point.  Written without the cancellation
    in 1 - rho, which is ~2e-10 at alpha = 1e9."""
    return 250.0 * alpha**2 / (1.0 + 55.0 * alpha)


def test_criterion_4_alternating_matches_monolithic(record_criterion, sweep_data):
    mesh, disc, data = sweep_data
    bound = 10.0 * SWEEP_TOL

    def gap(field, mono):
        return disc.velocity_l2(field.u1 - mono.u1, field.u2 - mono.u2)

    fixed_gaps = {}
    ratios = {}
    for alpha, (report, mono) in data.items():
        start = SchwarzConfig(
            alpha=alpha, max_iter=1, initial_neighbor_trace=mono.interface_trace(Subdomain.LOWER)
        )
        sweep = schwarz_solve(mesh, 1.0, 1.0, FORCE, FORCE, start, disc=disc)
        fixed_gaps[alpha] = gap(sweep.final, mono)
        predicted = error_to_increment(alpha) * report.increments[-1]
        ratios[alpha] = gap(report.final, mono) / predicted
    fixed_ok = all(g <= bound for g in fixed_gaps.values())
    contraction_ok = all(abs(r - 1.0) <= 1e-4 for r in ratios.values())
    ok = fixed_ok and contraction_ok
    record_criterion(
        f"criterion 4 (alternating solver matches monolithic): {verdict(ok)} — "
        f"(a) one sweep from the monolithic lower trace stays within {bound:g} in L2: "
        f"{verdict(fixed_ok)}, gaps {', '.join(f'{a:g}: {g:.1e}' for a, g in fixed_gaps.items())}; "
        f"(b) stopped gap / (rho/(1-rho) * last increment) within 1e-4 of 1: "
        f"{verdict(contraction_ok)}, ratios {', '.join(f'{a:g}: {r:.6f}' for a, r in ratios.items())}"
    )
    assert fixed_ok, f"one sweep from the monolithic trace moves more than {bound:g}"
    assert contraction_ok, "stopped gaps do not follow the contraction; see recorded line"


def test_criterion_5_iteration_count_trend(record_criterion, sweep_data):
    mesh, disc, data = sweep_data
    measured = [(data[a][0].n_iterations, data[a][0].converged) for a in SWEEP_ALPHAS]
    expected = [scalar_schwarz(a, SWEEP_TOL, SWEEP_CAP)[:2] for a in SWEEP_ALPHAS]
    recursion_ok = measured == expected
    growing = [n for a, (n, _) in zip(SWEEP_ALPHAS, measured) if a <= 1e6]
    nondecreasing = all(b >= a for a, b in zip(growing, growing[1:]))
    ok = recursion_ok and nondecreasing
    shown = ", ".join(
        f"{a:g}: {n}{'' if c else ' (cap)'}" for a, (n, c) in zip(SWEEP_ALPHAS, measured)
    )
    record_criterion(
        f"criterion 5 (iteration-count trend over the coefficient list): {verdict(ok)} — "
        f"n = [{shown}]; equal to the scalar recursion={recursion_ok}, nondecreasing over "
        f"10..1e6={nondecreasing}: the contraction factor rises to 1 as the coefficient grows, "
        f"until alpha=1e9 stagnates after 2 sweeps far from the solution"
    )
    assert recursion_ok, f"counts {measured} differ from the scalar recursion {expected}"
    assert nondecreasing, f"counts decrease over alpha = 10..1e6: {growing}"


def test_criterion_6_dirichlet_exchange_stagnates(record_criterion):
    mesh = build_layered_mesh(GEOM, 8, 4, 2)
    demo = dirichlet_exchange_demo(mesh, 1.0, 1.0, FORCE, FORCE, steps=8)
    # deltas[k-1] = max|trace_k - trace_{k-1}|; steps k >= 2 must match step 1
    later_deltas = demo.deltas[1:]
    worst = max(later_deltas)
    ok = worst <= 1e-12
    mono = solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=10.0)
    frozen_gap = float(
        np.max(np.abs(mono.interface_trace(Subdomain.UPPER) - demo.traces[-1]))
    )
    record_criterion(
        f"criterion 6 (pure Dirichlet exchange stagnates): {verdict(ok)} — "
        f"max trace change after the first exchange {worst:.1e} <= 1e-12 while the "
        f"coupled interface velocity sits {frozen_gap:.3g} away from the frozen trace"
    )
    assert ok


def test_criterion_7_property_suites(record_criterion):
    checks = {}

    # mesh invariants
    violations = []
    for nx, nzu, nzl in [(2, 1, 1), (5, 3, 2), (8, 4, 2)]:
        violations += validate_mesh(build_layered_mesh(GEOM, nx, nzu, nzl))
    checks["mesh invariants"] = not violations

    # friction-matrix kernel: the multiplier's B block vanishes exactly when
    # the two layers carry the same trace
    b, rows_upper, rows_lower = multiplier_border(build_layered_mesh(GEOM, 4, 2, 1))
    x = np.linspace(1.0, 2.0, b.shape[1])
    x[rows_lower] = x[rows_upper]
    in_kernel = np.linalg.norm(b @ x) <= 1e-12 * np.linalg.norm(x)
    x[rows_lower[1]] += 1.0
    checks["friction-matrix kernel"] = in_kernel and np.linalg.norm(b @ x) > 1e-12 * np.linalg.norm(x)

    # solver residual certification: reported residual honored, breach raises
    rng = np.random.default_rng(3)
    matrix = CscMatrix.from_scipy(rng.standard_normal((40, 40)) + 40.0 * np.eye(40))
    rhs = rng.standard_normal(40)
    _, report = solve(matrix, rhs, tol=1e-10)
    # a breach needs a nonzero residual; an exact solve could satisfy any tolerance
    assert report.relative_residual > 0.0, "the certification system solved exactly"
    cert_ok = report.relative_residual <= 1e-10
    try:
        solve(matrix, rhs, tol=1e-30)
        breach_raises = False
    except ResidualCertificationError:
        breach_raises = True
    checks["solver residual certification"] = cert_ok and breach_raises

    # norm homogeneity
    import dataclasses

    field = solve_monolithic_friction(
        build_layered_mesh(GEOM, 4, 2, 1), 1.0, 1.0, FORCE, FORCE, alpha=10.0
    )
    scaled = dataclasses.replace(field, u1=-3.0 * field.u1, u2=-3.0 * field.u2)
    homogeneous = all(
        abs(norm(scaled) - 3.0 * norm(field)) <= 1e-12 * max(norm(field), 1.0) * 3.0
        for norm in (l2_norm, w_norm, jump_norm)
    )
    checks["norm homogeneity"] = homogeneous

    # config round-trip
    config = RunConfig(nx=3, alpha=1e9, f2=(0.5, -0.25), formats=("csv",))
    checks["config round-trip"] = parse_config(render_config(config)) == config

    ok = all(checks.values())
    shown = ", ".join(f"{name}={verdict(good)}" for name, good in checks.items())
    record_criterion(f"criterion 7 (named property suites): {verdict(ok)} — {shown}")
    assert ok, shown
