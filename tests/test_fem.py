"""Assembly invariants: spaces, constraints, element matrices, coupled modes."""

import numpy as np
import pytest

from stokescouple.coupling import _friction_multiplier_system, discretize, solve_monolithic_friction
from stokescouple.fem import (
    BodyForce,
    CouplingMode,
    assemble_coupled_system,
    assemble_dirichlet_subproblem,
    assemble_interface_friction,
    assemble_robin_subproblem,
    assemble_stokes,
    build_space,
    dirichlet_trace_lift,
)
from stokescouple.linalg import CsrMatrix, solve, spmv
from stokescouple.mesh import Geometry, Subdomain, build_layered_mesh


@pytest.fixture(scope="module")
def small_mesh():
    return build_layered_mesh(Geometry(), nx=8, nz_upper=4, nz_lower=2)


@pytest.fixture(scope="module")
def spaces(small_mesh):
    return (
        build_space(small_mesh, Subdomain.UPPER),
        build_space(small_mesh, Subdomain.LOWER),
    )


FORCE = BodyForce(1.0, -1.0)


def layer_ops(mesh, nu1=1.0, nu2=1.0):
    return (
        assemble_stokes(build_space(mesh, Subdomain.UPPER), nu1, FORCE),
        assemble_stokes(build_space(mesh, Subdomain.LOWER), nu2, FORCE),
    )


@pytest.fixture(scope="module")
def ops(small_mesh):
    return layer_ops(small_mesh)


def euler_p2_count(nx, nz):
    vertices = (nx + 1) * (nz + 1)
    triangles = 2 * nx * nz
    edges = vertices + triangles - 1  # planar Euler formula on a rectangle
    return vertices, edges


def test_space_node_counts(spaces):
    upper, lower = spaces
    v_up, e_up = euler_p2_count(8, 4)
    assert len(upper.velocity_nodes) == v_up + e_up
    assert len(upper.pressure_nodes) == v_up
    v_lo, e_lo = euler_p2_count(8, 2)
    assert len(lower.velocity_nodes) == v_lo + e_lo
    assert len(lower.pressure_nodes) == v_lo


def test_dof_numbering_is_lexicographic(spaces):
    for space in spaces:
        coords = space.velocity_nodes
        keys = list(map(tuple, coords))
        assert keys == sorted(keys)
        coords = space.pressure_nodes
        keys = list(map(tuple, coords))
        assert keys == sorted(keys)


def test_constraint_table(spaces):
    upper, lower = spaces
    # walls: both components pinned; interface: vertical component pinned
    z = upper.velocity_nodes[:, 1]
    wall_nodes = np.nonzero(z == 50.0)[0]
    iface_nodes = np.nonzero(z == 0.0)[0]
    dirichlet = set(upper.dirichlet_vdofs.tolist())
    for n in wall_nodes:
        assert 2 * n in dirichlet and 2 * n + 1 in dirichlet
    for n in iface_nodes:
        assert 2 * n + 1 in dirichlet
        assert 2 * n not in dirichlet
    # periodic: every x = L node is a slave of the matching x = 0 node
    xs = upper.velocity_nodes[:, 0]
    slaves = {s for s, _ in upper.periodic_vdofs}
    for n in np.nonzero(xs == 100.0)[0]:
        assert 2 * n in slaves and 2 * n + 1 in slaves
    for s, m in upper.periodic_vdofs:
        ps, pm = upper.velocity_nodes[s // 2], upper.velocity_nodes[m // 2]
        assert ps[0] == 100.0 and pm[0] == 0.0 and ps[1] == pm[1]
    # exactly one pressure gauge per layer
    table = upper.constraint_table()
    assert sum(1 for row in table if row[0] == "pressure_gauge") == 1


def test_interface_nodes_ascending_and_conforming(spaces):
    upper, lower = spaces
    assert np.array_equal(upper.interface_x, lower.interface_x)
    assert np.all(np.diff(upper.interface_x) > 0.0)
    assert len(upper.interface_nodes) == 2 * 8 + 1  # vertices and midpoints


def test_quadrature_exactness_on_reference_elements():
    from stokescouple.fem import _SEG_POINTS, _SEG_WEIGHTS, _TRI_POINTS, _TRI_WEIGHTS

    # triangle rule: exact for all monomials xi^a eta^b with a + b <= 4
    xi, eta = _TRI_POINTS[:, 1], _TRI_POINTS[:, 2]
    for a in range(5):
        for b in range(5 - a):
            quad = np.sum(_TRI_WEIGHTS * xi**a * eta**b)
            import math

            exact = 2.0 * math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert quad == pytest.approx(exact, rel=1e-13), (a, b)
    # segment rule: exact through degree 5 on [0, 1]
    for d in range(6):
        assert np.sum(_SEG_WEIGHTS * _SEG_POINTS**d) == pytest.approx(1.0 / (d + 1), rel=1e-13)


def test_mass_and_stiffness_exact_values(spaces):
    upper, _ = spaces
    op = assemble_stokes(upper, 1.0, FORCE)
    area = 100.0 * 50.0
    # partition of unity: total mass = 2 * area (two components)
    assert op.mass.sum() == pytest.approx(2.0 * area, rel=1e-12)
    # constants are in the kernel of the stiffness
    const = np.tile([1.0, 0.0], len(upper.velocity_nodes))
    assert np.abs(op.stiffness @ const).max() < 1e-10
    # u = (z^2, 0): integral of |grad u|^2 = integral (2z)^2 = 4 L z+^3 / 3
    u = np.zeros(op.space.n_velocity_dofs)
    u[0::2] = upper.velocity_nodes[:, 1] ** 2
    assert u @ (op.stiffness @ u) == pytest.approx(4.0 * 100.0 * 50.0**3 / 3.0, rel=1e-12)
    # gauge vector integrates P1 basis: sums to the layer area
    assert op.gauge.sum() == pytest.approx(area, rel=1e-12)


def test_divergence_block_exact(spaces):
    upper, _ = spaces
    op = assemble_stokes(upper, 1.0, FORCE)
    # divergence-free field (x, -z): pressure rows vanish
    u = np.empty(op.space.n_velocity_dofs)
    u[0::2] = upper.velocity_nodes[:, 0]
    u[1::2] = -upper.velocity_nodes[:, 1]
    assert np.abs(op.divergence.T @ u).max() < 1e-10
    # u = (x, 0) has div = 1: pressure rows give -integral psi_j = -gauge
    u[1::2] = 0.0
    np.testing.assert_allclose(op.divergence.T @ u, -op.gauge, atol=1e-10)


def test_load_vector_constant_and_evaluator(spaces):
    upper, _ = spaces
    op = assemble_stokes(upper, 1.0, BodyForce(2.0, -3.0))
    area = 100.0 * 50.0
    assert op.load[0::2].sum() == pytest.approx(2.0 * area, rel=1e-12)
    assert op.load[1::2].sum() == pytest.approx(-3.0 * area, rel=1e-12)
    # evaluator: f = (z, 0) integrates to L * z+^2 / 2 in x-component
    op2 = assemble_stokes(upper, 1.0, BodyForce(evaluator=lambda x, z: (z, np.zeros_like(z))))
    assert op2.load[0::2].sum() == pytest.approx(100.0 * 50.0**2 / 2.0, rel=1e-12)
    assert np.abs(op2.load[1::2]).max() == 0.0


def test_interface_trace_mass_matches_analytic(spaces):
    # single-segment interface: nodes (a, mid, b), exact quadratic mass matrix
    mesh1 = build_layered_mesh(Geometry(length=7.0, z_plus=2.0, z_minus=-1.0), 1, 1, 1)
    up1 = build_space(mesh1, Subdomain.UPPER)
    lo1 = build_space(mesh1, Subdomain.LOWER)
    m1 = assemble_interface_friction(up1, lo1).toarray()
    block = m1[np.ix_([0, 2, 1], [0, 2, 1])]  # reorder to (a, b, mid)
    ref = 7.0 / 30.0 * np.array([[4.0, -1.0, 2.0], [-1.0, 4.0, 2.0], [2.0, 2.0, 16.0]])
    np.testing.assert_allclose(block, ref, rtol=1e-13)
    # constant difference d on the whole interface: quadratic form = alpha L d^2
    upper, lower = spaces
    m = assemble_interface_friction(upper, lower)
    d = 2.5
    t = np.full(m.shape[0], d)
    q = 3.0 * (t @ (m @ t))
    assert q == pytest.approx(3.0 * 100.0 * d**2, rel=1e-13)
    coarse_lower = build_space(build_layered_mesh(Geometry(), 4, 2, 1), Subdomain.LOWER)
    with pytest.raises(ValueError, match="do not match"):
        assemble_interface_friction(upper, coarse_lower)


def multiplier_border(mesh):
    """The friction multiplier system's B block on `mesh` (rows: periodic
    trace dofs, columns: solved unknowns of the uncoupled system) and the
    solved rows of each layer's horizontal interface velocity, found
    node by node through `row_of`."""
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    system = assemble_coupled_system(disc.op_upper, disc.op_lower, CouplingMode.UNCOUPLED)
    matrix, _ = _friction_multiplier_system(system, disc.trace_mass, 7.0)
    k = matrix.shape[0] - system.matrix.n_rows
    layout = system.layout
    rows = {
        sub: np.array([layout.row_of(sub, "velocity", int(n)) for n in disc.space(sub).interface_nodes])
        for sub in (Subdomain.UPPER, Subdomain.LOWER)
    }
    return matrix[:k, k:], rows[Subdomain.UPPER], rows[Subdomain.LOWER]


def test_friction_kernel_on_equal_traces(small_mesh):
    b, rows_upper, rows_lower = multiplier_border(small_mesh)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(b.shape[1])
        x[rows_lower] = x[rows_upper]  # both layers carry the same trace
        assert np.linalg.norm(b @ x) <= 1e-12 * np.linalg.norm(x)
        x[rows_lower[3]] += 1.0  # one interface node slips
        assert np.linalg.norm(b @ x) > 1e-12 * np.linalg.norm(x)


def test_friction_rejects_bad_alpha(small_mesh):
    op = assemble_stokes(build_space(small_mesh, Subdomain.UPPER), 1.0, FORCE)
    trace = np.zeros(len(op.space.interface_nodes))
    for alpha in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="friction coefficient"):
            assemble_robin_subproblem(op, alpha, trace)
        with pytest.raises(ValueError, match="friction coefficient"):
            solve_monolithic_friction(small_mesh, 1.0, 1.0, FORCE, FORCE, alpha=alpha)


def expected_reduced_size(nx, nz_upper, nz_lower):
    """Free dofs of the two-layer system after all eliminations, plus gauges."""
    total = 0
    for nz in (nz_upper, nz_lower):
        v, e = euler_p2_count(nx, nz)
        vdofs = 2 * (v + e)
        wall = 2 * (2 * nx + 1)          # both components on the wall row
        iface = 2 * nx + 1               # vertical component on the interface row
        # x = L column: (2 nz + 1) P2 nodes; wall corner (2 dofs) and the
        # interface corner's vertical dof are already Dirichlet
        slaves = 2 * (2 * nz + 1) - 3
        pressure = v - (nz + 1)          # periodic column folded
        total += vdofs - wall - iface - slaves + pressure
    return total + 2  # one gauge multiplier per layer


def test_system_size_matches_constraint_count(ops):
    sys = assemble_coupled_system(*ops, CouplingMode.UNCOUPLED)
    assert sys.matrix.n_rows == expected_reduced_size(8, 4, 2)
    assert sys.matrix.n_rows == sys.matrix.n_cols == len(sys.rhs)


def test_continuity_removes_free_interface_dofs(ops):
    sysu = assemble_coupled_system(*ops, CouplingMode.UNCOUPLED)
    sysc = assemble_coupled_system(*ops, CouplingMode.CONTINUITY)
    n_iface_free = len(sysu.layout.spaces[Subdomain.UPPER].interface_nodes) - 1
    assert sysu.matrix.n_rows - sysc.matrix.n_rows == n_iface_free


def test_coupled_matrix_is_symmetric(small_mesh):
    ops = layer_ops(small_mesh, 1.0, 2.0)
    uncoupled = assemble_coupled_system(*ops, CouplingMode.UNCOUPLED)
    continuity = assemble_coupled_system(*ops, CouplingMode.CONTINUITY)
    trace_mass = assemble_interface_friction(ops[0].space, ops[1].space)
    friction, _ = _friction_multiplier_system(uncoupled, trace_mass, 10.0)
    for a in (uncoupled.matrix.to_scipy(), continuity.matrix.to_scipy(), friction):
        assert abs(a - a.T).max() < 1e-12


def test_mode_argument_validation(small_mesh, ops):
    with pytest.raises(ValueError, match="unknown coupling mode"):
        assemble_coupled_system(*ops, "friction")
    coarse_lower = layer_ops(build_layered_mesh(Geometry(), 4, 2, 1))[1]
    with pytest.raises(ValueError, match="do not match"):
        assemble_coupled_system(ops[0], coarse_lower, CouplingMode.CONTINUITY)
    with pytest.raises(ValueError):
        assemble_stokes(build_space(small_mesh, Subdomain.UPPER), -1.0, FORCE)


def test_uncoupled_equals_friction_alpha_zero(small_mesh, ops):
    # the monolithic friction solve at alpha = 0 against each layer's own
    # alpha = 0 Robin half-step: zero interface stress either way
    field = solve_monolithic_friction(small_mesh, 1.0, 1.0, FORCE, FORCE, alpha=0.0)
    for op, u in zip(ops, (field.u1, field.u2)):
        sys = assemble_robin_subproblem(op, 0.0, np.zeros(len(op.space.interface_nodes)))
        x, _ = solve(sys.matrix, sys.rhs)
        single = sys.layout.expand(x)[(op.space.subdomain, "velocity")]
        np.testing.assert_allclose(u, single, rtol=0, atol=1e-12 * np.abs(single).max())


def test_row_of_and_expand_consistency(ops):
    sys = assemble_coupled_system(*ops, CouplingMode.UNCOUPLED)
    layout = sys.layout
    upper = layout.spaces[Subdomain.UPPER]
    # a wall dof is constrained away; a mid-layer dof is live
    wall_node = int(np.nonzero(upper.velocity_nodes[:, 1] == 50.0)[0][0])
    assert layout.row_of(Subdomain.UPPER, "velocity", wall_node, 0) == -1
    interior = int(np.nonzero((upper.velocity_nodes[:, 1] == 25.0) & (upper.velocity_nodes[:, 0] == 0.0))[0][0])
    row = layout.row_of(Subdomain.UPPER, "velocity", interior, 0)
    assert row >= 0
    x, _ = solve(sys.matrix, sys.rhs)
    out = layout.expand(x)
    assert out[(Subdomain.UPPER, "velocity")][2 * interior] == x[row]
    # periodic partners expand to identical values
    s, m = upper.periodic_vdofs[0]
    u = out[(Subdomain.UPPER, "velocity")]
    assert u[s] == u[m]


def test_reduction_contract(ops):
    continuity = assemble_coupled_system(*ops, CouplingMode.CONTINUITY).layout
    x = ops[1].space.interface_x
    trace = 3.0 + np.sin(2.0 * np.pi * x / x[-1])
    trace[-1] = trace[0]
    prescribed = assemble_dirichlet_subproblem(ops[1], trace).layout
    for layout in (continuity, prescribed):
        c = layout.reduction.tocsc()
        assert np.all(c.data == 1.0)
        members = [np.sort(c.indices[c.indptr[j] : c.indptr[j + 1]]) for j in range(c.shape[1])]
        smallest = np.array([m[0] for m in members])
        # each column is represented by its smallest raw index, ascending
        assert np.all(np.diff(smallest) > 0)
        for j, m in enumerate(members):
            assert np.all(layout.col_of[m] == j)
        kept = np.concatenate(members)
        assert len(kept) == len(np.unique(kept)) == np.count_nonzero(layout.col_of >= 0)

    # lower x = L -> lower x = 0 -> upper x = 0 collapses to one column
    iface = {
        sub: continuity.offsets[(sub, "velocity")] + 2 * continuity.spaces[sub].interface_nodes
        for sub in (Subdomain.UPPER, Subdomain.LOWER)
    }
    chain = [iface[Subdomain.LOWER][-1], iface[Subdomain.LOWER][0], iface[Subdomain.UPPER][0]]
    col = continuity.col_of[chain[0]]
    assert np.all(continuity.col_of[chain] == col)
    assert continuity.col_of[iface[Subdomain.UPPER][-1]] == col
    assert np.sort(continuity.reduction.tocsc()[:, col].indices)[0] == iface[Subdomain.UPPER][0]

    # the prescribed value reaches every member of its class, x = L included
    ifx = prescribed.offsets[(Subdomain.LOWER, "velocity")] + 2 * prescribed.spaces[
        Subdomain.LOWER
    ].interface_nodes
    assert np.all(prescribed.col_of[ifx] == -1)
    np.testing.assert_array_equal(prescribed.x_bc[ifx], trace)
    others = np.ones(prescribed.n_raw, dtype=bool)
    others[ifx] = False
    assert np.all(prescribed.x_bc[others] == 0.0)


def test_continuity_traces_identical_after_expand(ops):
    sys = assemble_coupled_system(*ops, CouplingMode.CONTINUITY)
    x, _ = solve(sys.matrix, sys.rhs)
    out = sys.layout.expand(x)
    up = sys.layout.spaces[Subdomain.UPPER]
    lo = sys.layout.spaces[Subdomain.LOWER]
    tu = out[(Subdomain.UPPER, "velocity")][2 * up.interface_nodes]
    tl = out[(Subdomain.LOWER, "velocity")][2 * lo.interface_nodes]
    np.testing.assert_array_equal(tu, tl)


def test_weak_incompressibility_of_solutions(small_mesh):
    field = solve_monolithic_friction(small_mesh, 1.0, 1.0, FORCE, FORCE, alpha=10.0)
    for op, u in [(field.disc.op_upper, field.u1), (field.disc.op_lower, field.u2)]:
        div = op.divergence.T @ u
        assert np.linalg.norm(div) <= 1e-8 * max(np.linalg.norm(u), 1.0)


def test_galerkin_smoke_random_test_vectors(ops):
    uncoupled = assemble_coupled_system(*ops, CouplingMode.UNCOUPLED)
    trace_mass = assemble_interface_friction(ops[0].space, ops[1].space)
    matrix, rhs = _friction_multiplier_system(uncoupled, trace_mass, 10.0)
    matrix = CsrMatrix.from_scipy(matrix)
    x, _ = solve(matrix, rhs)
    ax = spmv(matrix, x)
    rng = np.random.default_rng(42)
    scale = np.linalg.norm(rhs)
    for _ in range(20):
        v = rng.standard_normal(len(x))
        assert abs(v @ ax - v @ rhs) <= 1e-8 * scale * np.linalg.norm(v)


def test_robin_subproblem_matches_channel_half_step(small_mesh):
    # upper layer, zero neighbor trace: u(z) = -z^2/2 + c z + d with
    # c = alpha 1250 / (1 + 50 alpha), d = 1250 - 50 c
    space = build_space(small_mesh, Subdomain.UPPER)
    op = assemble_stokes(space, 1.0, FORCE)
    alpha = 10.0
    sys = assemble_robin_subproblem(op, alpha, np.zeros(len(space.interface_nodes)))
    x, _ = solve(sys.matrix, sys.rhs)
    u = sys.layout.expand(x)[(Subdomain.UPPER, "velocity")]
    c = alpha * 1250.0 / (1.0 + 50.0 * alpha)
    d = 1250.0 - 50.0 * c
    np.testing.assert_allclose(u[2 * space.interface_nodes], d, rtol=1e-10)
    # and with a constant neighbor trace g: c = alpha (1250 - g)/(1 + 50 alpha)
    g = 40.0
    sys2 = assemble_robin_subproblem(op, alpha, np.full(len(space.interface_nodes), g))
    x2, _ = solve(sys2.matrix, sys2.rhs)
    u2 = sys2.layout.expand(x2)[(Subdomain.UPPER, "velocity")]
    c2 = alpha * (1250.0 - g) / (1.0 + 50.0 * alpha)
    np.testing.assert_allclose(u2[2 * space.interface_nodes], 1250.0 - 50.0 * c2, rtol=1e-10)


def test_robin_trace_shape_validation(small_mesh):
    op = assemble_stokes(build_space(small_mesh, Subdomain.UPPER), 1.0, FORCE)
    with pytest.raises(ValueError):
        assemble_robin_subproblem(op, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        assemble_robin_subproblem(op, np.inf, np.zeros(len(op.space.interface_nodes)))


def test_dirichlet_subproblem_imposes_trace(small_mesh):
    space = build_space(small_mesh, Subdomain.LOWER)
    trace = np.full(len(space.interface_nodes), 9.25)
    sys = assemble_dirichlet_subproblem(assemble_stokes(space, 1.0, FORCE), trace)
    x, _ = solve(sys.matrix, sys.rhs)
    u = sys.layout.expand(x)[(Subdomain.LOWER, "velocity")]
    np.testing.assert_array_equal(u[2 * space.interface_nodes], trace)
    # interior solves the channel problem with that boundary value:
    # u(z) = -z^2/2 + c z + d, u(-5) = 0, u(0) = 9.25
    d = 9.25
    c = (d - 12.5) / 5.0
    z = space.velocity_nodes[:, 1]
    np.testing.assert_allclose(u[0::2], -0.5 * z**2 + c * z + d, atol=1e-9)


def test_dirichlet_subproblem_rejects_nonperiodic_trace(small_mesh):
    op = assemble_stokes(build_space(small_mesh, Subdomain.LOWER), 1.0, FORCE)
    trace = np.ones(len(op.space.interface_nodes))
    trace[-1] = 5.0  # x = L is the x = 0 node: one value cannot be both
    with pytest.raises(ValueError, match="periodic"):
        assemble_dirichlet_subproblem(op, trace)


def test_dirichlet_trace_lift_reproduces_assembled_rhs(small_mesh):
    op = assemble_stokes(build_space(small_mesh, Subdomain.UPPER), 1.0, FORCE)
    x = op.space.interface_x
    trace = 3.0 + np.sin(2.0 * np.pi * x / x[-1]) + x / 17.0
    trace[-1] = trace[0]  # periodic: x = L is the x = 0 node
    base = assemble_dirichlet_subproblem(op, np.zeros(len(x)))
    imposed = assemble_dirichlet_subproblem(op, trace)
    assert (base.matrix.to_scipy() != imposed.matrix.to_scipy()).nnz == 0
    lifted = base.rhs - dirichlet_trace_lift(op, base.layout) @ trace
    np.testing.assert_allclose(lifted, imposed.rhs, rtol=0, atol=1e-12 * np.abs(imposed.rhs).max())


def test_manufactured_solution_convergence_order():
    """Non-polynomial manufactured solution through the Robin assembly path:
    the L2 velocity error must shrink at (close to) cubic order."""
    length, z_top = 100.0, 50.0
    k = 2.0 * np.pi / length
    nu, alpha = 1.0, 2.0
    scale = 100.0 / z_top**4

    def s(z):
        return scale * z**2 * (z - z_top) ** 2

    def s1(z):
        return scale * (4.0 * z**3 - 300.0 * z**2 + 5000.0 * z)

    def s2(z):
        return scale * (12.0 * z**2 - 600.0 * z + 5000.0)

    def s3(z):
        return scale * (24.0 * z - 600.0)

    def u_exact(x, z):
        return np.sin(k * x) * s1(z), -k * np.cos(k * x) * s(z)

    def body(x, z):
        fx = -nu * (np.sin(k * x) * (s3(z) - k**2 * s1(z)))
        fz = -nu * (k * np.cos(k * x) * (k**2 * s(z) - s2(z)))
        return fx, fz

    from stokescouple.fem import _TRI_POINTS, _TRI_WEIGHTS, _p2_values, _cell_geometry

    errors = []
    for nx in (8, 16, 32):
        mesh = build_layered_mesh(Geometry(length, z_top, -5.0), nx, nx // 2, 1)
        space = build_space(mesh, Subdomain.UPPER)
        xs = space.velocity_nodes[space.interface_nodes, 0]
        # Robin data from the friction law at z = 0 (outward normal -z):
        # g = u_x - (nu/alpha) du_x/dz
        g = np.sin(k * xs) * (s1(0.0) - (nu / alpha) * s2(0.0))
        op = assemble_stokes(space, nu, BodyForce(evaluator=body))
        sys = assemble_robin_subproblem(op, alpha, g)
        x, _ = solve(sys.matrix, sys.rhs)
        u = sys.layout.expand(x)[(Subdomain.UPPER, "velocity")]

        tri_pts, _, det = _cell_geometry(space)
        p2v = _p2_values(_TRI_POINTS)
        xq = np.einsum("qa,tad->tqd", _TRI_POINTS, tri_pts)
        uh_x = np.einsum("qi,ti->tq", p2v, u[2 * space.velocity_cells])
        uh_z = np.einsum("qi,ti->tq", p2v, u[2 * space.velocity_cells + 1])
        ex, ez = u_exact(xq[:, :, 0], xq[:, :, 1])
        err2 = np.einsum("q,tq,t->", _TRI_WEIGHTS, (uh_x - ex) ** 2 + (uh_z - ez) ** 2, 0.5 * det)
        errors.append(np.sqrt(err2))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 2.5, (errors, orders)
