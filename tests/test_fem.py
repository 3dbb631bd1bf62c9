"""Assembly invariants: spaces, constraints, element matrices, coupled modes."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from stokescouple import fem
from stokescouple.coupling import (
    _check_trace,
    check_periodic_trace,
    discretize,
    solve_monolithic_continuity,
    solve_monolithic_friction,
)
from stokescouple.fem import (
    _TRI_POINTS,
    _TRI_WEIGHTS,
    BodyForce,
    StokesOperator,
    assemble_coupled_system,
    assemble_dirichlet_subproblem,
    assemble_interface_friction,
    assemble_robin_subproblem,
    assemble_stokes,
    _cell_geometry,
    _p2_reference_grads,
    _p2_values,
    build_space,
)
from stokescouple.linalg import CscMatrix, solve
from stokescouple.mesh import Geometry, Subdomain, build_layered_mesh, validate_mesh


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


def layer_ops(mesh, nu1=1.0, nu2=1.0, force=FORCE):
    return (
        assemble_stokes(build_space(mesh, Subdomain.UPPER), nu1, force),
        assemble_stokes(build_space(mesh, Subdomain.LOWER), nu2, force),
    )


def folded_mass(space_upper, space_lower):
    """(P^T M, P): the interface trace mass M and the periodic fold P,
    (n_trace, n_trace - 1) with x = L on the x = 0 dof, built here."""
    n = len(space_upper.interface_nodes)
    fold = scipy.sparse.csr_matrix(
        (np.ones(n), (np.arange(n), np.r_[np.arange(n - 1), 0])), shape=(n, n - 1)
    )
    return fold.T @ assemble_interface_friction(space_upper, space_lower), fold


def robin_system(op, alpha):
    """The Robin half-step with coefficient alpha, built here with scipy
    from the package's alpha = 0 system A0 and traction operator T_p^T:
    (matrix, rhs at g = 0, E, layout), with matrix A0 + alpha T_p^T M_p T_p
    and E = alpha T_p^T P^T M taking the neighbor trace g to the rhs.  M is
    the trace mass, P the periodic fold (x = L is the x = 0 dof) and M_p =
    P^T M P."""
    system, traction = assemble_robin_subproblem(op)
    fold_mass, fold = folded_mass(op.space, op.space)
    matrix = system.matrix.to_scipy() + alpha * (traction @ (fold_mass @ fold) @ traction.T)
    return CscMatrix.from_scipy(matrix), system.rhs, alpha * (traction @ fold_mass), system.layout


def robin_solve(op, alpha, g):
    """Raw velocity of the test-built Robin half-step against trace g."""
    matrix, rhs, coupling, layout = robin_system(op, alpha)
    x, _ = solve(matrix, rhs + coupling @ g)
    return layout.expand(x)[(op.space.subdomain, "velocity")]


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


def test_constraint_table(spaces, ops):
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
    for op in ops:
        assert assemble_robin_subproblem(op)[0].layout.gauge_subdomains == (op.space.subdomain,)
    assert assemble_coupled_system(*ops, np.inf).layout.n_gauge == 2


@pytest.mark.parametrize("geometry", [Geometry(), Geometry(length=7.0, z_plus=2.0, z_minus=-3.0)])
def test_space_numbering_matches_the_reference(geometry):
    # edges found by np.unique over rows, periodic masters by a dict on z
    mesh = build_layered_mesh(geometry, 5, 3, 2)
    for sub in (Subdomain.UPPER, Subdomain.LOWER):
        space = build_space(mesh, sub)
        tris = mesh.triangles[mesh.triangle_subdomain == sub]
        edges = np.sort(tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        unique_edges = np.unique(edges, axis=0)
        mids = 0.5 * (mesh.vertices[unique_edges[:, 0]] + mesh.vertices[unique_edges[:, 1]])
        coords = np.vstack([mesh.vertices[np.unique(tris)], mids])
        order = np.lexsort((coords[:, 1], coords[:, 0]))
        np.testing.assert_array_equal(space.velocity_nodes, coords[order])
        for nodes, pairs in (
            (space.velocity_nodes, space.periodic_vdofs[0::2] // 2),
            (space.pressure_nodes, space.periodic_pdofs),
        ):
            x, z = nodes[:, 0], nodes[:, 1]
            left = {z[k]: k for k in np.nonzero(x == 0.0)[0]}
            expected = [(s, left[z[s]]) for s in np.nonzero(x == geometry.length)[0]]
            assert pairs.dtype == np.int64
            np.testing.assert_array_equal(pairs, np.array(expected).reshape(-1, 2))


def test_space_rejects_unmatched_periodic_nodes():
    mesh = build_layered_mesh(Geometry(), 4, 2, 1)
    vertices = mesh.vertices.copy()
    right = np.flatnonzero(vertices[:, 0] == mesh.geometry.length)
    vertices[right[1], 1] += 0.25  # an x = L vertex off its row
    with pytest.raises(ValueError, match="periodic boundary nodes do not match"):
        build_space(dataclasses.replace(mesh, vertices=vertices), Subdomain.LOWER)


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
    op = assemble_stokes(upper, 2.0, FORCE)
    stiffness = op.viscous / op.nu
    area = 100.0 * 50.0
    # partition of unity: total mass = 2 * area (two components)
    assert op.mass.sum() == pytest.approx(2.0 * area, rel=1e-12)
    # constants are in the kernel of the stiffness
    const = np.tile([1.0, 0.0], len(upper.velocity_nodes))
    assert np.abs(stiffness @ const).max() < 1e-10
    # u = (z^2, 0): integral of |grad u|^2 = integral (2z)^2 = 4 L z+^3 / 3
    u = np.zeros(op.space.n_velocity_dofs)
    u[0::2] = upper.velocity_nodes[:, 1] ** 2
    assert u @ (stiffness @ u) == pytest.approx(4.0 * 100.0 * 50.0**3 / 3.0, rel=1e-12)
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
    """The friction system's B block on `mesh` (rows: periodic trace dofs,
    columns: both layers' solved unknowns) and the solved rows of each
    layer's horizontal interface velocity, read from the layout's `col_of`
    at their raw indices."""
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    system = assemble_coupled_system(disc.op_upper, disc.op_lower, 7.0)
    layout = system.layout
    n_rows = layout.n_rows  # the multiplier unknowns come last
    rows = [
        layout.col_of[layout.offsets[(sub, "velocity")] + 2 * disc.space(sub).interface_nodes]
        for sub in (Subdomain.UPPER, Subdomain.LOWER)
    ]
    return system.matrix.to_scipy()[n_rows:, :n_rows], rows[0], rows[1]


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
    core = discretize(small_mesh, 1.0, 1.0, FORCE, FORCE).interface_cores[Subdomain.UPPER]
    for alpha in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="friction coefficient"):
            core.robin(alpha)
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
    sys = assemble_coupled_system(*ops, 0.0)
    assert sys.matrix.n_rows == expected_reduced_size(8, 4, 2)
    assert sys.matrix.n_rows == sys.matrix.n_cols == len(sys.rhs)


def test_continuity_removes_free_interface_dofs(ops):
    sysu = assemble_coupled_system(*ops, 0.0)
    sysc = assemble_coupled_system(*ops, np.inf)
    n_iface_free = len(ops[0].space.interface_nodes) - 1
    assert sysu.matrix.n_rows - sysc.matrix.n_rows == n_iface_free


def test_coupled_matrix_is_symmetric(small_mesh):
    ops = layer_ops(small_mesh, 1.0, 2.0)
    for alpha in (0.0, np.inf, 10.0):  # uncoupled, continuity, friction
        a = assemble_coupled_system(*ops, alpha).matrix.to_scipy()
        assert abs(a - a.T).max() < 1e-12
    for op in ops:  # the Dirichlet half-step's bordered system
        a = assemble_dirichlet_subproblem(op)[0].matrix.to_scipy()
        assert abs(a - a.T).max() < 1e-12


def test_mode_argument_validation(small_mesh, ops):
    # the coefficient selects the coupling: inf is continuity
    for alpha in (-1.0, np.nan):
        with pytest.raises(ValueError, match="friction coefficient"):
            assemble_coupled_system(*ops, alpha)
    coarse_lower = layer_ops(build_layered_mesh(Geometry(), 4, 2, 1))[1]
    # the interfaces are checked at every alpha, bordered or not
    odd = [
        dataclasses.replace(op, space=dataclasses.replace(op.space, interface_nodes=op.space.interface_nodes[:-1]))
        for op in ops
    ]
    for alpha in (0.0, np.inf, 10.0):
        with pytest.raises(ValueError, match="do not match"):
            assemble_coupled_system(ops[0], coarse_lower, alpha)
        with pytest.raises(ValueError, match="interleave"):
            assemble_coupled_system(*odd, alpha)
    with pytest.raises(ValueError):
        assemble_stokes(build_space(small_mesh, Subdomain.UPPER), -1.0, FORCE)


def test_uncoupled_equals_friction_alpha_zero(small_mesh, ops):
    # the monolithic friction solve at alpha = 0 against each layer's own
    # alpha = 0 Robin half-step: zero interface stress either way
    field = solve_monolithic_friction(small_mesh, 1.0, 1.0, FORCE, FORCE, alpha=0.0)
    for op, u in zip(ops, (field.u1, field.u2)):
        sys, _ = assemble_robin_subproblem(op)
        x, _ = solve(sys.matrix, sys.rhs)
        single = sys.layout.expand(x)[(op.space.subdomain, "velocity")]
        np.testing.assert_allclose(u, single, rtol=0, atol=1e-12 * np.abs(single).max())


def test_col_of_and_expand_consistency(ops):
    sys = assemble_coupled_system(*ops, 0.0)
    layout = sys.layout
    upper = layout.spaces[Subdomain.UPPER]
    offset = layout.offsets[(Subdomain.UPPER, "velocity")]
    # a wall dof is constrained away; a mid-layer dof is live
    wall_node = int(np.nonzero(upper.velocity_nodes[:, 1] == 50.0)[0][0])
    assert layout.col_of[offset + 2 * wall_node] == -1
    interior = int(np.nonzero((upper.velocity_nodes[:, 1] == 25.0) & (upper.velocity_nodes[:, 0] == 0.0))[0][0])
    row = int(layout.col_of[offset + 2 * interior])
    assert row >= 0
    x, _ = solve(sys.matrix, sys.rhs)
    out = sys.layout.expand(x)
    assert out[(Subdomain.UPPER, "velocity")][2 * interior] == x[row]
    # the rows are x-column-major: the lower layer's velocity at x = 0 is in
    # x-column 0 with the upper layer's, below it in z
    lower = layout.spaces[Subdomain.LOWER]
    z, x_ = lower.velocity_nodes[:, 1], lower.velocity_nodes[:, 0]
    interior = int(np.nonzero((z == -2.5) & (x_ == 0.0))[0][0])
    upper_row = row
    offset = layout.offsets[(Subdomain.LOWER, "velocity")]
    row = int(layout.col_of[offset + 2 * interior])
    (start, size), _ = layout.columns.blocks
    assert start <= row < upper_row < start + size
    assert out[(Subdomain.LOWER, "velocity")][2 * interior] == x[row]
    # periodic partners expand to identical values
    s, m = upper.periodic_vdofs[0]
    u = out[(Subdomain.UPPER, "velocity")]
    assert u[s] == u[m]
    # a friction solution expands from its leading rows: the multiplier rows
    # that follow them are ignored
    friction = assemble_coupled_system(*ops, 10.0)
    x, _ = solve(friction.matrix, friction.rhs)
    n = friction.layout.n_rows
    assert len(x) > n
    out = friction.layout.expand(x)
    x[n:] = np.nan
    for key, value in friction.layout.expand(x).items():
        np.testing.assert_array_equal(value, out[key])


def column_major_keys(layout, smallest):
    """(pressure, cell column, z, kind, x) of the raw dofs `smallest`: the
    field, the cell column of the node (x = L folded onto x = 0), its z, the
    kind 3 subdomain + component (+ 2 for pressure) and its x."""
    keys = np.empty((len(smallest), 5))
    for (sub, name), offset in layout.offsets.items():
        space = layout.spaces[sub]
        size = space.n_velocity_dofs if name == "velocity" else space.n_pressure_dofs
        at = (smallest >= offset) & (smallest < offset + size)
        local = smallest[at] - offset
        node = local // 2 if name == "velocity" else local
        nodes = space.velocity_nodes if name == "velocity" else space.pressure_nodes
        kind = 3 * sub + (local % 2 if name == "velocity" else np.full(len(local), 2))
        x, z = nodes[node].T
        keys[at] = np.column_stack([np.full(len(local), name == "pressure"), x, z, kind, x])
    lines = np.unique(np.concatenate([sp.pressure_nodes[:, 0] for sp in layout.spaces.values()]))[:-1]
    keys[:, 1] = np.searchsorted(lines, keys[:, 1], side="right") - 1
    return keys


def test_reduction_contract(ops):
    continuity = assemble_coupled_system(*ops, np.inf).layout
    prescribed = assemble_dirichlet_subproblem(ops[1])[0].layout
    for layout in (continuity, prescribed):
        c = layout.reduction.tocsc()
        assert np.all(c.data == 1.0)
        members = [np.sort(c.indices[c.indptr[j] : c.indptr[j + 1]]) for j in range(c.shape[1])]
        smallest = np.array([m[0] for m in members])
        # each column is represented by its smallest raw index, and the
        # columns come velocity first, then pressure, and x-column-major
        # within a field: strictly ascending in (pressure, cell column, z,
        # kind, x) of the representative
        keys = column_major_keys(layout, smallest)
        np.testing.assert_array_equal(np.lexsort(keys.T[::-1]), np.arange(len(keys)))
        assert not (keys[1:] == keys[:-1]).all(axis=1).any()
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

    # the prescribed interface dofs stay unknowns, x = L on the x = 0 column:
    # the trace constraint borders them
    ifx = prescribed.offsets[(Subdomain.LOWER, "velocity")] + 2 * prescribed.spaces[
        Subdomain.LOWER
    ].interface_nodes
    cols = prescribed.col_of[ifx]
    assert np.all(cols >= 0) and cols[-1] == cols[0]
    assert len(np.unique(cols)) == len(cols) - 1


@pytest.mark.parametrize("cells", [(1, 1, 1), (3, 2, 1), (5, 1, 3)])
def test_reduced_numbering_on_degenerate_meshes(cells):
    # one column of cells, whose two vertex columns are one periodic seam,
    # and odd nx
    mesh = build_layered_mesh(Geometry(), *cells)
    disc = discretize(mesh, 1.0, 1.0, FORCE, FORCE)
    continuity = assemble_coupled_system(disc.op_upper, disc.op_lower, np.inf).layout
    uncoupled = assemble_coupled_system(disc.op_upper, disc.op_lower, 0.0).layout
    layers = [assemble_robin_subproblem(op)[0].layout for op in (disc.op_upper, disc.op_lower)]
    for layout in (continuity, uncoupled, *layers):
        np.testing.assert_array_equal(
            np.unique(layout.col_of[layout.col_of >= 0]), np.arange(layout.n_reduced)
        )
    # every solve certifies at the default tolerance, or raises
    solve_monolithic_friction(mesh, 1.0, 1.0, FORCE, FORCE, alpha=10.0, disc=disc)
    solve_monolithic_continuity(mesh, 1.0, 1.0, FORCE, FORCE, disc=disc)
    for op in (disc.op_upper, disc.op_lower):
        robin_solve(op, 10.0, np.ones(len(op.space.interface_nodes)))
    for core in disc.interface_cores.values():
        core.robin(10.0).solve(np.ones(core.fold_mass.shape[1]))


def test_continuity_traces_identical_after_expand(ops):
    sys = assemble_coupled_system(*ops, np.inf)
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
    system = assemble_coupled_system(*ops, 10.0)
    matrix, rhs = system.matrix, system.rhs
    x, _ = solve(matrix, rhs)
    ax = matrix.to_scipy() @ x
    rng = np.random.default_rng(42)
    scale = np.linalg.norm(rhs)
    for _ in range(20):
        v = rng.standard_normal(len(x))
        assert abs(v @ ax - v @ rhs) <= 1e-8 * scale * np.linalg.norm(v)


def test_robin_subproblem_matches_channel_half_step(small_mesh):
    # u(z) = -z^2/2 + c z + d against a constant neighbor trace g, through
    # each layer's interface core.  Upper: c = alpha (1250 - g)/(1 + 50
    # alpha), d = 1250 - 50 c.  Lower: c = alpha (g - 12.5)/(1 + 5 alpha),
    # d = 12.5 + 5 c.  Near alpha = inf the trace is about g, and g = 0
    # would leave only roundoff of a 1e-8 trace.
    disc = discretize(small_mesh, 1.0, 1.0, FORCE, FORCE)
    exact = {
        Subdomain.UPPER: lambda a, g: 1250.0 - 50.0 * a * (1250.0 - g) / (1.0 + 50.0 * a),
        Subdomain.LOWER: lambda a, g: 12.5 + 5.0 * a * (g - 12.5) / (1.0 + 5.0 * a),
    }
    cases = [(10.0, 0.0), (10.0, 40.0), (1e6, 40.0), (1e9, 40.0)]
    for sub, core in disc.interface_cores.items():
        space, ifx = disc.space(sub), 2 * disc.space(sub).interface_nodes
        for alpha, g in cases:
            robin = core.robin(alpha)
            trace = np.full(len(space.interface_nodes), g)
            want = exact[sub](alpha, g)
            got = core.trace(robin.trace(core.data_modes(trace)))
            np.testing.assert_allclose(got, want, rtol=1e-10)
            np.testing.assert_allclose(robin.solve(trace)[0][ifx], want, rtol=1e-10)
        # a non-periodic trace against the Robin system built here
        trace = 3.0 + space.interface_x / 17.0
        for alpha in (10.0, 1e6, 1e9):
            got = core.robin(alpha).solve(trace)[0]
            assert_close_vector(got, robin_solve(disc.op(sub), alpha, trace), rtol=1e-12)


def test_robin_trace_shape_validation(small_mesh):
    op = assemble_stokes(build_space(small_mesh, Subdomain.UPPER), 1.0, FORCE)
    system, traction = assemble_robin_subproblem(op)
    n_trace = len(op.space.interface_nodes)
    assert traction.shape == (system.matrix.n_rows, n_trace - 1)
    # T_p^T: the trace map without its x = L row, which repeats the x = 0 one
    trace_map = system.layout.trace_map(Subdomain.UPPER).toarray()
    np.testing.assert_array_equal(trace_map[-1], trace_map[0])
    np.testing.assert_array_equal(traction.T.toarray(), trace_map[:-1])
    with pytest.raises(ValueError, match="neighbor trace has shape"):
        _check_trace(op.space, np.zeros(3), "neighbor trace")


def test_dirichlet_subproblem_imposes_trace(small_mesh):
    space = build_space(small_mesh, Subdomain.LOWER)
    trace = np.full(len(space.interface_nodes), 9.25)
    sys, coupling = assemble_dirichlet_subproblem(assemble_stokes(space, 1.0, FORCE))
    x, _ = solve(sys.matrix, sys.rhs + coupling @ trace)
    u = sys.layout.expand(x)[(Subdomain.LOWER, "velocity")]
    # the bordered constraint holds on the interface, to roundoff
    iface = space.velocity_nodes[:, 1] == 0.0
    np.testing.assert_allclose(u[0::2][iface], 9.25, rtol=1e-13)
    # interior solves the channel problem with that boundary value:
    # u(z) = -z^2/2 + c z + d, u(-5) = 0, u(0) = 9.25
    d = 9.25
    c = (d - 12.5) / 5.0
    z = space.velocity_nodes[~iface, 1]
    np.testing.assert_allclose(u[0::2][~iface], -0.5 * z**2 + c * z + d, atol=1e-9)


def test_dirichlet_subproblem_rejects_nonperiodic_trace(small_mesh):
    space = build_space(small_mesh, Subdomain.LOWER)
    trace = np.ones(len(space.interface_nodes))
    trace[-1] = 5.0  # x = L is the x = 0 node: one value cannot be both
    with pytest.raises(ValueError, match="periodic"):
        check_periodic_trace(space, trace)


# ---------------------------------------------------------------------------
# reference assembly: element contractions by einsum, the vector operators by
# kron of the scalar ones, and the constraint reduction as the sparse triple
# product C^T A C bordered by the gauge rows.  The package scatters the same
# sums in another order, so the two agree to roundoff with equal sparsity.


def _ref_scatter(rows, cols, vals, shape):
    m = scipy.sparse.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return m.tocsr()


def reference_stokes(space, nu, force):
    """One layer's StokesOperator."""
    tri_pts, inv_j, det = _cell_geometry(space)
    area_w = 0.5 * det
    nt = len(det)
    nv = len(space.velocity_nodes)
    npn = len(space.pressure_nodes)
    p2v = _p2_values(_TRI_POINTS)
    p2g_ref = _p2_reference_grads(_TRI_POINTS)
    p1v = _TRI_POINTS
    grads = np.einsum("qid,tdk->tqik", p2g_ref, inv_j)
    w = _TRI_WEIGHTS[None, :, None, None]
    k_local = np.einsum("tqik,tqjk->tij", grads * w, grads) * area_w[:, None, None]
    m_local = np.einsum("q,qi,qj->ij", _TRI_WEIGHTS, p2v, p2v)[None, :, :] * area_w[:, None, None]
    b_local = [
        -np.einsum("q,tqi,qj->tij", _TRI_WEIGHTS, grads[:, :, :, c], p1v) * area_w[:, None, None]
        for c in (0, 1)
    ]
    cv, cp = space.velocity_cells, space.pressure_cells
    rows_vv = np.broadcast_to(cv[:, :, None], (nt, 6, 6))
    cols_vv = np.broadcast_to(cv[:, None, :], (nt, 6, 6))
    eye2 = scipy.sparse.identity(2, format="csr")
    k_scalar = _ref_scatter(rows_vv, cols_vv, k_local, (nv, nv))
    m_scalar = _ref_scatter(rows_vv, cols_vv, m_local, (nv, nv))
    stiffness = scipy.sparse.kron(k_scalar, eye2, format="csr")
    mass = scipy.sparse.kron(m_scalar, eye2, format="csr")
    rows_vp = np.broadcast_to(cv[:, :, None], (nt, 6, 3))
    cols_vp = np.broadcast_to(cp[:, None, :], (nt, 6, 3))
    divergence = (
        _ref_scatter(2 * rows_vp, cols_vp, b_local[0], (2 * nv, npn))
        + _ref_scatter(2 * rows_vp + 1, cols_vp, b_local[1], (2 * nv, npn))
    ).tocsr()
    xq = np.einsum("qa,tad->tqd", p1v, tri_pts)
    fx, fz = force.sample(xq[:, :, 0], xq[:, :, 1])
    load = np.zeros(2 * nv)
    np.add.at(load, 2 * cv, np.einsum("q,tq,qi->ti", _TRI_WEIGHTS, fx, p2v) * area_w[:, None])
    np.add.at(load, 2 * cv + 1, np.einsum("q,tq,qi->ti", _TRI_WEIGHTS, fz, p2v) * area_w[:, None])
    gauge = np.zeros(npn)
    np.add.at(gauge, cp, np.einsum("q,qj->j", _TRI_WEIGHTS, p1v)[None, :] * area_w[:, None])
    return StokesOperator(space, nu, (nu * stiffness).tocsr(), divergence, mass, load, gauge)


def reference_raw_matrix(ops, layout):
    rows, cols, vals = [], [], []
    for op in ops:
        ov = layout.offsets[(op.space.subdomain, "velocity")]
        op_ = layout.offsets[(op.space.subdomain, "pressure")]
        blocks = ((op.viscous, ov, ov), (op.divergence, ov, op_), (op.divergence.T, op_, ov))
        for mat, r0, c0 in blocks:
            coo = mat.tocoo()
            rows.append(coo.row + r0)
            cols.append(coo.col + c0)
            vals.append(coo.data)
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(layout.n_raw, layout.n_raw),
    ).tocsr()


def reference_reduced(ops, layout, extra_raw=None, extra_rhs_raw=None):
    """(matrix, rhs) of the reduced system on `layout`."""
    b_raw = np.zeros(layout.n_raw)
    for op in ops:
        ov = layout.offsets[(op.space.subdomain, "velocity")]
        b_raw[ov : ov + op.space.n_velocity_dofs] = op.load
    a_raw = reference_raw_matrix(ops, layout)
    if extra_raw is not None:
        a_raw = (a_raw + extra_raw).tocsr()
    if extra_rhs_raw is not None:
        b_raw = b_raw + extra_rhs_raw
    c = layout.reduction
    a_red = (c.T @ a_raw @ c).tocsr()
    b_red = c.T @ b_raw
    g_rows = []
    for op in ops:
        g_raw = np.zeros(layout.n_raw)
        op_ = layout.offsets[(op.space.subdomain, "pressure")]
        g_raw[op_ : op_ + op.space.n_pressure_dofs] = op.gauge
        g_rows.append(c.T @ g_raw)
    g = scipy.sparse.csr_matrix(np.vstack(g_rows))
    full = scipy.sparse.bmat([[a_red, g.T], [g, None]], format="csr")
    return full, np.concatenate([b_red, np.zeros(len(ops))])


def reference_robin(op, layout, alpha, neighbor_trace):
    ifx = layout.offsets[(op.space.subdomain, "velocity")] + 2 * op.space.interface_nodes
    coo = assemble_interface_friction(op.space, op.space).tocoo()
    n_raw = layout.n_raw
    extra = scipy.sparse.coo_matrix(
        (alpha * coo.data, (ifx[coo.row], ifx[coo.col])), shape=(n_raw, n_raw)
    ).tocsr()
    extra_rhs = np.zeros(n_raw)
    extra_rhs[ifx] = alpha * (coo.tocsr() @ neighbor_trace)
    return reference_reduced([op], layout, extra, extra_rhs)


def reference_trace(layout, sub):
    """Solved vector -> `sub`'s horizontal interface velocity, ascending x:
    the interface rows of the reduction C, zero on the gauge columns."""
    ifx = layout.offsets[(sub, "velocity")] + 2 * layout.spaces[sub].interface_nodes
    gauge = scipy.sparse.csr_matrix((len(ifx), layout.n_gauge))
    return scipy.sparse.hstack([layout.reduction[ifx], gauge], format="csr")


def assert_same_sparse(a, b, rtol=1e-14):
    """Equal shape and sparsity pattern, values within rtol of the largest."""
    a, b = scipy.sparse.csr_matrix(a), scipy.sparse.csr_matrix(b)
    a.sort_indices()
    b.sort_indices()
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert np.abs(a.data - b.data).max(initial=0.0) <= rtol * np.abs(b.data).max(initial=0.0)


def assert_close_vector(a, b, rtol=1e-14):
    assert a.shape == b.shape
    assert np.abs(a - b).max(initial=0.0) <= rtol * np.abs(b).max(initial=0.0)


# 48x24x6 (x spacing not a binary fraction) has many cell shapes per layer
@pytest.mark.parametrize("cells", [(8, 4, 2), (32, 16, 4), (48, 24, 6)])
def test_assembly_matches_the_reference(cells):
    check_assembly_against_the_reference(build_layered_mesh(Geometry(), *cells))


def test_assembly_matches_the_reference_with_a_moved_vertex():
    mesh = build_layered_mesh(Geometry(), 64, 32, 8)
    vertices = mesh.vertices.copy()
    vertices[20 * 65 + 16] += (0.4, 0.3)  # column 16, row 20: inside the upper layer
    moved = dataclasses.replace(mesh, vertices=vertices)
    assert validate_mesh(moved) == []
    check_assembly_against_the_reference(moved)


def check_assembly_against_the_reference(mesh):
    force = BodyForce(evaluator=lambda x, z: (1.0 + z / 50.0, np.sin(x / 10.0)))
    ops = layer_ops(mesh, 1.0, 2.5, force)
    refs = [reference_stokes(op.space, op.nu, force) for op in ops]
    for op, ref in zip(ops, refs):
        for name in ("viscous", "divergence", "mass"):
            assert_same_sparse(getattr(op, name), getattr(ref, name))
        # separate arrays: an in-place edit of one matrix leaves the other alone
        assert not np.shares_memory(op.viscous.indices, op.mass.indices)
        assert not np.shares_memory(op.viscous.indptr, op.mass.indptr)
        assert_close_vector(op.load, ref.load)
        assert_close_vector(op.gauge, ref.gauge)

    # every system against the reference reduction of the reference operators
    system = assemble_coupled_system(*ops, np.inf)
    matrix, rhs = reference_reduced(refs, system.layout)
    assert_same_sparse(system.matrix.to_scipy(), matrix)
    assert_close_vector(system.rhs, rhs)

    # friction: the joint reduction of both layers bordered by B = P^T M
    # (T_upper - T_lower) and C = -P^T M P / alpha, blocks put together by scipy
    alpha = 10.0
    system = assemble_coupled_system(*ops, alpha)
    layout = system.layout
    matrix, rhs = reference_reduced(refs, layout)
    fold_mass, fold = folded_mass(ops[0].space, ops[1].space)
    b = fold_mass @ (reference_trace(layout, Subdomain.UPPER) - reference_trace(layout, Subdomain.LOWER))
    matrix = scipy.sparse.bmat([[matrix, b.T], [b, -(fold_mass @ fold) / alpha]])
    assert_same_sparse(system.matrix.to_scipy(), matrix)
    assert_close_vector(system.rhs, np.concatenate([rhs, np.zeros(fold.shape[1])]))

    op, ref = ops[0], refs[0]
    x = op.space.interface_x
    trace = 3.0 + np.sin(2.0 * np.pi * x / x[-1]) + x / 17.0
    for alpha in (0.0, 10.0, 1e9):
        matrix, rhs, coupling, layout = robin_system(op, alpha)
        ref_matrix, ref_rhs = reference_robin(ref, layout, alpha, trace)
        assert_same_sparse(matrix.to_scipy(), ref_matrix)
        assert_close_vector(rhs + coupling @ trace, ref_rhs)

    # the Dirichlet half-step: the reduction bordered by the constraint
    # T_p x = g_p, T_p the reduction's interface rows less x = L
    trace[-1] = trace[0]
    system, coupling = assemble_dirichlet_subproblem(op)
    matrix, rhs = reference_reduced([ref], system.layout)
    t_p = reference_trace(system.layout, op.space.subdomain)[:-1]
    assert_same_sparse(system.matrix.to_scipy(), scipy.sparse.bmat([[matrix, t_p.T], [t_p, None]]))
    assert_close_vector(system.rhs + coupling @ trace, np.concatenate([rhs, trace[:-1]]))


def test_kernels_are_computed_once_per_cell_shape(monkeypatch):
    kernels, groups = fem._element_kernels, []

    def counted(inv_j, area_w):
        groups.append(len(area_w))
        return kernels(inv_j, area_w)

    monkeypatch.setattr(fem, "_element_kernels", counted)
    for cells in [(8, 4, 2), (64, 32, 8)]:
        layer_ops(build_layered_mesh(Geometry(), *cells))
    # the layered mesh: two triangles per rectangle, one rectangle per layer
    assert groups == [2, 2, 2, 2]
    groups.clear()
    ops = layer_ops(build_layered_mesh(Geometry(), 48, 24, 6))
    n_cells = [len(op.space.velocity_cells) for op in ops]
    assert all(2 < g < n for g, n in zip(groups, n_cells)), (groups, n_cells)


@pytest.mark.parametrize("cells", [(32, 16, 4), (64, 32, 8)])
def test_reduced_scatter_peaks_below_three_times_its_system(cells):
    """The numpy peak of `_assemble_reduced` stays within 3x the arrays of
    the system it returns: the blocks are mapped one at a time and only
    their live triplets are kept."""
    ops = layer_ops(build_layered_mesh(Geometry(), *cells))
    spaces = [op.space for op in ops]
    for identify_traces in (False, True):
        layout = fem._build_layout(spaces, identify_traces)
        tracemalloc.start()
        try:
            system = fem._assemble_reduced(list(ops), layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = system.matrix
        held = m.indptr.nbytes + m.indices.nbytes + m.data.nbytes + system.rhs.nbytes
        assert peak <= 3.0 * held, (peak / held, identify_traces)


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

    errors = []
    for nx in (8, 16, 32):
        mesh = build_layered_mesh(Geometry(length, z_top, -5.0), nx, nx // 2, 1)
        space = build_space(mesh, Subdomain.UPPER)
        xs = space.velocity_nodes[space.interface_nodes, 0]
        # Robin data from the friction law at z = 0 (outward normal -z):
        # g = u_x - (nu/alpha) du_x/dz
        g = np.sin(k * xs) * (s1(0.0) - (nu / alpha) * s2(0.0))
        op = assemble_stokes(space, nu, BodyForce(evaluator=body))
        u = robin_solve(op, alpha, g)

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
