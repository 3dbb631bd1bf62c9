"""Direct-solver contract: certification, determinism, error handling."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stokescouple import linalg
from stokescouple.coupling import (
    discretize,
    solve_monolithic_continuity,
    solve_monolithic_friction,
)
from stokescouple.fem import (
    BodyForce,
    assemble_coupled_system,
    assemble_dirichlet_subproblem,
    assemble_robin_subproblem,
)
from stokescouple.linalg import (
    CscMatrix,
    DimensionMismatchError,
    OutOfMemoryError,
    ResidualCertificationError,
    SingularSystemError,
    factorize,
    solve,
)
from stokescouple.mesh import Geometry, Subdomain, build_layered_mesh, validate_mesh


def dense(a):
    a = np.asarray(a, dtype=float)
    return CscMatrix.from_scipy(a)


def test_two_by_two_saddle_example():
    # [[2, 1], [1, 0]] x = (3, 1): a minimal saddle system with x = (1, 1)
    A = dense([[2.0, 1.0], [1.0, 0.0]])
    x, report = solve(A, np.array([3.0, 1.0]))
    assert x == pytest.approx([1.0, 1.0], abs=1e-14)
    assert report.relative_residual <= 1e-10
    assert report.n == 2


def test_dimension_mismatch():
    A = dense(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        solve(A, np.ones(2))
    with pytest.raises(DimensionMismatchError):
        solve(A, np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        factorize(dense(np.ones((2, 3))))


def test_singular_system_raises():
    with pytest.raises(SingularSystemError):
        solve(dense([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


@pytest.mark.parametrize("path", ["X-FOURIER", "MMD_AT_PLUS_A"])
def test_non_finite_entries_are_named(path):
    # an overflowed assembly leaves inf or NaN in the matrix: the error names
    # them and the system's size, not a singular factor
    force = BodyForce(1.0, -1.0)
    disc = discretize(build_layered_mesh(Geometry(), 8, 4, 2), 1.0, 1.0, force, force)
    matrix = assemble_coupled_system(disc.op_upper, disc.op_lower, 10.0).matrix
    if path == "MMD_AT_PLUS_A":
        matrix = whole(matrix)
    assert factorize(matrix).ordering == path
    data = matrix.data.copy()
    data[len(data) // 2] = np.nan
    with pytest.raises(SingularSystemError, match=r"434x434 system .*: 1 of its 6280 .* non-finite"):
        factorize(dataclasses.replace(matrix, data=data))


def test_residual_certification_is_independent():
    # a well-conditioned system passes certification at the default tolerance
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40)) + 40.0 * np.eye(40)
    b = rng.standard_normal(40)
    x, report = solve(dense(a), b)
    rel = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
    assert report.relative_residual == pytest.approx(rel, rel=1e-12)
    # an absurdly tight tolerance must raise, not silently return
    with pytest.raises(ResidualCertificationError):
        solve(dense(a), b, tol=1e-30)


def test_determinism_bitwise():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 30)) + 30.0 * np.eye(30)
    a[np.abs(a) < 0.8] = 0.0
    b = rng.standard_normal(30)
    x1, _ = solve(dense(a), b)
    x2, _ = solve(dense(a), b)
    np.testing.assert_array_equal(x1, x2)


def test_scaling_equivariance_power_of_two():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((25, 25)) + 25.0 * np.eye(25)
    b = rng.standard_normal(25)
    x1, _ = solve(dense(a), b)
    x2, _ = solve(dense(2.0 * a), 2.0 * b)
    np.testing.assert_array_equal(x1, x2)


def test_factorization_reuse_many_rhs():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
    fact = factorize(dense(a))
    for _ in range(5):
        b = rng.standard_normal(20)
        x, report = fact.solve(b)
        assert report.relative_residual <= 1e-10
        np.testing.assert_allclose(a @ x, b, atol=1e-9 * np.linalg.norm(b))


def test_block_solve_equals_column_solves():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((30, 30)) + 30.0 * np.eye(30)
    a[np.abs(a) < 0.8] = 0.0
    fact = factorize(dense(a))
    b = rng.standard_normal((30, 4))
    x, report = fact.solve(b)
    assert x.shape == b.shape
    for j in range(b.shape[1]):
        xj, _ = fact.solve(b[:, j])
        assert np.max(np.abs(x[:, j] - xj)) <= 1e-15 * np.max(np.abs(xj))
        product = fact.matrix.to_scipy()
        np.testing.assert_array_equal((product @ x)[:, j], product @ x[:, j])
    assert report.relative_residual <= 1e-10


def test_certification_product_shares_the_matrix_arrays():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((30, 30)) + 30.0 * np.eye(30)
    a[np.abs(a) < 0.8] = 0.0
    fact = factorize(dense(a))
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(fact._product, name), getattr(fact.matrix, name))


class _PerturbedLU:
    """A factorization handle whose solutions are off by `delta` in column
    `column`: the certification must catch it from the residual alone."""

    def __init__(self, lu, column, delta):
        self.lu, self.column, self.delta, self.nnz = lu, column, delta, lu.nnz

    def solve(self, b):
        x = self.lu.solve(b)
        x[0, self.column] += self.delta
        return x


def test_block_solve_certifies_every_column():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
    fact = factorize(dense(a))
    b = rng.standard_normal((20, 3))
    breached = dataclasses.replace(fact, _lu=_PerturbedLU(fact._lu, column=1, delta=1e-6))
    with pytest.raises(ResidualCertificationError):
        breached.solve(b)
    _, report = breached.solve(b, tol=1e-3)  # the breach is ~1e-6 relative
    assert 1e-8 < report.relative_residual <= 1e-3


def test_block_solve_zero_column_uses_absolute_residual():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
    fact = factorize(dense(a))
    b = rng.standard_normal((20, 3))
    b[:, 2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 on the zero column
        x, report = fact.solve(b)
    np.testing.assert_array_equal(x[:, 2], 0.0)
    assert report.relative_residual <= 1e-10
    # a nonzero answer to a zero column is measured absolutely and rejected
    breached = dataclasses.replace(fact, _lu=_PerturbedLU(fact._lu, column=2, delta=1e-6))
    with pytest.raises(ResidualCertificationError):
        breached.solve(b)


def test_solve_report_states_what_the_factorization_did():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 30)) + 30.0 * np.eye(30)
    a[np.abs(a) < 1.0] = 0.0
    A = dense(a)
    fact = factorize(A)
    _, report = fact.solve(rng.standard_normal(30))
    assert (report.ordering, report.diag_pivot_thresh, report.symmetric_mode) == (
        "MMD_AT_PLUS_A",
        0.01,
        True,
    )
    # the columns are permuted by minimum degree, and this diagonally
    # dominant matrix pivots on its diagonal throughout
    np.testing.assert_array_equal(np.sort(fact._lu.perm_c), np.arange(30))
    assert np.any(fact._lu.perm_c != np.arange(30))
    assert report.off_diagonal_pivots == fact.off_diagonal_pivots == 0
    # a zero diagonal fails the threshold: both columns pivot off it
    swap = factorize(dense(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert swap.off_diagonal_pivots == np.count_nonzero(swap._lu.perm_r != swap._lu.perm_c) == 2
    assert (report.n, report.nnz) == (30, A.nnz)
    assert report.lu_nnz == fact.lu_nnz == fact._lu.nnz
    assert report.lu_nnz >= A.nnz
    assert report.factor_s == fact.factor_s > 0.0
    assert report.solve_s > 0.0


def test_saddle_systems_fill_stays_symmetric():
    # Factored one Fourier mode at a time, each in its banded in-column
    # order, the monolithic systems on 32x16x4 fill 48,555 (friction) and
    # 47,509 (continuity) L + U entries, summed over the 17 modes; a mode
    # that pivoted off its diagonal or lost its band would fill more.
    mesh = build_layered_mesh(Geometry(), 32, 16, 4)
    force = BodyForce(1.0, -1.0)
    disc = discretize(mesh, 1.0, 1.0, force, force)
    fills = [
        factorize(assemble_coupled_system(disc.op_upper, disc.op_lower, alpha).matrix).lu_nnz
        for alpha in (10.0, float("inf"))  # friction, continuity
    ]
    assert max(fills) <= 60_000, fills


def test_csc_indices_sorted_and_deduplicated():
    triplets = ([1.0, 2.0, 3.0], ([1, 0, 1], [0, 0, 0]))
    A = CscMatrix.from_scipy(scipy.sparse.coo_matrix(triplets, shape=(2, 2)))
    assert A.nnz == 2
    col0 = A.indices[A.indptr[0]:A.indptr[1]]
    assert list(col0) == [0, 1]
    np.testing.assert_array_equal(A.data[:2], [2.0, 4.0])


def _nbytes(matrix) -> int:
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


@pytest.fixture(scope="module")
def disc_32():
    force = BodyForce(1.0, -1.0)
    return discretize(build_layered_mesh(Geometry(), 32, 16, 4), 1.0, 1.0, force, force)


def test_factorize_copies_no_matrix_array(disc_32):
    # SuperLU's own allocations are invisible to tracemalloc, numpy's are
    # not: a copy of the 1.1 MB continuity system would show as a full copy.
    matrix = assemble_coupled_system(disc_32.op_upper, disc_32.op_lower, float("inf")).matrix
    tracemalloc.start()
    try:
        factorize(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * _nbytes(matrix), (peak, _nbytes(matrix))


def test_superlu_receives_the_matrix_arrays(monkeypatch):
    received = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(a, **kwargs):
        received.append(a)
        return splu(a, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    matrix = dense([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    fact = factorize(matrix)
    (a,) = received
    assert a.format == "csc"
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(a, name), getattr(matrix, name))
    assert a is fact._product


def test_friction_solve_holds_one_matrix_when_it_factors(disc_32, monkeypatch):
    # Only the bordered matrix, its rhs and the layout are alive when the
    # friction system is factored: no uncoupled system, widened copy or stack.
    seen = {}
    factorize_ = linalg.factorize

    def measuring_factorize(matrix):
        seen["held"] = tracemalloc.get_traced_memory()[0] - seen["start"]
        seen["bytes"] = _nbytes(matrix)
        return factorize_(matrix)

    monkeypatch.setattr(linalg, "factorize", measuring_factorize)
    tracemalloc.start()
    try:
        seen["start"] = tracemalloc.get_traced_memory()[0]
        d = disc_32
        solve_monolithic_friction(d.mesh, d.nu1, d.nu2, d.force1, d.force2, 10.0, disc=d)
    finally:
        tracemalloc.stop()
    assert seen["held"] < 1.5 * seen["bytes"], seen


# ---------------------------------------------------------------------------
# factoring one Fourier mode at a time along x


def x_dependent_force():
    """A force that varies along x, so that every Fourier mode is excited:
    an x-uniform problem excites only the mean mode."""

    def evaluate(x, z):
        phase = 2.0 * np.pi * x / 100.0
        return 1.0 + 0.3 * np.sin(phase) + 0.1 * np.cos(3.0 * phase), -1.0 + 0.2 * np.cos(phase) * z / 50.0

    return BodyForce(evaluator=evaluate)


def every_system(disc):
    """Each system the package factors, by name: friction at alpha = 0, 10
    and 1e9, continuity, and per layer the interface core (the friction-free
    system) and the Dirichlet half-step."""
    ops = (disc.op_upper, disc.op_lower)
    systems = {f"friction-{a:g}": assemble_coupled_system(*ops, a) for a in (0.0, 10.0, 1e9)}
    systems["continuity"] = assemble_coupled_system(*ops, float("inf"))
    for sub in (Subdomain.UPPER, Subdomain.LOWER):
        systems[f"core-{sub.name}"] = assemble_robin_subproblem(disc.op(sub))[0]
        systems[f"dirichlet-{sub.name}"] = assemble_dirichlet_subproblem(disc.op(sub))[0]
    return systems


def whole(matrix):
    """The same matrix without its x-columns: SuperLU factors it whole."""
    return dataclasses.replace(matrix, columns=None)


@pytest.mark.parametrize("cells", [(1, 4, 2), (2, 4, 2), (3, 4, 2), (7, 4, 2), (8, 4, 2), (32, 16, 4)])
def test_fourier_modes_match_the_whole_factorization(cells):
    force = x_dependent_force()
    disc = discretize(build_layered_mesh(Geometry(), *cells), 1.0, 2.5, force, force)
    rng = np.random.default_rng(sum(cells))
    for name, system in every_system(disc).items():
        modes, reference = factorize(system.matrix), factorize(whole(system.matrix))
        assert (modes.ordering, reference.ordering) == ("X-FOURIER", "MMD_AT_PLUS_A"), name
        b = np.column_stack([system.rhs, rng.standard_normal((system.matrix.n_rows, 3))])
        x, report = modes.solve(b)
        want, _ = reference.solve(b)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.max(np.abs(x - want), axis=0) <= 1e-12 * scale), name
        assert report.ordering == "X-FOURIER" and report.relative_residual <= 1e-10
        factors = modes._lu.factors
        assert len(factors) == cells[0] // 2 + 1
        assert report.lu_nnz == modes.lu_nnz == sum(lu.nnz for lu in factors) > 0
        pivots = sum(int(np.count_nonzero(lu.perm_r != lu.perm_c)) for lu in factors)
        assert report.off_diagonal_pivots == pivots
        if cells[0] >= 32:
            assert modes.lu_nnz < reference.lu_nnz / 5, name
        x1, _ = modes.solve(b[:, 1])  # a vector rhs is one column of a block
        assert np.max(np.abs(x1 - x[:, 1])) <= 1e-14 * scale[1]


def test_continuity_traces_stay_identical_on_the_fourier_path():
    force = x_dependent_force()
    mesh = build_layered_mesh(Geometry(), 8, 4, 2)
    field = solve_monolithic_continuity(mesh, 1.0, 2.5, force, force)
    upper, lower = (field.interface_trace(sub) for sub in (Subdomain.UPPER, Subdomain.LOWER))
    np.testing.assert_array_equal(upper, lower)
    assert np.ptp(upper) > 1e-3  # the force varies along x, and so does the trace


def test_a_mesh_with_a_moved_vertex_is_factored_whole():
    mesh = build_layered_mesh(Geometry(), 8, 4, 2)
    vertices = mesh.vertices.copy()
    vertices[4 * 9 + 3] += (0.4, 0.3)  # column 3, row 4: inside the upper layer
    moved = dataclasses.replace(mesh, vertices=vertices)
    assert validate_mesh(moved) == []
    force = BodyForce(1.0, -1.0)
    disc = discretize(moved, 1.0, 1.0, force, force)
    for name, system in every_system(disc).items():
        fact = factorize(system.matrix)
        # the lower layer's own systems do not see the moved vertex
        assert fact.ordering == ("X-FOURIER" if name.endswith("LOWER") else "MMD_AT_PLUS_A"), name
        assert fact.solve(system.rhs)[1].relative_residual <= 1e-10


def test_a_whole_matrix_is_factored_in_a_fill_reducing_order():
    # One moved vertex in each layer of 32x16x4: the monolithic systems are
    # factored whole and fill 1.16M (friction) and 1.21M (continuity) L + U
    # entries under minimum degree, against 5.26M and 5.98M in the order
    # they arrive.
    mesh = build_layered_mesh(Geometry(), 32, 16, 4)
    vertices = mesh.vertices.copy()
    vertices[[2 * 33 + 16, 12 * 33 + 16]] += (0.4, 0.3)  # inside the lower and the upper layer
    moved = dataclasses.replace(mesh, vertices=vertices)
    assert validate_mesh(moved) == []
    force = BodyForce(1.0, -1.0)
    disc = discretize(moved, 1.0, 1.0, force, force)
    for alpha in (10.0, float("inf")):  # friction, continuity
        fact = factorize(assemble_coupled_system(disc.op_upper, disc.op_lower, alpha).matrix)
        assert fact.ordering == "MMD_AT_PLUS_A", alpha
        assert fact.lu_nnz <= 2_000_000, (alpha, fact.lu_nnz)


def with_entry(matrix, row, col, value):
    """`matrix` with `value` added at (row, col), a new stored entry."""
    extra = scipy.sparse.csc_matrix(([value], ([row], [col])), shape=matrix.shape)
    total = matrix.to_scipy() + extra
    return CscMatrix(*matrix.shape, total.indptr, total.indices, total.data, matrix.columns)


def test_a_matrix_that_does_not_repeat_is_factored_whole():
    force = BodyForce(1.0, -1.0)
    disc = discretize(build_layered_mesh(Geometry(), 8, 4, 2), 1.0, 1.0, force, force)
    systems = every_system(disc)
    for name in ("continuity", "friction-10", "dirichlet-UPPER"):
        matrix = systems[name].matrix
        assert factorize(matrix).ordering == "X-FOURIER", name
        for where, changed in changed_copies(matrix).items():
            fact = factorize(changed)
            assert fact.ordering == "MMD_AT_PLUS_A", (name, where)
            rhs = np.ones(matrix.n_rows)
            np.testing.assert_allclose(changed.to_scipy() @ fact.solve(rhs)[0], rhs, atol=1e-9)
        # an entry below the shift tolerance counts as zero: the modes are
        # still factored
        scale = np.max(np.abs(matrix.data))
        residue = with_entry(matrix, *far_pair(matrix, 3), 0.1 * linalg.SHIFT_RTOL * scale)
        assert residue.nnz == matrix.nnz + 1
        fact = factorize(residue)
        assert fact.ordering == "X-FOURIER", name
        assert fact.solve(np.ones(matrix.n_rows))[1].relative_residual <= 1e-10


def far_pair(matrix, j):
    """(row, column) of the middle in-column position of the x-columns
    j + nx / 2 and j: no stored entry couples them."""
    rows, q, nx = matrix.columns.rows(), len(matrix.columns.order) // 2, matrix.columns.nx
    return rows[(j + nx // 2) % nx, q], rows[j, q]


def changed_copies(matrix):
    """Copies of an x-shift-invariant matrix that do not repeat, by where
    they differ: a 1e-8 change to one stored entry of x-column 0, of the
    reference x-column 1, of an interior x-column, of x-column nx - 1, of a
    gauge column and at a multiplier row, and an entry above the shift
    tolerance stored in one x-column only: an interior one, or the
    reference, so that every other x-column lacks it."""
    columns = matrix.columns
    rows, q, nx = columns.rows(), len(columns.order) // 2, columns.nx
    places = {f"x-column {j}": matrix.indptr[rows[j, q]] for j in (0, 1, nx // 2, nx - 1)}
    places["gauge column"] = matrix.indptr[columns.globals[0]]
    if len(columns.blocks) == 3:  # velocity, pressure, the multiplier rows
        at_multiplier = np.flatnonzero(matrix.indices >= columns.blocks[-1][0])
        places["multiplier row"] = at_multiplier[len(at_multiplier) // 2]
    changed = {}
    for where, k in places.items():
        data = matrix.data.copy()
        data[k] += 1e-8
        changed[where] = dataclasses.replace(matrix, data=data)
    scale = np.max(np.abs(matrix.data))
    for j in (1, nx // 2):
        changed[f"stored entry in x-column {j}"] = with_entry(matrix, *far_pair(matrix, j), 10 * linalg.SHIFT_RTOL * scale)
    return changed


@pytest.mark.parametrize("path", ["X-FOURIER", "MMD_AT_PLUS_A"])
def test_running_out_of_memory_names_the_phase(monkeypatch, path):
    force = BodyForce(1.0, -1.0)
    disc = discretize(build_layered_mesh(Geometry(), 8, 4, 2), 1.0, 1.0, force, force)
    matrix = assemble_coupled_system(disc.op_upper, disc.op_lower, 10.0).matrix
    if path == "MMD_AT_PLUS_A":
        matrix = whole(matrix)

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_memory)
    with pytest.raises(OutOfMemoryError) as err:
        factorize(matrix)
    message = str(err.value)
    assert isinstance(err.value, MemoryError)
    assert f"{matrix.n_rows}x{matrix.n_rows} system with {matrix.nnz} nonzeros" in message
    assert ("Fourier mode 0" if path == "X-FOURIER" else "factorization (MMD_AT_PLUS_A)") in message


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_solve_recovers_known_solution(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + (n + 2.0) * np.eye(n)
    x_true = rng.standard_normal(n)
    b = a @ x_true
    x, _ = solve(dense(a), b)
    np.testing.assert_allclose(x, x_true, rtol=1e-8, atol=1e-8)
