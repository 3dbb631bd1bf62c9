"""Direct-solver contract: certification, determinism, error handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokescouple.coupling import _friction_multiplier_system, discretize
from stokescouple.fem import BodyForce, CouplingMode, assemble_coupled_system
from stokescouple.linalg import (
    CsrMatrix,
    DimensionMismatchError,
    ResidualCertificationError,
    SingularSystemError,
    factorize,
    solve,
    spmv,
)
from stokescouple.mesh import Geometry, build_layered_mesh


def dense(a):
    a = np.asarray(a, dtype=float)
    return CsrMatrix.from_scipy(a)


def test_two_by_two_saddle_example():
    # [[2, 1], [1, 0]] x = (3, 1): a minimal saddle system with x = (1, 1)
    A = dense([[2.0, 1.0], [1.0, 0.0]])
    x, report = solve(A, np.array([3.0, 1.0]))
    assert x == pytest.approx([1.0, 1.0], abs=1e-14)
    assert report.relative_residual <= 1e-10
    assert report.n == 2


def test_spmv_matches_dense():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 5))
    a[rng.random((9, 5)) < 0.5] = 0.0
    A = dense(a)
    x = rng.standard_normal(5)
    np.testing.assert_allclose(spmv(A, x), a @ x, rtol=0, atol=1e-13)


def test_spmv_handles_empty_rows():
    A = CsrMatrix.from_triplets(4, 3, [0, 3], [1, 2], [2.0, 5.0])
    y = spmv(A, np.array([1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(y, [2.0, 0.0, 0.0, 5.0])


def test_dimension_mismatch():
    A = dense(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        spmv(A, np.ones(4))
    with pytest.raises(DimensionMismatchError):
        solve(A, np.ones(2))
    with pytest.raises(DimensionMismatchError):
        factorize(dense(np.ones((2, 3))))


def test_singular_system_raises():
    with pytest.raises(SingularSystemError):
        solve(dense([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


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
    assert (report.n, report.nnz) == (30, A.nnz)
    assert report.lu_nnz == fact.lu_nnz == fact._lu.nnz
    assert report.lu_nnz >= A.nnz
    assert report.factor_s == fact.factor_s > 0.0
    assert report.solve_s > 0.0


def test_saddle_systems_fill_stays_symmetric():
    # The ordering on A^T + A in symmetric mode keeps the L + U fill of the
    # monolithic systems on 32x16x4 at ~1.1M; COLAMD gave ~2.0M.
    mesh = build_layered_mesh(Geometry(), 32, 16, 4)
    force = BodyForce(1.0, -1.0)
    disc = discretize(mesh, 1.0, 1.0, force, force)
    base = assemble_coupled_system(disc.op_upper, disc.op_lower, CouplingMode.UNCOUPLED)
    friction, _ = _friction_multiplier_system(base, disc.trace_mass, 10.0)
    continuity = assemble_coupled_system(disc.op_upper, disc.op_lower, CouplingMode.CONTINUITY)
    fills = [
        factorize(CsrMatrix.from_scipy(friction)).lu_nnz,
        factorize(continuity.matrix).lu_nnz,
    ]
    assert max(fills) <= 1_500_000, fills


def test_csr_indices_sorted_and_deduplicated():
    A = CsrMatrix.from_triplets(2, 2, [0, 0, 0], [1, 0, 1], [1.0, 2.0, 3.0])
    assert A.nnz == 2
    row0 = A.indices[A.indptr[0]:A.indptr[1]]
    assert list(row0) == [0, 1]
    np.testing.assert_array_equal(A.data[:2], [2.0, 4.0])


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
