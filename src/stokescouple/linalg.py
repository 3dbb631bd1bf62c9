"""Sparse compressed-column (CSC) matrices and a certified direct solver.

The solver is a sparse LU factorization (SuperLU via scipy) with one recipe
for every system: the natural order, symmetric mode, and a diagonal pivot
threshold of 0.01.  SuperLU computes no fill-reducing order: `fem` numbers
each layer's unknowns in nested-dissection order of the mesh, and every
border (the friction multiplier, the Dirichlet trace constraint) comes
after them, so the matrix arrives in the order it is factored.  Every matrix
the package factors is structurally symmetric: Stokes blocks
[[K, D], [D^T, 0]] reduced by a symmetric C^T A C, bordered by gauge rows
and, for friction and the Dirichlet half-step, by an interface multiplier.
SymmetricMode pivots on the diagonal while it passes the threshold, so the
factors keep the symmetric fill of that order: on 64x32x8 the continuity
system fills 4.35M L+U entries (5.93M under minimum degree on A^T + A,
33.3M under COLAMD).  The threshold stays nonzero because a zero threshold
lost six digits on a harder saddle system; a diagonal entry below 0.01 of
its column's largest is still pivoted away, and the report counts those
off-diagonal pivots.  Any order is a valid order: a matrix numbered some
other way is factored as correctly, only with more fill.

Every solve is certified by an independent matrix-vector product: the
relative residual is computed with a scipy sparse product of the original
matrix, never taken from solver internals, and a solve that misses the
requested tolerance raises instead of returning silently.

Every matrix is held once.  `fem` scatters each system straight into the
compressed-column arrays SuperLU reads, writes every border into them in
place, and `factorize` hands SuperLU a
scipy view of those arrays, so no copy of the matrix is made for the
factorization or kept next to the LU factors; the certification product is
the same view.  (Factoring the transpose of a row-compressed matrix would
also avoid the copy, but SuperLU solves transposed systems one column at a
time: an 8-column block solve of the alternating solver's set-up on
64x32x8 took 44 ms that way instead of 20 ms.)

A right-hand side may be a vector or an (n, k) block of columns; each column
is certified on its own.  A factorization handle is exposed separately
because the alternating solver factors each layer's friction-free matrix
once per discretization, solves it for blocks of right-hand sides that span
its affine response to an interface traction, and once more per run to
rebuild the field at the stop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "CscMatrix",
    "SolveReport",
    "Factorization",
    "DimensionMismatchError",
    "SingularSystemError",
    "ResidualCertificationError",
    "solve",
    "factorize",
]

DEFAULT_TOLERANCE = 1e-10

# The factorization recipe passed to SuperLU for every matrix.
ORDERING = "NATURAL"
DIAG_PIVOT_THRESH = 0.01
SYMMETRIC_MODE = True


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


class SingularSystemError(RuntimeError):
    """The factorization hit a zero pivot or structural singularity."""


class ResidualCertificationError(RuntimeError):
    """The certified relative residual exceeded the requested tolerance."""


@dataclass(frozen=True)
class CscMatrix:
    """Compressed-sparse-column matrix: column offsets, row indices, values,
    the layout SuperLU reads.

    Row indices are strictly increasing within each column and duplicates
    are summed on construction.
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_scipy(cls, m) -> "CscMatrix":
        """A canonical copy of any matrix scipy can convert."""
        m = scipy.sparse.csc_matrix(m, dtype=np.float64, copy=True)
        m.sum_duplicates()
        m.sort_indices()
        # The index arrays keep scipy's dtype, so to_scipy shares them.
        return cls(
            n_rows=m.shape[0], n_cols=m.shape[1], indptr=m.indptr, indices=m.indices, data=m.data
        )

    def to_scipy(self) -> scipy.sparse.csc_matrix:
        """A scipy matrix on this matrix's arrays, not a copy of them, when the
        index arrays have the dtype scipy picks (as from_scipy keeps it)."""
        return scipy.sparse.csc_matrix(
            (self.data, self.indices, self.indptr), shape=(self.n_rows, self.n_cols)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


@dataclass(frozen=True)
class SolveReport:
    """What one certified solve did.

    ordering, diag_pivot_thresh and symmetric_mode are the options the
    factorization was computed with: "NATURAL" means the columns were
    eliminated in the order the matrix arrived.  off_diagonal_pivots counts
    the columns whose pivot row is not their own (perm_r differs from
    perm_c), where the diagonal failed the threshold.  lu_nnz is SuperLU's
    count of the stored L + U nonzeros; factor_s and solve_s are the seconds
    spent in the factorization (shared by every solve against it) and in
    this solve's triangular solves.
    """

    relative_residual: float  # the worst column's, for a block rhs
    n: int
    nnz: int
    ordering: str
    diag_pivot_thresh: float
    symmetric_mode: bool
    off_diagonal_pivots: int
    lu_nnz: int
    factor_s: float
    solve_s: float


@dataclass
class Factorization:
    """Reusable LU factorization of a square CscMatrix.

    _product is the matrix as scipy sees it, sharing its arrays: SuperLU
    factored it, and it forms the certification residuals.
    """

    matrix: CscMatrix
    _lu: object = field(repr=False)
    factor_s: float
    off_diagonal_pivots: int
    _product: scipy.sparse.csc_matrix = field(repr=False)

    @property
    def lu_nnz(self) -> int:
        return int(self._lu.nnz)

    def solve(self, b: np.ndarray, tol: float = DEFAULT_TOLERANCE) -> tuple[np.ndarray, SolveReport]:
        """Solve for a vector or an (n, k) block of right-hand sides.

        Every column is certified at tol: its residual is relative to its own
        rhs norm, or absolute for a zero column.  The report carries the
        worst column's value.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.matrix.n_rows:
            raise DimensionMismatchError(
                f"matrix is {self.matrix.n_rows}x{self.matrix.n_cols}, rhs has shape {b.shape}"
            )
        start = time.perf_counter()
        x = self._lu.solve(b)
        solve_s = time.perf_counter() - start
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("solution contains non-finite entries")
        # Column norms through einsum and the residual formed in place, so a
        # block rhs costs one more n x k array, not three.  A block product
        # sums each column in the order of its vector product.
        columns = b.reshape(len(b), -1)
        residual = (self._product @ x).reshape(columns.shape)
        np.subtract(columns, residual, out=residual)
        norm_r = np.sqrt(np.einsum("ij,ij->j", residual, residual))
        norm_b = np.sqrt(np.einsum("ij,ij->j", columns, columns))
        rel = np.divide(norm_r, norm_b, out=norm_r, where=norm_b > 0.0)
        worst = float(np.max(rel, initial=0.0))
        if not np.all(rel <= tol):
            raise ResidualCertificationError(
                f"certified relative residual {worst:.3e} exceeds tolerance {tol:.3e}"
            )
        return x, SolveReport(
            relative_residual=worst,
            n=self.matrix.n_rows,
            nnz=self.matrix.nnz,
            ordering=ORDERING,
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            symmetric_mode=SYMMETRIC_MODE,
            off_diagonal_pivots=self.off_diagonal_pivots,
            lu_nnz=self.lu_nnz,
            factor_s=self.factor_s,
            solve_s=solve_s,
        )


def factorize(matrix: CscMatrix) -> Factorization:
    if matrix.n_rows != matrix.n_cols:
        raise DimensionMismatchError(
            f"LU factorization needs a square matrix, got {matrix.n_rows}x{matrix.n_cols}"
        )
    product = matrix.to_scipy()
    start = time.perf_counter()
    try:
        lu = scipy.sparse.linalg.splu(
            product,
            permc_spec=ORDERING,
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options={"SymmetricMode": SYMMETRIC_MODE},
        )
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularSystemError(str(exc)) from exc
    return Factorization(
        matrix=matrix,
        _lu=lu,
        factor_s=time.perf_counter() - start,
        off_diagonal_pivots=int(np.count_nonzero(lu.perm_r != lu.perm_c)),
        _product=product,
    )


def solve(matrix: CscMatrix, b: np.ndarray, tol: float = DEFAULT_TOLERANCE) -> tuple[np.ndarray, SolveReport]:
    """Direct solve with post-hoc residual certification."""
    return factorize(matrix).solve(b, tol=tol)

