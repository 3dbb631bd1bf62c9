"""Sparse compressed-column (CSC) matrices and a certified direct solver.

A matrix is factored in one of two ways, read from the matrix, never
chosen by an option.

A matrix of the layered mesh is invariant under a shift by one cell column
in x, the periodic direction.  `fem` numbers its solved rows x-column-major
in blocks and attaches that description to it (`XColumns`), so that a
shift by one x-column adds a fixed stride to every row and column index.
`factorize` checks entry by entry that every x-column repeats x-column 1
(in strided views of the matrix's arrays, by keys where the period wraps),
reads from it the m x m blocks C_d coupling a column to the column d to
its right, and factors the symbol sum_d C_d exp(-i theta_k d) of each
Fourier mode k = 0..nx // 2 on its own ("X-FOURIER"), in its in-column
order: the discrete Fourier transform along x turns a block-circulant
matrix block-diagonal (P. J. Davis, *Circulant Matrices*, 1979).  Modes 0
and nx / 2 are real, the others complex Hermitian; the global rows (the
pressure gauges) couple only to mode 0 and border it.  Mode 0, whose
border rows are dense, is a sparse LU (SuperLU).  Every other mode is
banded, 10 places either side of its diagonal on the layered mesh, and is
written straight into LAPACK's band storage and factored there by a band
LU with partial pivoting (?gbtrf; E. Anderson et al., *LAPACK Users'
Guide*, 3rd ed., SIAM 1999), one mode at a time, the array becoming its
factor.  A solve transforms the rhs with `rfft` along x, solves each mode
and transforms back.  On 64x32x8 the friction system fills 0.17M L+U
entries this way instead of 5.66M.

Any other matrix, including one from a mesh whose columns differ, is
factored whole under SuperLU's minimum-degree order on the pattern of
A^T + A ("MMD_AT_PLUS_A"; X. S. Li, ACM TOMS 31, 2005).  Every matrix the
package factors is structurally symmetric: Stokes blocks [[K, D], [D^T,
0]] reduced by a symmetric C^T A C, bordered by gauge rows and, for
friction and the Dirichlet half-step, by an interface multiplier.  SuperLU
runs in symmetric mode with a diagonal pivot threshold of 0.01:
SymmetricMode pivots on the diagonal while it passes the threshold, so the
factors keep the symmetric fill of the order.  The threshold stays nonzero
because a zero threshold lost six digits on a harder saddle system; a
diagonal entry below 0.01 of its column's largest is still pivoted away.
The band LU takes the largest entry of each column's band as its pivot,
whatever the diagonal holds, and its fill stays inside the band.

Every solve is certified by an independent matrix-vector product: the
relative residual is computed with a scipy sparse product of the original
matrix, never taken from solver internals or from the modes, and a solve
that misses the requested tolerance raises instead of returning silently.
A matrix with an inf or NaN entry (an assembly that overflowed) is refused
before it is factored, by a `SingularSystemError` that counts those entries.
Running out of memory raises `OutOfMemoryError`, which names the phase and
the size of the system.

Every matrix is held once.  `fem` scatters each system straight into the
compressed-column arrays SuperLU reads and writes every border into them in
place.  The whole-matrix path hands SuperLU a scipy view of those arrays;
the per-mode path compares views of them and keeps a table of the blocks
C_d and one mode's band alive while it is factored.  No copy of the matrix
is made or kept next to the LU factors; the certification product is the
same view.  (Factoring the transpose of a row-compressed matrix would also
avoid the copy, but SuperLU solves transposed systems one column at a time:
an 8-column block solve of the alternating solver's set-up on 64x32x8 took
44 ms that way instead of 20 ms.)

A right-hand side may be a vector or an (n, k) block of columns; each column
is certified on its own.  A factorization handle is exposed separately
because the alternating solver factors each layer's friction-free matrix
once per discretization and solves it for one block of right-hand sides
that spans its affine response to an interface traction; it then drops the
factors and rebuilds each field from those columns, certified by the same
residual check as a solve (`certify`).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import lapack

__all__ = [
    "CscMatrix",
    "XColumns",
    "SolveReport",
    "Factorization",
    "DimensionMismatchError",
    "SingularSystemError",
    "ResidualCertificationError",
    "OutOfMemoryError",
    "bordered",
    "certify",
    "solve",
    "factorize",
]

DEFAULT_TOLERANCE = 1e-10

# The factorization recipe passed to SuperLU: the column order of a whole
# matrix, and of Fourier mode 0, which arrives nearly banded.
ORDERING = "MMD_AT_PLUS_A"
MODE_ORDERING = "NATURAL"
DIAG_PIVOT_THRESH = 0.01
SYMMETRIC_MODE = True
# SolveReport.ordering of a matrix factored one Fourier mode at a time.
X_FOURIER = "X-FOURIER"

# An entry repeats its counterpart in another x-column when they differ by at
# most this fraction of the matrix's largest entry.  The layered mesh's
# systems repeat to 2.8e-14 on the ladder up to 128x64x16.
SHIFT_RTOL = 1e-12
# The check compares this fraction of the matrix's entries at a time, at
# least the floor, below which a step's few numpy calls outweigh its work.
# A strided step holds a quarter of the bytes per entry of a keyed one and
# is 4 times longer: the numpy memory of factoring the 32x16x4 continuity
# system then peaks below 10% of the matrix's own.
_STEP = (64, 1024)


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


class SingularSystemError(RuntimeError):
    """The system cannot be factored: a zero pivot, a structural
    singularity, or a non-finite entry."""


class ResidualCertificationError(RuntimeError):
    """The certified relative residual exceeded the requested tolerance."""


class OutOfMemoryError(MemoryError):
    """Memory ran out; the message names the phase and the system's size."""


@dataclass(frozen=True)
class XColumns:
    """The nx cell columns of an x-periodic system, whose solved rows are
    numbered x-column-major in blocks.  Block (start, size) holds the rows
    start + j size + p, p < size, of x-column j = 0..nx - 1, so a shift by
    one x-column adds size to each of its rows.  `order` lists the
    positions of the blocks, those of the first block and then those of the
    next, in in-column order, the order of each Fourier mode's rows.  The
    rows `globals` (the pressure gauges) couple to every x-column alike.
    """

    nx: int
    blocks: tuple  # ((start, size), ...), ascending in start
    order: np.ndarray  # (m,), m the sum of the sizes
    globals: np.ndarray  # (g,)

    def rows(self) -> np.ndarray:
        """(nx, m): the row at in-column position q of x-column j."""
        index = np.int32 if self.blocks[-1][0] + self.nx * self.blocks[-1][1] < 2**31 else np.int64
        rows = [np.arange(start, start + self.nx * size, dtype=index) for start, size in self.blocks]
        return np.hstack([r.reshape(self.nx, -1) for r in rows]).take(self.order, axis=1)


@dataclass(frozen=True)
class CscMatrix:
    """Compressed-sparse-column matrix: column offsets, row indices, values,
    the layout SuperLU reads.

    Row indices are strictly increasing within each column and duplicates
    are summed on construction.  `columns`, when given, places each row on
    the x-columns of a periodic mesh: `factorize` then checks whether the
    matrix repeats from column to column and, if it does, factors it one
    Fourier mode at a time.
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    columns: XColumns | None = field(default=None, repr=False, compare=False)

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

    ordering says how the matrix was factored: "MMD_AT_PLUS_A" whole,
    under SuperLU's minimum-degree column order, "X-FOURIER" one Fourier
    mode along x at a time, in its in-column order: mode 0 by SuperLU, the
    others by LAPACK's band LU.  diag_pivot_thresh and symmetric_mode are
    SuperLU's options, so under X-FOURIER they hold for mode 0 alone; the
    band LU pivots partially, on each column's largest entry.
    off_diagonal_pivots counts the rows that left their place: in a SuperLU
    factor the columns whose pivot row is not their own (perm_r differs
    from perm_c), where the diagonal failed the threshold; in a band factor
    the row interchanges (ipiv[i] != i).  lu_nnz counts the stored L + U
    nonzeros: SuperLU's count, and the nonzeros of each band factor's
    array.  Under X-FOURIER both are summed over the modes, so
    off_diagonal_pivots is dominated by LAPACK's row interchanges, which
    partial pivoting makes in most rows of these saddle-point modes (11,353
    of the 11,520 band rows on 64x32x8 friction): there it does not flag a
    degraded pivot.  factor_s and
    solve_s are the seconds spent in the factorization (shared by every
    solve against it) and in this solve's triangular solves.
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

    _lu is SuperLU's factorization of the whole matrix, or the factors of
    its Fourier modes behind the same solve(b) and nnz.  _product is the
    matrix as scipy sees it, sharing its arrays: it forms the certification
    residuals.
    """

    matrix: CscMatrix
    _lu: object = field(repr=False)
    factor_s: float
    off_diagonal_pivots: int
    _product: scipy.sparse.csc_matrix = field(repr=False)
    ordering: str = ORDERING

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
        with _phase("the triangular solves", self.matrix):
            x = self._lu.solve(b)
        solve_s = time.perf_counter() - start
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("solution contains non-finite entries")
        return x, SolveReport(
            relative_residual=certify(self._product, x, b, tol),
            n=self.matrix.n_rows,
            nnz=self.matrix.nnz,
            ordering=self.ordering,
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            symmetric_mode=SYMMETRIC_MODE,
            off_diagonal_pivots=self.off_diagonal_pivots,
            lu_nnz=self.lu_nnz,
            factor_s=self.factor_s,
            solve_s=solve_s,
        )


def certify(product: scipy.sparse.csc_matrix, x: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOLERANCE) -> float:
    """The worst column's relative residual |b - A x| / |b| of a vector or an
    (n, k) block x, formed with the scipy matrix A = `product`: relative to
    each column's own rhs norm, or absolute for a zero column.  A column
    above tol raises ResidualCertificationError."""
    # Column norms through einsum and the residual formed in place, so a
    # block rhs costs one more n x k array, not three.  A block product
    # sums each column in the order of its vector product.
    columns = b.reshape(len(b), -1)
    residual = (product @ x).reshape(columns.shape)
    np.subtract(columns, residual, out=residual)
    norm_r = np.sqrt(np.einsum("ij,ij->j", residual, residual))
    norm_b = np.sqrt(np.einsum("ij,ij->j", columns, columns))
    rel = np.divide(norm_r, norm_b, out=norm_r, where=norm_b > 0.0)
    worst = float(np.max(rel, initial=0.0))
    if not np.all(rel <= tol):
        raise ResidualCertificationError(
            f"certified relative residual {worst:.3e} exceeds tolerance {tol:.3e}"
        )
    return worst


@contextlib.contextmanager
def _phase(what: str, matrix: CscMatrix):
    """Turns a MemoryError raised inside the block into an OutOfMemoryError
    that names `what` and the size of `matrix`."""
    try:
        yield
    except OutOfMemoryError:
        raise
    except MemoryError as exc:
        raise OutOfMemoryError(
            f"out of memory in {what} of a {matrix.n_rows}x{matrix.n_cols} system "
            f"with {matrix.nnz} nonzeros"
        ) from exc


def _splu(a: scipy.sparse.csc_matrix, ordering: str):
    try:
        return scipy.sparse.linalg.splu(
            a,
            permc_spec=ordering,
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options={"SymmetricMode": SYMMETRIC_MODE},
        )
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularSystemError(str(exc)) from exc


def _pivots(lu) -> int:
    return int(np.count_nonzero(lu.perm_r != lu.perm_c))


def bordered(a: CscMatrix, right, below, corner, columns: XColumns | None = None) -> CscMatrix:
    """[[A, R], [B, C]] for the square A, with R = `right` (n x k), B =
    `below` (k x n) and C = `corner` (k x k) any scipy sparse matrices.

    Written straight into the result's compressed columns: column j < n is
    A's column j over B's (rows n + i), column n + m is R's column m over C's.
    No COO copy of A is made.  Every input entry is kept, and sorted columns
    stay sorted, so the result is canonical when A is.
    """
    n, k = a.n_rows, below.shape[0]
    r, b, c = (scipy.sparse.csc_matrix(m) for m in (right, below, corner))
    for m in (r, b, c):
        m.sort_indices()
    indptr = np.concatenate([a.indptr + b.indptr, a.nnz + b.nnz + r.indptr[1:] + c.indptr[1:]])
    indptr = indptr.astype(np.int32 if n + k < 2**31 else np.int64, copy=False)
    indices, data = np.empty(indptr[-1], dtype=indptr.dtype), np.empty(indptr[-1])
    start = 0
    for top, bottom in ((a, b), (r, c)):
        end = start + top.indptr[-1] + bottom.indptr[-1]
        # each bottom entry follows its column's top entries
        at = np.arange(bottom.indptr[-1]) + np.repeat(top.indptr[1:], np.diff(bottom.indptr))
        on_top = np.ones(end - start, dtype=bool)
        on_top[at] = False
        part_indices, part_data = indices[start:end], data[start:end]
        part_indices[on_top], part_data[on_top] = top.indices, top.data
        part_indices[at], part_data[at] = bottom.indices + n, bottom.data
        start = end
    return CscMatrix(n + k, n + k, indptr, indices, data, columns)


class _ShiftSymbol:
    """The blocks C_d of an x-shift-invariant matrix and the matrices of its
    Fourier modes, read from x-column ref = 1 (0 when nx = 1), which reaches
    its neighbours without wrapping around the period: C_d[p, q] couples
    in-column position p of x-column ref + d to position q of x-column ref.

    x-column j repeats the reference when each entry of either, shifted by
    ref - j x-columns onto the other, is within the tolerance of its
    counterpart, an absent entry counting as zero.  A shift adds a block's
    size to each of its rows and keeps the global rows.  The interior
    x-columns 2..nx - 2 are compared in strided views of the matrix's arrays
    where their stored pattern is the reference's shifted (everywhere on the
    layered mesh); the wrap x-columns 0 and nx - 1, and an x-column whose
    stored pattern differs (a rounding residue of an integral that cancels),
    by the keys column n + row of their entries shifted onto the reference.
    """

    def __init__(self, matrix: CscMatrix):
        self.matrix, self.cols = matrix, matrix.columns
        self.nx, self.m, self.g = self.cols.nx, len(self.cols.order), len(self.cols.globals)
        self.ref = min(1, self.nx - 1)
        self.rank = np.empty(self.m, dtype=matrix.indices.dtype)
        self.rank[self.cols.order] = np.arange(self.m)
        self.tol = SHIFT_RTOL * max(matrix.data.max(initial=0.0), -matrix.data.min(initial=0.0))
        self.key_type = np.int32 if matrix.n_rows * matrix.n_cols < 2**31 else np.int64
        self.step = max(matrix.nnz // _STEP[0], _STEP[1])
        keyed = {0, self.nx - 1} - {self.ref}
        for start, size in self.cols.blocks:
            keyed |= self._strided(start, size)
        self.invariant = all(self._repeats(j) for j in sorted(keyed)) and self._read_globals()

    def _strided(self, start: int, size: int) -> set:
        """The interior x-columns whose block (start, size) is not the
        reference's shifted: another stored pattern, or a value off by more
        than the tolerance."""
        indptr, indices, data, nx = self.matrix.indptr, self.matrix.indices, self.matrix.data, self.nx
        if nx < 4:
            return set()
        ref = indptr[start + size : start + 2 * size + 1]
        counts, rows, values = np.diff(ref), indices[ref[0] : ref[-1]], data[ref[0] : ref[-1]]
        stride = np.zeros(len(rows), dtype=rows.dtype)  # each row's shift by one x-column
        for s, z in self.cols.blocks:
            stride[(rows >= s) & (rows < s + nx * z)] = z
        per, differ = max(2 * self.step // max(len(rows), 1), 1), set()  # x-columns per view
        interior = np.diff(indptr[start + 2 * size : start + (nx - 1) * size + 1]).reshape(-1, size)
        stored = (interior == counts).all(axis=1)  # the interior x-columns' counts per column
        for a in range(2, nx - 1, per):
            b = min(a + per, nx - 1)
            lo, hi = indptr[start + a * size], indptr[start + b * size]
            same = bool(stored[a - 2 : b - 2].all())
            if same:
                shifted = np.arange(a - 1, b - 1, dtype=rows.dtype)[:, None] * stride
                shifted += rows
                same = np.array_equal(indices[lo:hi].reshape(b - a, -1), shifted)
                del shifted
            if same:
                deviation = data[lo:hi].reshape(b - a, -1) - values
                same = np.max(np.abs(deviation, out=deviation), initial=0.0) <= self.tol
            if not same:
                differ.update(range(a, b))
        return differ

    def _shift(self, rows: np.ndarray, s: int) -> np.ndarray:
        """The rows s x-columns to the right of `rows`; global rows stay."""
        out = rows.copy()
        for start, size in self.cols.blocks:
            span = self.nx * size
            inside = (rows >= start) & (rows < start + span)
            out[inside] = start + (rows[inside] - start + s * size) % span
        return out

    def _repeats(self, j: int) -> bool:
        """Whether x-column j repeats the reference, compared a step of
        positions of each block at a time."""
        matrix, ref = self.matrix, self.ref

        def keyed(i: int, start: int, p0: int, p1: int, size: int) -> tuple:
            """Keys and values of x-column i's entries at block positions p0..p1 - 1."""
            ptr = matrix.indptr[start + i * size + p0 : start + i * size + p1 + 1]
            key = np.arange(start + ref * size + p0, start + ref * size + p1, dtype=self.key_type)
            key = np.repeat(key, np.diff(ptr))
            key *= matrix.n_rows
            rows = matrix.indices[ptr[0] : ptr[-1]]
            key += rows if i == ref else self._shift(rows, ref - i)
            return key, matrix.data[ptr[0] : ptr[-1]]

        for start, size in self.cols.blocks:
            entries = matrix.indptr[start + (ref + 1) * size] - matrix.indptr[start + ref * size]
            bounds = np.linspace(0, size, min(-(-entries // self.step), size) + 1).astype(int)
            for piece in zip(bounds[:-1], bounds[1:]):
                key, values = keyed(j, start, *piece, size)
                ref_key, ref_values = keyed(ref, start, *piece, size)  # ascending
                at = np.searchsorted(ref_key, key)
                found = ref_key.take(at, mode="clip") == key
                del key, ref_key
                matched = np.zeros(len(ref_values), dtype=bool)
                matched[at[found]] = True
                deviation = np.where(found, values - ref_values.take(at, mode="clip"), values)
                del at, found
                unmatched = np.abs(ref_values[~matched])
                if max(np.max(np.abs(deviation), initial=0.0), np.max(unmatched, initial=0.0)) > self.tol:
                    return False
        return True

    def _locate(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The x-column and in-column position of each row: x-column 0 and
        position m + i for the i-th global row."""
        j, q = np.zeros_like(rows), np.empty_like(rows)
        on_global = np.ones(len(rows), dtype=bool)
        offset = 0
        for start, size in self.cols.blocks:
            inside = (rows >= start) & (rows < start + self.nx * size)
            on_global &= ~inside
            j[inside], p = np.divmod(rows[inside] - start, size)
            q[inside] = self.rank.take(p + offset)
            offset += size
        q[on_global] = self.m + np.searchsorted(self.cols.globals, rows[on_global])
        return j, q

    def _read_globals(self) -> bool:
        """The global columns: each must hold the same values at the same
        in-column positions of every x-column, an entry within the tolerance
        of zero counting as zero.  Their entries become the right border w
        (m x g) of mode 0 and its corner."""
        matrix, nx, m, g = self.matrix, self.nx, self.m, self.g
        self.w, self.corner = np.zeros((m, g)), np.zeros((g, g))
        for k, col in enumerate(self.cols.globals.tolist()):
            entries = slice(matrix.indptr[col], matrix.indptr[col + 1])
            values = matrix.data[entries]
            kept = np.abs(values) > self.tol
            j, q = self._locate(matrix.indices[entries][kept])
            values = values[kept]
            on_global = q >= m
            self.corner[q[on_global] - m, k] = values[on_global]
            j, q, values = j[~on_global], q[~on_global], values[~on_global]
            self.w[q[j == 0], k] = values[j == 0]
            counts = np.bincount(q, minlength=m)  # x-columns holding each position
            if ((counts != 0) & (counts != nx)).any():
                return False
            if np.max(np.abs(self.w[q, k] - values), initial=0.0) > self.tol:
                return False
        return True

    def _pattern(self) -> tuple:
        """From the reference's entries above the tolerance: the m x m pattern
        (indptr, indices) shared by the modes, in in-column order, the
        shifts d present, the table (shift x pattern entry) of the values of
        C_d, and the lower border (g x m) of mode 0."""
        matrix, m, g, ref = self.matrix, self.m, self.g, self.ref
        parts, offset = [], 0
        for start, size in self.cols.blocks:
            ptr = matrix.indptr[start + ref * size : start + (ref + 1) * size + 1]
            kept = np.abs(matrix.data[ptr[0] : ptr[-1]]) > self.tol
            q = np.repeat(self.rank[offset : offset + size], np.diff(ptr))[kept]
            parts.append((q, matrix.indices[ptr[0] : ptr[-1]][kept], matrix.data[ptr[0] : ptr[-1]][kept]))
            offset += size
        q, rows, values = (np.concatenate(part) if len(parts) > 1 else part[0] for part in zip(*parts))
        del parts
        shift, p = self._locate(rows)
        del rows
        on_global = p >= m
        below = scipy.sparse.csc_matrix((values[on_global], (p[on_global] - m, q[on_global])), shape=(g, m))
        local = ~on_global
        shift, values = shift[local], values[local]
        pair = q[local].astype(self.key_type, copy=False)
        del q
        pair *= m
        pair += p[local]
        del p, local, on_global
        pairs = np.unique(pair)
        entry = np.searchsorted(pairs, pair)
        del pair
        present = np.zeros(self.nx, dtype=bool)
        present[shift] = True
        np.take((np.cumsum(present) - 1).astype(shift.dtype), shift, out=shift)
        shift *= len(pairs)
        entry += shift  # the entry of the table
        del shift
        shifts = np.flatnonzero(present)
        table = np.bincount(entry, values, len(shifts) * len(pairs)).reshape(len(shifts), -1)
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(pairs // m, minlength=m), out=indptr[1:])
        return (indptr, (pairs % m).astype(np.int32)), shifts - self.ref, table, below

    def modes(self) -> tuple:
        """((kl, ku), modes): the band widths of the modes k >= 1 and a
        generator of (k, matrix) for each mode k = 0..nx // 2, one at a
        time, the real ones first.  Mode k is the symbol sum_d C_d exp(-i
        theta_k d), theta_k = 2 pi k / nx, one product of the phases with
        the table, real at k = 0 and k = nx / 2.  Mode 0 is a scipy CSC
        matrix bordered by the global rows as [[A_0, w], [wt, corner /
        nx]]: with the forward-normalized transform its unknowns are the
        column mean and the global unknowns themselves.  Every other mode
        is a fresh Fortran-ordered array in LAPACK's band storage, (2 kl +
        ku + 1) x m with entry (p, q) at row kl + ku + p - q of column q,
        the kl rows above its band left free for the factor's fill; kl and
        ku are the widths of the shared pattern."""
        nx, m = self.nx, self.m
        (indptr, indices), shifts, table, below = self._pattern()
        q = np.repeat(np.arange(m), np.diff(indptr))
        offset = indices - q  # p - q of each pattern entry
        kl, ku = int(offset.max(initial=0)), -int(offset.min(initial=0))
        height = 2 * kl + ku + 1
        at = q * height + offset + (kl + ku)  # each entry's place in the flat band storage
        del q, offset

        def band(values: np.ndarray) -> np.ndarray:
            flat = np.zeros(height * m, dtype=values.dtype)
            flat[at] = values
            return flat.reshape(m, height).T

        def modes():
            mode = CscMatrix(m, m, indptr, indices, table.sum(axis=0))
            yield 0, bordered(mode, self.w, below, self.corner / nx).to_scipy()
            del mode
            if nx % 2 == 0 and nx > 1:
                yield nx // 2, band(np.where(shifts % 2 == 0, 1.0, -1.0) @ table)
            values = np.empty(len(indices), dtype=complex)
            for k in range(1, (nx + 1) // 2):
                theta = 2.0 * np.pi * k * shifts / nx
                np.matmul(np.cos(theta), table, out=values.real)
                np.matmul(-np.sin(theta), table, out=values.imag)
                yield k, band(values)

        return (kl, ku), modes()


class _FourierModes:
    """The LU factors of the Fourier modes k = 0..nx // 2 along x of an
    x-shift-invariant matrix, behind SuperLU's solve(b) and nnz: mode 0's
    SuperLU factorization (`mean`), and for k = 1..nx // 2 LAPACK's band LU
    with partial pivoting (?gbtrf) of band widths `bands`, factors[k - 1] =
    (band factor, row interchanges).  nnz counts the nonzeros of mode 0's L
    + U and of the band factors, pivots the rows that left their place:
    perm_r against perm_c in mode 0, the row interchanges in the others."""

    def __init__(self, columns: XColumns, mean, bands: tuple, factors: list):
        self.columns, self.mean, self.bands, self.factors = columns, mean, bands, factors
        self.nnz = int(mean.nnz) + sum(int(np.count_nonzero(lu)) for lu, _ in factors)
        place = np.arange(1, len(columns.order) + 1)
        self.pivots = _pivots(mean) + sum(int(np.count_nonzero(ipiv != place)) for _, ipiv in factors)

    def solve(self, b: np.ndarray) -> np.ndarray:
        cols, rows = self.columns, self.columns.rows()
        nx, m = rows.shape
        block = b.reshape(len(b), -1)
        # forward-normalized: mode 0 is the column mean
        modes = np.fft.rfft(block[rows], axis=0, norm="forward")  # (nx // 2 + 1, m, k)
        x0 = self.mean.solve(np.vstack([modes[0].real, block[cols.globals] / nx]))
        modes[0], glob = x0[:m], x0[m:]
        for k, (lu, ipiv) in enumerate(self.factors, start=1):
            if 2 * k == nx:
                modes[k], _ = lapack.dgbtrs(lu, *self.bands, modes[k].real, ipiv)
            else:
                modes[k], _ = lapack.zgbtrs(lu, *self.bands, modes[k], ipiv)
        x = np.empty(block.shape)
        x[rows] = np.fft.irfft(modes, n=nx, axis=0, norm="forward")
        x[cols.globals] = glob
        return x.reshape(b.shape)


def _factor_modes(matrix: CscMatrix) -> _FourierModes | None:
    """The per-mode factors, or None when the matrix does not repeat from
    x-column to x-column."""
    with _phase("the x-shift invariance check", matrix):
        symbol = _ShiftSymbol(matrix)
    if not symbol.invariant:
        return None
    with _phase("forming a Fourier mode's matrix (X-FOURIER)", matrix):
        bands, modes = symbol.modes()
        _, mode = next(modes)
    with _phase("the factorization of Fourier mode 0 (X-FOURIER)", matrix):
        mean = _splu(mode, MODE_ORDERING)
    del mode
    factors = [None] * (symbol.nx // 2)
    for _ in factors:
        with _phase("forming a Fourier mode's matrix (X-FOURIER)", matrix):
            k, band = next(modes)
        with _phase(f"the factorization of Fourier mode {k} (X-FOURIER)", matrix):
            getrf = lapack.dgbtrf if band.dtype == np.float64 else lapack.zgbtrf
            lu, ipiv, info = getrf(band, *bands, overwrite_ab=1)
        del band
        if info != 0:  # info = i > 0: U(i, i) is exactly zero
            raise SingularSystemError(
                f"Fourier mode {k} of the {matrix.n_rows}x{matrix.n_cols} system cannot be"
                f" factored: ?gbtrf returned info = {info}"
            )
        factors[k - 1] = (lu, ipiv)
    return _FourierModes(matrix.columns, mean, bands, factors)


def factorize(matrix: CscMatrix) -> Factorization:
    if matrix.n_rows != matrix.n_cols:
        raise DimensionMismatchError(
            f"LU factorization needs a square matrix, got {matrix.n_rows}x{matrix.n_cols}"
        )
    # min and max allocate nothing, and one of them is NaN or inf when any entry is
    if not (np.isfinite(matrix.data.min(initial=0.0)) and np.isfinite(matrix.data.max(initial=0.0))):
        bad = np.count_nonzero(~np.isfinite(matrix.data))
        raise SingularSystemError(
            f"the {matrix.n_rows}x{matrix.n_cols} system cannot be factored: {bad} of its"
            f" {matrix.nnz} stored entries are non-finite (inf or NaN)"
        )
    product = matrix.to_scipy()
    start = time.perf_counter()
    lu = None if matrix.columns is None else _factor_modes(matrix)
    if lu is not None:
        pivots, ordering = lu.pivots, X_FOURIER
    else:
        with _phase(f"the factorization ({ORDERING})", matrix):
            lu = _splu(product, ORDERING)
        pivots, ordering = _pivots(lu), ORDERING
    return Factorization(
        matrix=matrix,
        _lu=lu,
        factor_s=time.perf_counter() - start,
        off_diagonal_pivots=pivots,
        _product=product,
        ordering=ordering,
    )


def solve(matrix: CscMatrix, b: np.ndarray, tol: float = DEFAULT_TOLERANCE) -> tuple[np.ndarray, SolveReport]:
    """Direct solve with post-hoc residual certification."""
    return factorize(matrix).solve(b, tol=tol)
