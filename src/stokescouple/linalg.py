"""Sparse compressed-column (CSC) matrices and a certified direct solver.

Every factorization is a sparse LU (SuperLU via scipy) in symmetric mode
with a diagonal pivot threshold of 0.01.  It is applied in one of two ways,
read from the matrix, never chosen by an option.

A matrix of the layered mesh is invariant under a shift by one cell column
in x, the periodic direction: `fem` attaches to it the x-column and the
in-column position of each solved row (`XColumns`), with the rows of a
column ordered by z first.  `factorize` reads the m x m coupling blocks
C_d between a column and the column d to its right from the rows of
x-column 0, one x-column at a time checks that every other column repeats
them, and then factors the symbol sum_d C_d exp(-i theta_k d) of each
Fourier mode k = 0..nx // 2 on its own ("X-FOURIER"), in its in-column
order, which is banded: the discrete Fourier transform along x turns a
block-circulant matrix block-diagonal (P. J. Davis, *Circulant Matrices*,
1979).  Modes 0 and nx / 2 are real, the others complex Hermitian; the
global rows (the pressure gauges) couple only to mode 0 and border it.  A
solve transforms the rhs with `rfft` along x, solves each mode and
transforms back.  On 64x32x8 the friction system fills 0.19M L+U entries
this way instead of 5.66M.

Any other matrix, including one from a mesh whose columns differ, is
factored whole under SuperLU's minimum-degree order on the pattern of
A^T + A ("MMD_AT_PLUS_A"; X. S. Li, ACM TOMS 31, 2005).  Every matrix the
package factors is structurally symmetric: Stokes blocks [[K, D], [D^T,
0]] reduced by a symmetric C^T A C, bordered by gauge rows and, for
friction and the Dirichlet half-step, by an interface multiplier.
SymmetricMode pivots on the diagonal while it passes the threshold, so the
factors keep the symmetric fill of the order.  The threshold stays nonzero
because a zero threshold lost six digits on a harder saddle system; a
diagonal entry below 0.01 of its column's largest is still pivoted away,
and the report counts those off-diagonal pivots, summed over the modes.

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
the per-mode path reads them one x-column at a time and keeps one mode
matrix alive while it is factored.  No copy of the matrix is made or kept
next to the LU factors; the certification product is the same view.
(Factoring the transpose of a row-compressed matrix would also avoid the
copy, but SuperLU solves transposed systems one column at a time: an
8-column block solve of the alternating solver's set-up on 64x32x8 took
44 ms that way instead of 20 ms.)

A right-hand side may be a vector or an (n, k) block of columns; each column
is certified on its own.  A factorization handle is exposed separately
because the alternating solver factors each layer's friction-free matrix
once per discretization, solves it for blocks of right-hand sides that span
its affine response to an interface traction, and once more per run to
rebuild the field at the stop.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

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
    "solve",
    "factorize",
]

DEFAULT_TOLERANCE = 1e-10

# The factorization recipe passed to SuperLU: the column order of a whole
# matrix, and of each Fourier mode, which arrives banded.
ORDERING = "MMD_AT_PLUS_A"
MODE_ORDERING = "NATURAL"
DIAG_PIVOT_THRESH = 0.01
SYMMETRIC_MODE = True
# SolveReport.ordering of a matrix factored one Fourier mode at a time.
X_FOURIER = "X-FOURIER"

# An entry repeats its x-column-0 counterpart when they differ by at most this
# fraction of the largest entry of x-column 0.  The layered mesh's systems
# repeat to 2.8e-14 on the ladder up to 128x64x16.
SHIFT_RTOL = 1e-12
# Entries gathered per step of the invariance check (`_CHECK_STEP`) and of
# forming a mode's matrix (`_SYMBOL_STEP`): a fraction of the nonzeros,
# but at least a floor, below which a step's fixed cost of about 30 numpy
# calls outweighs its work.  The symbol's steps are smaller because they run
# while the pattern and a mode's values are held: at the check's size the
# traced peak of factoring the 32x16x4 continuity system reads 10.0% of the
# matrix instead of 8.5%, against the 10% that the tests allow.
_CHECK_STEP = (128, 1024)
_SYMBOL_STEP = (512, 256)


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
    """The cell columns of an x-periodic system: the solved row at in-column
    position q of x-column j is order[j, q]; slot[row] is q nx + j, or nx m + i
    for the i-th global row (globals[i]), a row coupled to every column alike.
    """

    order: np.ndarray  # (nx, m)
    slot: np.ndarray  # (n,)
    globals: np.ndarray  # (g,)

    @classmethod
    def of(cls, order: np.ndarray, globals_: np.ndarray) -> "XColumns":
        (nx, m), n = order.shape, order.size + len(globals_)
        index = np.int32 if n < 2**31 else np.int64
        slot = np.empty(n, dtype=index)
        slot[order] = np.arange(m) * nx + np.arange(nx)[:, None]
        slot[globals_] = order.size + np.arange(len(globals_))
        return cls(order=order.astype(index), slot=slot, globals=np.asarray(globals_, dtype=index))


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

    ordering, diag_pivot_thresh and symmetric_mode are the options the
    factorization was computed with: "MMD_AT_PLUS_A" means the whole matrix
    was factored under SuperLU's minimum-degree column order, "X-FOURIER"
    that each Fourier mode along x was, in its in-column order.
    off_diagonal_pivots counts the columns whose pivot row is not their own
    (perm_r differs from perm_c), where the diagonal failed the threshold.
    lu_nnz is SuperLU's count of the stored L + U nonzeros; both are summed
    over the modes.  factor_s and solve_s are the seconds spent in the
    factorization (shared by every solve against it) and in this solve's
    triangular solves.
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
            ordering=self.ordering,
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            symmetric_mode=SYMMETRIC_MODE,
            off_diagonal_pivots=self.off_diagonal_pivots,
            lu_nnz=self.lu_nnz,
            factor_s=self.factor_s,
            solve_s=solve_s,
        )


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


def _small(n: int) -> type:
    """The smallest signed integer type holding 0..n - 1.  The per-entry
    shift and run arrays of `_ShiftSymbol` use it: at int64 they raise the
    traced peak of factoring the 32x16x4 continuity system from 8.5% to
    10.0% of the matrix, against the 10% that the tests allow."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if n <= np.iinfo(t).max + 1)


def _step(matrix: "CscMatrix", rule: tuple[int, int]) -> int:
    fraction, floor = rule
    return max(matrix.nnz // fraction, floor)


def _ranges(start: np.ndarray, size: int) -> list:
    """Contiguous ranges [q0, q1) of the segments start[q]..start[q + 1] of
    about `size` entries each, at least one segment per range."""
    ranges, q, m = [], 0, len(start) - 1
    while q < m:
        end = max(int(np.searchsorted(start, start[q] + size, side="right")) - 1, q + 1)
        ranges.append((q, end))
        q = end
    return ranges


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
    """The blocks of an x-shift-invariant matrix, read from the CSC columns
    of its x-column 0, and the matrices of its Fourier modes.

    C_d[p, q] couples in-column position p of x-column d (to the right,
    modulo nx) to position q of x-column 0.  An entry of the column at
    position q of x-column j, at a row at position p of x-column i, has the
    key q width + p nx + d, d = (i - j) mod nx; at the i-th global row, the
    key q width + nx (m + i).  The keys of one column are distinct and sorted
    by (p, d), so equal sorted keys mean equal patterns, and the entries of
    one position pair (q, p) are adjacent.  Only the keys and the places of
    the entries in the matrix's arrays are kept: every value is read from the
    matrix itself.
    """

    def __init__(self, matrix: CscMatrix):
        self.matrix = matrix
        self.nx, self.m = matrix.columns.order.shape
        self.n_global = len(matrix.columns.globals)
        self.width = self.nx * (self.m + self.n_global)
        self.index = np.int32 if self.m * self.width < 2**31 else np.int64
        self.invariant = self._read() and self._read_globals()

    def _read(self) -> bool:
        """Read the keys of x-column 0 and the places of its entries, sorted by
        key, then check every other x-column against them, a range of
        positions at a time.  An entry within the tolerance of zero counts
        as zero: an integral that cancels in one column may leave a rounding
        residue in another."""
        matrix = self.matrix
        order, indptr, data = matrix.columns.order, matrix.indptr, matrix.data
        counts = indptr[order[0] + 1] - indptr[order[0]]
        start = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        self.keys = np.empty(start[-1], dtype=self.index)
        self.src = np.empty(start[-1], dtype=np.int32 if matrix.nnz < 2**31 else np.int64)
        self.tol = SHIFT_RTOL * max(data.max(initial=0.0), -data.min(initial=0.0))
        self.stored = []  # per range, its entries' slice of keys and src
        ranges = _ranges(start, _step(matrix, _CHECK_STEP))
        for j in range(self.nx):
            first = indptr[order[j]]
            counts = indptr[order[j] + 1] - first
            read = (self._read_range(j, first, counts, r, *qs) for r, qs in enumerate(ranges))
            if not all(read):
                return False
            if j == 0:
                filled = self.stored[-1].stop
                self.keys, self.src = self.keys[:filled], self.src[:filled]
        return True

    def _read_range(self, j: int, first, counts, r: int, q0: int, q1: int) -> bool:
        """Range r, the columns at positions q0..q1 - 1 of x-column j, whose
        entries start at first[q] and number counts[q]: stored when j = 0,
        else compared with the stored ones."""
        matrix, nx, m = self.matrix, self.nx, self.m
        # the entries' places in the CSC arrays
        offsets = np.zeros(q1 - q0, dtype=np.int64)
        np.cumsum(counts[q0 : q1 - 1], out=offsets[1:])
        at = np.repeat((first[q0:q1] - offsets).astype(self.src.dtype), counts[q0:q1])
        at += np.arange(len(at), dtype=at.dtype)
        key = matrix.columns.slot.take(matrix.indices.take(at)).astype(self.index, copy=False)
        on_global = key >= nx * m
        global_rows = key[on_global] - nx * m
        left = key % nx < j  # rows in an x-column i < j
        key -= j
        key[left] += nx
        del left
        key[on_global] = nx * (m + global_rows)
        key += np.repeat(np.arange(q0, q1, dtype=self.index) * self.width, counts[q0:q1])
        values = matrix.data.take(at)
        kept = np.abs(values) > self.tol
        key, values, at = key[kept], values[kept], at[kept]
        by_key = np.argsort(key)
        if j == 0:
            lo = self.stored[-1].stop if self.stored else 0
            self.stored.append(slice(lo, lo + len(key)))
            np.take(key, by_key, out=self.keys[self.stored[-1]])
            np.take(at, by_key, out=self.src[self.stored[-1]])
            return True
        del at
        ref_keys, ref_src = self.keys[self.stored[r]], self.src[self.stored[r]]
        if not np.array_equal(key.take(by_key), ref_keys):
            return False
        del key
        deviation = values.take(by_key)
        deviation -= matrix.data.take(ref_src)
        return np.max(np.abs(deviation, out=deviation), initial=0.0) <= self.tol

    def _read_globals(self) -> bool:
        """The global columns: each must hold the same values at the same
        in-column positions of every x-column.  Their entries become the
        right border w (m x g) of mode 0 and its corner."""
        matrix, cols = self.matrix, self.matrix.columns
        nx, m, g = self.nx, self.m, self.n_global
        self.w, self.corner = np.zeros((m, g)), np.zeros((g, g))
        for k, col in enumerate(cols.globals.tolist()):
            rows = slice(matrix.indptr[col], matrix.indptr[col + 1])
            s, values = cols.slot[matrix.indices[rows]], matrix.data[rows]
            kept = np.abs(values) > self.tol
            s, values = s[kept], values[kept]
            on_global = s >= nx * m
            self.corner[s[on_global] - nx * m, k] = values[on_global]
            p, i = np.divmod(s[~on_global], nx)
            values = values[~on_global]
            first = i == 0
            self.w[p[first], k] = values[first]
            present = np.zeros(m, dtype=bool)
            present[p[first]] = True
            if len(p) != nx * np.count_nonzero(first) or not present[p].all():
                return False
            if np.max(np.abs(self.w[p, k] - values), initial=0.0) > self.tol:
                return False
        return True

    def _pattern(self) -> tuple:
        """From the sorted keys, which are then released: the m x m pattern
        (indptr, indices) shared by the modes, and what forms its values from
        x-column 0's entries, in pattern order: column q's entries start at
        entry[q], entry e lies at src[e] in the matrix's arrays and has the
        shift shifts[shift[e]], and pattern entry i sums run[i] of them; and
        the lower border wt (g x m) of mode 0."""
        nx, m, g = self.nx, self.m, self.n_global
        pair = self.keys // nx  # q (m + g) + row
        row = pair % (m + g)
        local = row < m
        on_global = ~local
        below = scipy.sparse.csc_matrix(
            (
                self.matrix.data[self.src[on_global]],
                (row[on_global] - m, pair[on_global] // (m + g)),
            ),
            shape=(g, m),
        )
        del row, on_global
        shift = self.keys[local] % nx
        self.keys = None
        present = np.zeros(nx, dtype=bool)
        present[shift] = True
        shifts = np.flatnonzero(present)
        shift = (np.cumsum(present) - 1).astype(_small(len(shifts))).take(shift)
        src, pair = self.src[local], pair[local]
        self.src = None
        del local
        entry = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair // (m + g), minlength=m), out=entry[1:])
        new = np.empty(len(pair), dtype=bool)
        new[0] = True
        np.not_equal(pair[1:], pair[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        del new
        run = np.diff(np.append(starts, len(pair))).astype(_small(nx + 1))
        q, rows = np.divmod(pair[starts], m + g)
        del pair, starts
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(q, minlength=m), out=indptr[1:])
        return (indptr, rows.astype(self.index)), (entry, src, run), shifts, shift, below

    def modes(self):
        """Yield (k, matrix) for each mode k = 0..nx // 2, one at a time, the
        real ones first: the symbol sum_d C_d exp(-i theta_k d), theta_k =
        2 pi k / nx, real at k = 0 and k = nx / 2.  Mode 0 is bordered by the
        global rows as [[A_0, w], [wt, corner / nx]]: with the
        forward-normalized transform its unknowns are the column mean and the
        global unknowns themselves.  The complex modes share one data array,
        which SuperLU copies."""
        nx, m = self.nx, self.m
        (indptr, indices), (entry, src, run), shifts, shift, below = self._pattern()
        values = self.matrix.data
        ranges = _ranges(entry, _step(self.matrix, _SYMBOL_STEP))
        signed = np.where(shifts > nx // 2, shifts - nx, shifts)  # d = nx - 1 is the left neighbor

        def symbol(phase: np.ndarray | None, out: np.ndarray) -> np.ndarray:
            """out[i] = the sum of v phase[shift] over the x-column-0 entries v
            of pattern entry i."""
            for q0, q1 in ranges:
                e0, e1, i0, i1 = entry[q0], entry[q1], indptr[q0], indptr[q1]
                v = values.take(src[e0:e1])
                if phase is not None:
                    v *= phase.take(shift[e0:e1])
                starts = np.zeros(i1 - i0, dtype=np.int64)
                np.cumsum(run[i0 : i1 - 1], out=starts[1:])
                out[i0:i1] = np.add.reduceat(v, starts)
            return out

        npat = len(indices)
        mode = CscMatrix(m, m, indptr, indices, symbol(None, np.empty(npat)))
        mode = bordered(mode, self.w, below, self.corner / nx).to_scipy()
        yield 0, mode
        del mode
        if nx % 2 == 0 and nx > 1:
            sign = np.where(signed % 2 == 0, 1.0, -1.0)
            yield nx // 2, scipy.sparse.csc_matrix((symbol(sign, np.empty(npat)), indices, indptr))
        data = np.empty(npat, dtype=complex)
        for k in range(1, (nx + 1) // 2):
            theta = 2.0 * np.pi * k * signed / nx
            symbol(np.cos(theta), data.real)
            symbol(-np.sin(theta), data.imag)
            yield k, scipy.sparse.csc_matrix((data, indices, indptr), shape=(m, m))


class _FourierModes:
    """The LU factors of the Fourier modes k = 0..nx // 2 along x of an
    x-shift-invariant matrix, behind SuperLU's solve(b) and nnz."""

    def __init__(self, columns: XColumns, factors: list):
        self.columns, self.factors = columns, factors
        self.nnz = sum(lu.nnz for lu in factors)

    def solve(self, b: np.ndarray) -> np.ndarray:
        cols = self.columns
        nx, m = cols.order.shape
        block = b.reshape(len(b), -1)
        # forward-normalized: mode 0 is the column mean
        modes = np.fft.rfft(block[cols.order], axis=0, norm="forward")  # (nx // 2 + 1, m, k)
        glob = block[cols.globals] / nx
        for k, lu in enumerate(self.factors):
            if k == 0:
                x0 = lu.solve(np.vstack([modes[0].real, glob]))
                modes[0], glob = x0[:m], x0[m:]
            elif 2 * k == nx:
                modes[k] = lu.solve(np.ascontiguousarray(modes[k].real))
            else:
                modes[k] = lu.solve(modes[k])
        x = np.empty(block.shape)
        x[cols.order] = np.fft.irfft(modes, n=nx, axis=0, norm="forward")
        x[cols.globals] = glob
        return x.reshape(b.shape)


def _factor_modes(matrix: CscMatrix) -> _FourierModes | None:
    """The per-mode factors, or None when the matrix does not repeat from
    x-column to x-column."""
    with _phase("the x-shift invariance check", matrix):
        symbol = _ShiftSymbol(matrix)
    if not symbol.invariant:
        return None
    factors = [None] * (symbol.nx // 2 + 1)
    modes = symbol.modes()
    for _ in factors:
        with _phase("forming a Fourier mode's matrix (X-FOURIER)", matrix):
            k, mode = next(modes)
        with _phase(f"the factorization of Fourier mode {k} (X-FOURIER)", matrix):
            factors[k] = _splu(mode, MODE_ORDERING)
        del mode
    return _FourierModes(matrix.columns, factors)


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
        pivots, ordering = sum(map(_pivots, lu.factors)), X_FOURIER
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
