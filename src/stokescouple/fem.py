"""Taylor-Hood (P2/P1) assembly for the two-layer Stokes problem.

Each layer gets its own mixed space on its half of the mesh, with the
interface trace nodes duplicated between the layers.  The two-layer system
is one reduction over both layers at every friction coefficient
(`assemble_coupled_system`): the continuity limit identifies the two
horizontal traces in it, and friction borders it once with an
interface-traction multiplier.  The single-layer half-steps start from one
layer with free tangential traction at the interface
(`assemble_robin_subproblem`), which the Dirichlet half-step borders with
its trace constraint.  Every border [[A, B^T], [B, C]] is written in place
in compressed columns.  The viscous form is the grad-grad form
nu * integral(grad u : grad v), not the symmetric-gradient form.  The
viscous, divergence and mass element kernels are computed once per cell
shape, the cells grouped by the bits of their Jacobians (two shapes per
layer on the layered mesh), and gathered onto the cells.

Velocity dofs are numbered 2*node + component with P2 nodes sorted
lexicographically by coordinates (x, then z); pressure dofs follow the same
convention on vertices.  Constraints (wall Dirichlet, interface
no-penetration, x-periodicity, continuity identification) are eliminated
symmetrically through a 0/1 reduction operator C, and every eliminated dof is
zero.  The reduced system is C^T A C augmented with one integral-mean
pressure-gauge row per layer, not multiplied but scattered: each layer
block's CSR arrays map through C's raw -> reduced index map in turn, and
the live entries make one COO -> CSC conversion.
The reduced unknowns are numbered velocity first, then pressure, and each
field x-column-major: by the cell column in x of the node, then z, kind
and x.  The gauge rows follow, and a border's rows come last, trace dof j
in cell column j // 2.  So a shift by one cell column adds a fixed stride
to each row of a field or a border, and each assembled matrix records the
strides (`linalg.XColumns`).  On the layered mesh every column is the same,
so `linalg.factorize` factors the system one Fourier mode along x at a
time, in the in-column order (z, kind, x); on any other mesh it factors it
whole, under SuperLU's minimum-degree order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .linalg import CscMatrix, XColumns, bordered
from .mesh import Mesh, Subdomain

__all__ = [
    "BodyForce",
    "MixedSpace",
    "StokesOperator",
    "DofLayout",
    "SparseSystem",
    "build_space",
    "periodic_fold",
    "assemble_stokes",
    "assemble_interface_friction",
    "assemble_coupled_system",
    "assemble_robin_subproblem",
    "assemble_dirichlet_subproblem",
]

# ---------------------------------------------------------------------------
# quadrature: degree-4 six-point triangle rule and 3-point Gauss on segments.
# Both are exact for every constant-coefficient integrand assembled here
# (P2 stiffness and mass are degree <= 4, trace mass is degree 4 on segments).

_TRI_A1 = 0.445948490915965
_TRI_A2 = 0.091576213509771
_TRI_W1 = 0.223381589678011
_TRI_W2 = 0.109951743655322
# barycentric coordinates (lambda0, lambda1, lambda2), weights sum to 1
_TRI_POINTS = np.array(
    [
        [1.0 - 2.0 * _TRI_A1, _TRI_A1, _TRI_A1],
        [_TRI_A1, 1.0 - 2.0 * _TRI_A1, _TRI_A1],
        [_TRI_A1, _TRI_A1, 1.0 - 2.0 * _TRI_A1],
        [1.0 - 2.0 * _TRI_A2, _TRI_A2, _TRI_A2],
        [_TRI_A2, 1.0 - 2.0 * _TRI_A2, _TRI_A2],
        [_TRI_A2, _TRI_A2, 1.0 - 2.0 * _TRI_A2],
    ]
)
_TRI_WEIGHTS = np.array([_TRI_W1, _TRI_W1, _TRI_W1, _TRI_W2, _TRI_W2, _TRI_W2])

_SEG_POINTS = np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)])
_SEG_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _p2_values(lam: np.ndarray) -> np.ndarray:
    """P2 shape functions at barycentric points lam (nq, 3) -> (nq, 6).

    Local node order: vertices 0,1,2 then edge midpoints (01), (12), (20).
    """
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    return np.column_stack(
        [
            l0 * (2.0 * l0 - 1.0),
            l1 * (2.0 * l1 - 1.0),
            l2 * (2.0 * l2 - 1.0),
            4.0 * l0 * l1,
            4.0 * l1 * l2,
            4.0 * l2 * l0,
        ]
    )


def _p2_reference_grads(lam: np.ndarray) -> np.ndarray:
    """Gradients w.r.t. reference coordinates (xi, eta) -> (nq, 6, 2)."""
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # grad of lambda_i
    nq = lam.shape[0]
    g = np.zeros((nq, 6, 2))
    for i in range(3):
        g[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * dl[i]
    pairs = [(0, 1), (1, 2), (2, 0)]
    for k, (a, b) in enumerate(pairs):
        g[:, 3 + k, :] = 4.0 * (lam[:, a][:, None] * dl[b] + lam[:, b][:, None] * dl[a])
    return g


def _seg_values(xi: np.ndarray) -> np.ndarray:
    """Quadratic shape functions on a segment, node order (left, right, mid)."""
    return np.column_stack(
        [(1.0 - xi) * (1.0 - 2.0 * xi), xi * (2.0 * xi - 1.0), 4.0 * xi * (1.0 - xi)]
    )


# ---------------------------------------------------------------------------
# body force


@dataclass(frozen=True)
class BodyForce:
    """Body force for one layer: constants (fx, fz), or a vectorized
    per-point evaluator (x, z) -> (fx, fz) overriding them."""

    fx: float = 0.0
    fz: float = 0.0
    evaluator: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def sample(self, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.evaluator is not None:
            fx, fz = self.evaluator(x, z)
            return np.broadcast_to(fx, x.shape), np.broadcast_to(fz, x.shape)
        return (np.full_like(x, self.fx), np.full_like(x, self.fz))


# ---------------------------------------------------------------------------
# mixed space


@dataclass(frozen=True)
class MixedSpace:
    """Per-layer Taylor-Hood space with its constraint table.

    velocity_nodes / pressure_nodes hold coordinates in lexicographic (x, z)
    order; velocity dof = 2*node + component.  Constraints: `dirichlet_vdofs`
    are zero-velocity dofs (walls: both components; interface: vertical
    component), `periodic_*` are (slave, master) dof pairs identifying x = L
    with x = 0, and every space carries one zero-mean pressure gauge.
    """

    subdomain: Subdomain
    velocity_nodes: np.ndarray      # (nv, 2)
    pressure_nodes: np.ndarray      # (np, 2)
    velocity_cells: np.ndarray      # (nt, 6)
    pressure_cells: np.ndarray      # (nt, 3)
    dirichlet_vdofs: np.ndarray     # sorted velocity dofs pinned to zero
    periodic_vdofs: np.ndarray      # (k, 2) velocity (slave, master)
    periodic_pdofs: np.ndarray      # (k, 2) pressure (slave, master)
    interface_nodes: np.ndarray     # velocity node ids on z = 0, ascending x

    @property
    def n_velocity_dofs(self) -> int:
        return 2 * len(self.velocity_nodes)

    @property
    def n_pressure_dofs(self) -> int:
        return len(self.pressure_nodes)

    @property
    def interface_x(self) -> np.ndarray:
        return self.velocity_nodes[self.interface_nodes, 0]


def build_space(mesh: Mesh, subdomain: Subdomain) -> MixedSpace:
    """Build the layer's P2/P1 space with deterministic dof numbering."""
    geom = mesh.geometry
    tris = mesh.triangles[mesh.triangle_subdomain == subdomain]
    if len(tris) == 0:
        raise ValueError(f"mesh has no triangles in subdomain {subdomain.name}")

    # pressure (P1) nodes: the layer's vertices, lexicographic by (x, z)
    vused = np.unique(tris)
    pcoords = mesh.vertices[vused]
    perm_p = np.lexsort((pcoords[:, 1], pcoords[:, 0]))
    rank_p = np.empty(len(vused), dtype=np.int64)
    rank_p[perm_p] = np.arange(len(vused))
    pressure_nodes = pcoords[perm_p]
    local_of_vertex = rank_p[np.searchsorted(vused, tris)]
    pressure_cells = local_of_vertex.reshape(tris.shape)

    # velocity (P2) nodes: vertices plus one node per unique edge
    edge_sets = np.stack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]], axis=1)
    edges = np.sort(edge_sets.reshape(-1, 2), axis=1)
    n_vertices = len(mesh.vertices)  # (a, b) -> a * n_vertices + b keeps the (a, b) order
    edge_keys, edge_inverse = np.unique(edges[:, 0] * n_vertices + edges[:, 1], return_inverse=True)
    ends_a, ends_b = np.divmod(edge_keys, n_vertices)
    mid_coords = 0.5 * (mesh.vertices[ends_a] + mesh.vertices[ends_b])
    raw_coords = np.vstack([pcoords, mid_coords])
    perm_v = np.lexsort((raw_coords[:, 1], raw_coords[:, 0]))
    rank_v = np.empty(len(raw_coords), dtype=np.int64)
    rank_v[perm_v] = np.arange(len(raw_coords))
    velocity_nodes = raw_coords[perm_v]
    cells_raw = np.hstack([np.searchsorted(vused, tris), len(vused) + edge_inverse.reshape(-1, 3)])
    velocity_cells = rank_v[cells_raw]

    x, z = velocity_nodes[:, 0], velocity_nodes[:, 1]
    wall_z = geom.z_plus if subdomain == Subdomain.UPPER else geom.z_minus
    wall = np.nonzero(z == wall_z)[0]
    iface = np.nonzero(z == 0.0)[0]  # already ascending in x (lexicographic)
    dirichlet = np.sort(np.concatenate([2 * wall, 2 * wall + 1, 2 * iface + 1]))

    def periodic_pairs(coords: np.ndarray) -> np.ndarray:
        cx, cz = coords[:, 0], coords[:, 1]
        left = np.nonzero(cx == 0.0)[0]
        left = left[np.argsort(cz[left], kind="stable")]
        slaves = np.nonzero(cx == geom.length)[0]
        # the last x = 0 node at or below each slave's z; it must be at it
        at = np.searchsorted(cz[left], cz[slaves], side="right") - 1
        found = at >= 0
        found[found] = cz[left[at[found]]] == cz[slaves[found]]
        if not found.all():
            raise ValueError("periodic boundary nodes do not match between x=0 and x=L")
        return np.column_stack([slaves, left[at]])

    pv = periodic_pairs(velocity_nodes)
    periodic_v = np.vstack([np.column_stack([2 * pv[:, 0] + c, 2 * pv[:, 1] + c]) for c in (0, 1)])
    periodic_v = periodic_v[np.argsort(periodic_v[:, 0])]
    periodic_p = periodic_pairs(pressure_nodes)

    return MixedSpace(
        subdomain=subdomain,
        velocity_nodes=velocity_nodes,
        pressure_nodes=pressure_nodes,
        velocity_cells=velocity_cells,
        pressure_cells=pressure_cells,
        dirichlet_vdofs=dirichlet,
        periodic_vdofs=periodic_v,
        periodic_pdofs=periodic_p,
        interface_nodes=iface,
    )


# ---------------------------------------------------------------------------
# element assembly


def _cell_geometry(space: MixedSpace):
    pts = space.velocity_nodes[space.velocity_cells[:, :3]]  # (nt, 3, 2)
    return (pts, *_inverse_jacobian(_edge_vectors(pts)))


def _edge_vectors(pts: np.ndarray) -> np.ndarray:
    """Rows (x1 - x0, z1 - z0, x2 - x0, z2 - z0) of the cells' vertices pts
    (nt, 3, 2): the Jacobians' entries j11, j21, j12, j22."""
    return np.hstack([pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]])


def _inverse_jacobian(edges: np.ndarray):
    """Inverse Jacobians (n, 2, 2) and determinants of cells with edge vectors
    `edges` (`_edge_vectors`)."""
    j11, j21, j12, j22 = edges.T
    det = j11 * j22 - j12 * j21
    inv_j = np.stack([j22, -j12, -j21, j11], axis=1).reshape(-1, 2, 2) / det[:, None, None]
    return inv_j, det


def _cell_shapes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the cells by the bit patterns of their edge vectors (rows of
    `edges`): the cells of a group have one Jacobian, so one element kernel.
    Returns the first cell of each group and the group of each cell."""
    bits = edges.view(np.int64)
    order = np.lexsort(bits.T)
    bits = bits[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return order[first], group


def _index_type(n: int) -> type:
    """scipy's index type for dimension n: triplets built in it need no copy."""
    return np.int32 if n < 2**31 else np.int64


def _scatter(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape) -> scipy.sparse.csr_matrix:
    """CSR matrix summing the (row, col, value) triplets, broadcast together."""
    index = _index_type(max(shape))
    rows, cols = rows.astype(index, copy=False), cols.astype(index, copy=False)
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    return scipy.sparse.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def _per_component(scalar: scipy.sparse.csr_matrix, *data: np.ndarray) -> list:
    """kron(scalar, I_2) with entries each of `data`, built directly: on the
    vector dofs 2 i + c, row 2 i + c holds scalar row i at columns 2 j + c.
    The pattern is computed once, and each matrix holds a copy of it."""
    n, index = scalar.shape[0], _index_type(2 * scalar.shape[0])
    indptr = np.empty(2 * n + 1, dtype=index)
    indptr[0::2], indptr[1::2] = 2 * scalar.indptr, scalar.indptr[:-1] + scalar.indptr[1:]
    first = np.repeat(np.arange(2 * n) % 2 == 0, np.diff(indptr))  # the c = 0 entries
    second = ~first
    indices = np.empty(len(first), dtype=index)
    cols = 2 * scalar.indices.astype(index)
    indices[first], indices[second] = cols, cols + 1
    out = []
    for k, values in enumerate(data):
        entries = np.empty(len(first))
        entries[first] = entries[second] = values
        pattern = (indices, indptr) if k == 0 else (indices.copy(), indptr.copy())
        out.append(scipy.sparse.csr_matrix((entries, *pattern), shape=(2 * n, 2 * n)))
    return out


@dataclass(frozen=True)
class StokesOperator:
    """Raw (unconstrained) per-layer operators.

    viscous is nu times the grad-grad matrix on vector P2 dofs.  divergence
    maps pressure to velocity test space with the sign of -(p, div v); the
    pressure equation uses its transpose.  gauge is the vector of P1 basis
    integrals for the zero-mean pressure constraint.
    """

    space: MixedSpace
    nu: float
    viscous: scipy.sparse.csr_matrix
    divergence: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix
    load: np.ndarray
    gauge: np.ndarray


def _element_kernels(inv_j: np.ndarray, area_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Viscous (6, 6, n) and divergence (6, 2, 3, n) element kernels of n
    cells with inverse Jacobians inv_j and areas area_w.  The divergence
    kernel is [i, c, j] = -sum_q w_q psi_j dphi_i/dx_c.

    The kernels keep the cells on the last, contiguous axis and sum the
    quadrature points in order with separately rounded products.  A BLAS
    product (other order, fused multiply-adds) leaves 1e-19 residues where
    an integral vanishes, which would stay in the sparsity and LU fill.
    """
    p2g = _p2_reference_grads(_TRI_POINTS)  # (nq, 6, 2)
    ij = np.ascontiguousarray(inv_j.transpose(1, 2, 0))  # (2, 2, n)
    k_local = np.zeros((6, 6, len(area_w)))
    b_local = np.zeros((6, 2, 3, len(area_w)))
    for q, w in enumerate(_TRI_WEIGHTS):
        # physical gradients at point q: g[c, i] = dphi_i/dx_c
        g = p2g[q, None, :, 0, None] * ij[0, :, None] + p2g[q, None, :, 1, None] * ij[1, :, None]
        gw = g * w
        k_local += gw[0, :, None] * g[0] + gw[1, :, None] * g[1]
        b_local -= gw.transpose(1, 0, 2)[:, :, None] * _TRI_POINTS[q, :, None]
    k_local *= area_w
    b_local *= area_w
    return k_local, b_local


def assemble_stokes(space: MixedSpace, nu: float, force: BodyForce) -> StokesOperator:
    """The layer's raw operators.  The viscous, divergence and mass kernels
    depend on a cell only through its Jacobian, so they are computed once
    per cell shape (`_cell_shapes`: two per layer on the layered mesh) and
    gathered onto the cells; the load, whose force may vary, is integrated
    on every cell."""
    if not (np.isfinite(nu) and nu > 0.0):
        raise ValueError(f"viscosity must be positive and finite, got {nu}")
    tri_pts = space.velocity_nodes[space.velocity_cells[:, :3]]  # (nt, 3, 2)
    nt = len(tri_pts)
    nv, npn = len(space.velocity_nodes), len(space.pressure_nodes)
    n_vdofs = 2 * nv
    p2v = _p2_values(_TRI_POINTS)  # (nq, 6)
    p1v = _TRI_POINTS  # (nq, 3)

    # the kernels of each cell shape, gathered onto its cells
    edges = _edge_vectors(tri_pts)
    first, group = _cell_shapes(edges)
    inv_j, det = _inverse_jacobian(edges[first])
    area_w = 0.5 * det  # positive areas for counter-clockwise cells
    k_local, b_local = _element_kernels(inv_j, area_w)
    m_ref = np.einsum("q,qi,qj->ij", _TRI_WEIGHTS, p2v, p2v)
    km = (k_local.transpose(2, 0, 1) + 1j * (m_ref * area_w[:, None, None])).take(group, axis=0)
    b_local = b_local.transpose(3, 0, 1, 2).reshape(-1, 12, 3).take(group, axis=0)
    area_w = area_w.take(group)

    # the load on every cell, summed in the kernels' order
    pts = np.ascontiguousarray(tri_pts.transpose(1, 2, 0))  # (3, 2, nt)
    xq = p1v[:, 0, None, None] * pts[0] + p1v[:, 1, None, None] * pts[1]
    xq += p1v[:, 2, None, None] * pts[2]  # (nq, 2, nt) physical points
    f = np.stack(force.sample(xq[:, 0], xq[:, 1]))  # (2, nq, nt)
    l_local = np.zeros((6, 2, nt))
    for q, w in enumerate(_TRI_WEIGHTS):
        l_local += (w * f[:, q]) * p2v[q, :, None, None]
    l_local *= area_w

    cv, cp = space.velocity_cells, space.pressure_cells
    comp = np.arange(2)
    vdofs = (2 * cv[:, :, None] + comp).reshape(nt, 12)  # local vector dof 2 i + c

    # viscous and mass act on each component alike: one COO -> CSR over the
    # scalar (node, node) pairs sums both (complex data, real: K, imag: M),
    # and both are then laid onto the vector dofs by one pattern
    both = _scatter(cv[:, :, None], cv[:, None, :], km, (nv, nv))
    del km
    viscous, mass = _per_component(both, nu * both.data.real, both.data.imag)
    del both

    divergence = _scatter(vdofs[:, :, None], cp[:, None, :], b_local, (n_vdofs, npn))
    divergence.eliminate_zeros()  # entries that cancel exactly, as a sparse sum drops them
    load = np.bincount(vdofs.ravel(), l_local.transpose(2, 0, 1).ravel(), n_vdofs)
    g_local = np.einsum("q,qj->j", _TRI_WEIGHTS, p1v)[None, :] * area_w[:, None]
    gauge = np.bincount(cp.ravel(), g_local.ravel(), npn)

    return StokesOperator(
        space=space,
        nu=nu,
        viscous=viscous,
        divergence=divergence,
        mass=mass,
        load=load,
        gauge=gauge,
    )


def _interface_x(space_upper: MixedSpace, space_lower: MixedSpace) -> np.ndarray:
    """The x of the interface nodes, ascending, checked to be the same in
    both layers and to interleave vertices and midpoints."""
    x = space_upper.interface_x
    if not np.array_equal(x, space_lower.interface_x):
        raise ValueError("interface discretizations of the two layers do not match")
    if len(x) < 3 or len(x) % 2 == 0:
        raise ValueError("interface node list must interleave vertices and midpoints")
    return x


def assemble_interface_friction(
    space_upper: MixedSpace, space_lower: MixedSpace
) -> scipy.sparse.csr_matrix:
    """Quadratic trace mass matrix M of the interface z = 0, over the
    interface nodes in ascending x (vertices interleaved with midpoints).

    The friction law couples the horizontal traces through M: the penalty
    form is alpha (u_upper - u_lower)^T M (v_upper - v_lower), and the
    friction system's multiplier border is built from it.  Both layers must
    share the interface discretization.
    """
    x = _interface_x(space_upper, space_lower)
    n = len(x)
    left = np.arange(0, n - 2, 2)
    seg = np.column_stack([left, left + 2, left + 1])  # (ns, 3): a, b, mid
    lengths = x[left + 2] - x[left]
    nvals = _seg_values(_SEG_POINTS)  # (3, 3)
    m_ref = np.einsum("q,qi,qj->ij", _SEG_WEIGHTS, nvals, nvals)
    local = m_ref[None, :, :] * lengths[:, None, None]
    return _scatter(seg[:, :, None], seg[:, None, :], local, (n, n))


def periodic_fold(n_trace: int) -> scipy.sparse.csr_matrix:
    """The periodic fold P, (n_trace, n_trace - 1): the trace at x = L repeats
    the one at x = 0, the same solved unknown."""
    return scipy.sparse.csr_matrix(
        (np.ones(n_trace), (np.arange(n_trace), np.append(np.arange(n_trace - 1), 0))),
        shape=(n_trace, n_trace - 1),
    )


# ---------------------------------------------------------------------------
# constraint reduction


def _reduction(
    n_raw: int, pairs: np.ndarray, fixed: np.ndarray, key: tuple
) -> tuple[scipy.sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Eliminate identified and zero-Dirichlet raw dofs.

    pairs (k, 2) identifies raw dofs; the classes are the connected
    components of that graph.  A class with a member in `fixed` is dropped:
    every member is zero.  Every other class becomes one reduced column,
    represented by its smallest raw index, and the columns are numbered in
    ascending order of the representatives' `key` (arrays over the raw
    dofs, the last one first, as np.lexsort).  Returns the 0/1 reduction
    operator C (raw x reduced), the raw -> reduced column map (-1 where
    dropped) and each reduced column's representative raw dof.
    """
    graph = scipy.sparse.coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n_raw, n_raw)
    )
    n_class, label = scipy.sparse.csgraph.connected_components(graph, directed=False)
    class_dropped = np.zeros(n_class, dtype=bool)
    class_dropped[label[fixed]] = True
    dropped = class_dropped[label]

    _, smallest = np.unique(label, return_index=True)
    kept = smallest[~class_dropped]
    kept = kept[np.lexsort([k[kept] for k in key])]
    class_col = np.full(n_class, -1, dtype=np.int64)
    class_col[label[kept]] = np.arange(len(kept))
    col_of = class_col[label]

    # C in CSR: raw row r holds a 1 at column col_of[r] unless it is dropped
    index = _index_type(max(n_raw, len(kept)))
    indptr = np.zeros(n_raw + 1, dtype=index)
    np.cumsum(~dropped, out=indptr[1:])
    c = scipy.sparse.csr_matrix(
        (np.ones(indptr[-1]), col_of[~dropped].astype(index), indptr), shape=(n_raw, len(kept))
    )
    return c, col_of, kept


_FIELD_VELOCITY = "velocity"
_FIELD_PRESSURE = "pressure"


@dataclass(frozen=True)
class DofLayout:
    """Raw-block layout plus the reduction taking raw dofs to solved rows.

    Solved vector = [reduced dofs, one gauge multiplier per layer].
    `columns` places the solved rows on the mesh's cell columns in x (see
    `_x_columns`; None on a mesh whose columns differ), and `sites` holds the
    (z, kind, x offset) of each block position, by which the rows of a
    border are merged into the in-column order (`_with_multipliers`).
    """

    spaces: dict
    offsets: dict           # (subdomain, field) -> raw offset
    n_raw: int
    reduction: scipy.sparse.csr_matrix = field(repr=False)
    col_of: np.ndarray = field(repr=False)
    gauge_subdomains: tuple
    columns: XColumns | None = field(default=None, repr=False)
    sites: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_reduced(self) -> int:
        return self.reduction.shape[1]

    @property
    def n_gauge(self) -> int:
        return len(self.gauge_subdomains)

    @property
    def n_rows(self) -> int:
        return self.n_reduced + self.n_gauge

    def trace_map(self, sub: Subdomain) -> scipy.sparse.csr_matrix:
        """Solved vector -> horizontal velocity at `sub`'s interface nodes,
        ascending x: the interface rows of the reduction, zero on the gauge
        columns."""
        cols = self.col_of[_interface_dofs(self.offsets, self.spaces[sub])]
        rows = np.nonzero(cols >= 0)[0]
        shape = (len(cols), self.n_rows)
        return scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols[rows])), shape=shape)

    def expand(self, x: np.ndarray) -> dict:
        """Split a solved vector into raw per-(subdomain, field) vectors with
        constraints materialized; gauge multipliers under ('gauge', subdomain)."""
        raw = self.reduction @ x[: self.n_reduced]
        out = {}
        for (sub, fieldname), off in self.offsets.items():
            size = (
                2 * len(self.spaces[sub].velocity_nodes)
                if fieldname == _FIELD_VELOCITY
                else len(self.spaces[sub].pressure_nodes)
            )
            out[(sub, fieldname)] = raw[off : off + size]
        for k, sub in enumerate(self.gauge_subdomains):
            out[("gauge", sub)] = x[self.n_reduced + k]
        return out


@dataclass(frozen=True)
class SparseSystem:
    """Assembled, constraint-reduced linear system with its dof layout.  The
    layout describes the leading rows; the rows of a border (interface
    multipliers) follow them, and `layout.expand` ignores them."""

    matrix: CscMatrix
    rhs: np.ndarray
    layout: DofLayout


def _interface_dofs(offsets: dict, space: MixedSpace) -> np.ndarray:
    """Raw indices of the horizontal velocity at the interface nodes."""
    return offsets[(space.subdomain, _FIELD_VELOCITY)] + 2 * space.interface_nodes


# The in-column kind of a solved row: 3 subdomain + component for velocity,
# 3 subdomain + 2 for pressure, and this for an interface multiplier.
_TRACE_KIND = 6


def _x_columns(col: np.ndarray, sites: np.ndarray, field: np.ndarray, nx: int, n_global: int):
    """The cell columns of the solved rows 0..len(col)-1, numbered field by
    field (velocity, then pressure: field[i] is whether row i is a pressure
    row) and x-column-major within a field: col[i] is the cell column of row
    i and sites[i] its (z, kind, x offset), ascending within a column of a
    field.  n_global global rows (the gauges) follow.

    Each field is a block of the `XColumns` when every column holds the
    same sites of it.  The in-column order sorts the sites of both blocks,
    so that each Fourier mode of a shift-invariant matrix is banded in it.
    Returns the `XColumns` and the sites of the block positions, or (None,
    None) when the columns differ.
    """
    blocks, n_velocity = [], len(field) - np.count_nonzero(field)
    for rows in (slice(0, n_velocity), slice(n_velocity, len(field))):
        if (rows.stop - rows.start) % nx or not (col[rows].reshape(nx, -1) == np.arange(nx)[:, None]).all():
            return None, None
        at = sites[rows].reshape(nx, -1, 3)
        if not (at[..., :2] == at[:1, :, :2]).all():
            return None, None
        blocks.append((rows.start, at[0]))
    sites = np.concatenate([at for _, at in blocks])
    blocks = tuple((start, len(at)) for start, at in blocks)
    order = np.lexsort(sites.T[::-1])  # z, kind, x offset
    return XColumns(nx, blocks, order, len(col) + np.arange(n_global)), sites


def _build_layout(spaces: list[MixedSpace], identify_traces: bool = False) -> DofLayout:
    """The layers' raw blocks one after the other, velocity then pressure,
    with every layer's periodic identification and zero velocity dofs;
    `identify_traces` also identifies the layers' horizontal interface
    traces (the continuity limit).

    The solved rows are numbered velocity first, then pressure, and within
    a field x-column-major: by the cell column in x of their node (the
    column of the last vertex line at or left of it, x = L folded onto
    x = 0), then z, then kind, then x."""
    offsets, n_raw = {}, 0
    for sp in spaces:
        offsets[(sp.subdomain, _FIELD_VELOCITY)] = n_raw
        offsets[(sp.subdomain, _FIELD_PRESSURE)] = n_raw + sp.n_velocity_dofs
        n_raw += sp.n_velocity_dofs + sp.n_pressure_dofs
    pairs = [np.column_stack([_interface_dofs(offsets, sp) for sp in spaces])] if identify_traces else []
    fixed = []
    coords, pressure = np.empty((n_raw, 2)), np.zeros(n_raw, dtype=bool)  # each raw dof's node
    kind = np.empty(n_raw, dtype=np.int8)
    for sp in spaces:
        ov = offsets[(sp.subdomain, _FIELD_VELOCITY)]
        op = offsets[(sp.subdomain, _FIELD_PRESSURE)]
        pairs += [ov + sp.periodic_vdofs, op + sp.periodic_pdofs]
        fixed.append(ov + sp.dirichlet_vdofs)
        coords[ov : ov + sp.n_velocity_dofs] = np.repeat(sp.velocity_nodes, 2, axis=0)
        coords[op : op + sp.n_pressure_dofs] = sp.pressure_nodes
        pressure[op : op + sp.n_pressure_dofs] = True
        kind[ov : ov + sp.n_velocity_dofs] = 3 * sp.subdomain + np.arange(sp.n_velocity_dofs) % 2
        kind[op : op + sp.n_pressure_dofs] = 3 * sp.subdomain + 2
    lines = np.unique(coords[pressure, 0])  # the vertex lines, x = L last
    col = (np.searchsorted(lines, coords[:, 0], side="right") - 1).astype(np.int32)
    key = (coords[:, 0], kind, coords[:, 1], col, pressure)  # small types sort fast
    c, col_of, kept = _reduction(n_raw, np.vstack(pairs), np.concatenate(fixed), key)
    x, z = coords[kept].T
    sites = np.column_stack([z, kind[kept], x - lines[col[kept]]])
    columns, sites = _x_columns(col[kept], sites, pressure[kept], len(lines) - 1, len(spaces))
    return DofLayout(
        spaces={sp.subdomain: sp for sp in spaces},
        offsets=offsets,
        n_raw=n_raw,
        reduction=c,
        col_of=col_of,
        gauge_subdomains=tuple(sp.subdomain for sp in spaces),
        columns=columns,
        sites=sites,
    )


def _assemble_reduced(ops: list[StokesOperator], layout: DofLayout) -> SparseSystem:
    """C^T A C bordered by the gauge rows, in one scatter.  Each block of
    the layers' [[nu K, D], [D^T, 0]] and of the gauge border (whose
    multipliers take raw indices past the layers' dofs) maps its CSR arrays
    through `layout.col_of` in turn: the rows of its entries by repeating
    its rows' images over its row pointer, the columns by taking its
    columns' images.  Entries on a dropped row or column vanish, since
    every dropped dof is zero, and are dropped block by block.  The kept triplets,
    in the blocks' storage order, make one COO -> CSC conversion: the arrays
    SuperLU factors, which the system holds without a copy."""
    offsets = layout.offsets
    n_raw, n_red, n = layout.n_raw, layout.n_reduced, layout.n_rows
    index = np.concatenate([layout.col_of, n_red + np.arange(len(ops))]).astype(_index_type(n))
    b_raw = np.zeros(n_raw)
    rows, cols, vals = [], [], []

    def scatter(block: scipy.sparse.csr_matrix, r0: int, c0: int, transpose: bool = False) -> None:
        """Keep the live entries of block, at raw offset (r0, c0)."""
        r = np.repeat(index[r0 : r0 + block.shape[0]], np.diff(block.indptr))
        c = index[c0 : c0 + block.shape[1]].take(block.indices)
        live = (r >= 0) & (c >= 0)
        r, c, v = r[live], c[live], block.data[live]
        rows.append(r)
        cols.append(c)
        vals.append(v)
        if transpose:  # D^T: the same triplets, rows and columns swapped
            rows.append(c)
            cols.append(r)
            vals.append(v)

    for k, op in enumerate(ops):
        ov = offsets[(op.space.subdomain, _FIELD_VELOCITY)]
        op_ = offsets[(op.space.subdomain, _FIELD_PRESSURE)]
        b_raw[ov : ov + op.space.n_velocity_dofs] = op.load
        scatter(op.viscous, ov, ov)
        scatter(op.divergence, ov, op_, transpose=True)
        # gauge border: one zero-mean constraint per layer's pressure, the
        # raw column n_raw + k
        scatter(scipy.sparse.csr_matrix(op.gauge[:, None]), op_, n_raw + k, transpose=True)

    live = layout.col_of >= 0
    rhs = np.zeros(n)
    rhs[:n_red] = np.bincount(layout.col_of[live], b_raw[live], n_red)
    del b_raw, live
    # each array is joined, and its parts freed, before the next: the peak
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    matrix = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()  # canonical
    del rows, cols, vals
    matrix.eliminate_zeros()  # entries that cancel exactly, as the product C^T A C drops them
    matrix = CscMatrix(n, n, matrix.indptr, matrix.indices, matrix.data, layout.columns)
    return SparseSystem(matrix=matrix, rhs=rhs, layout=layout)


def _with_multipliers(system: SparseSystem, below, corner) -> SparseSystem:
    """`system` bordered by k interface multiplier rows on the periodic trace
    dofs, [[A, below^T], [below, corner]], their rhs zero.  The layout still
    describes the leading rows.  Trace dof j sits in cell column j // 2 (a
    vertex and a midpoint per column), so the multiplier rows are one more
    x-column-major block, two rows per column, merged into the in-column
    order by their sites."""
    layout, k = system.layout, below.shape[0]
    columns = layout.columns
    if columns is not None and k == 2 * columns.nx:
        trace = np.array([[0.0, _TRACE_KIND, 0.0], [0.0, _TRACE_KIND, 1.0]])
        by_site = np.lexsort(np.concatenate([layout.sites, trace]).T[::-1])  # z, kind, x offset
        blocks = columns.blocks + ((layout.n_rows, 2),)
        columns = XColumns(columns.nx, blocks, by_site, columns.globals)
    else:
        columns = None
    matrix = bordered(system.matrix, below.T, below, corner, columns)
    return SparseSystem(matrix, np.concatenate([system.rhs, np.zeros(k)]), layout)


def assemble_coupled_system(
    op_upper: StokesOperator, op_lower: StokesOperator, alpha: float
) -> SparseSystem:
    """Assemble the two-layer system coupled by the friction law with
    coefficient 0 <= alpha <= inf.

    Every alpha starts from one reduction over both layers.  alpha = inf is
    the continuity limit: that reduction identifies the two horizontal
    interface traces.  alpha = 0 leaves the layers side by side, uncoupled.
    A finite alpha > 0 borders the uncoupled system A once with the
    interface traction lam = alpha * jump on the n_trace - 1 periodic trace
    dofs, J = T_upper - T_lower the jump of the layers' periodic trace maps:

        [[A, J^T M_p], [M_p J, -M_p / alpha]],

    with M_p = P^T M P the trace mass folded by the periodic fold P.  The
    last row gives lam = alpha * jump, so eliminating lam recovers the
    penalty matrix A + alpha J^T M_p J exactly, while every entry stays O(1)
    or O(1/alpha) instead of O(alpha).  The multiplier rows follow A's.
    """
    if not alpha >= 0.0:
        raise ValueError(f"friction coefficient must be >= 0 or inf, got {alpha}")
    spaces = [op_upper.space, op_lower.space]
    _interface_x(*spaces)  # at every alpha: the interfaces must match
    system = _assemble_reduced([op_upper, op_lower], _build_layout(spaces, np.isinf(alpha)))
    if alpha == 0.0 or np.isinf(alpha):
        return system
    fold = periodic_fold(len(spaces[0].interface_nodes))
    mass_p = (fold.T @ assemble_interface_friction(*spaces)) @ fold
    # B = M_p (T_upper - T_lower): T_sub less its x = L row takes the solved
    # vector to sub's periodic trace, one column per row, so each entry of
    # M_p lands on the upper trace's column and, negated, on the lower's
    layout, m = system.layout, mass_p.tocoo()
    trace = [layout.col_of[_interface_dofs(layout.offsets, sp)][:-1] for sp in spaces]
    cols = np.concatenate([trace[0][m.col], trace[1][m.col]])
    live = cols >= 0
    rows, vals = np.tile(m.row, 2)[live], np.concatenate([m.data, -m.data])[live]
    below = scipy.sparse.csr_matrix((vals, (rows, cols[live])), shape=(m.shape[0], layout.n_rows))
    return _with_multipliers(system, below, -mass_p / alpha)


# ---------------------------------------------------------------------------
# single-layer half-steps.  Each is affine in its interface data, which
# enters the rhs as E @ data: the matrix does not depend on it.  Each returns
# the system at zero data and the operator E (solved rows x data entries).


def assemble_robin_subproblem(
    op: StokesOperator,
) -> tuple[SparseSystem, scipy.sparse.csr_matrix]:
    """One layer with free tangential traction at the interface (alpha = 0),
    the system the single-layer half-steps are built on: the Dirichlet
    half-step borders it with its trace constraint
    (`assemble_dirichlet_subproblem`), and the alternating solver factors
    one per layer as the alpha-free core of its Robin half-steps.

    E = T_p^T takes a traction y on the n_trace - 1 periodic trace dofs to
    the rhs, with T_p the layout's `trace_map` less its x = L row (a repeat
    of x = 0).  The Robin half-step against the neighbor trace g is this
    system with the traction y = alpha P^T M (g - P T_p x): M the trace mass,
    P the periodic fold.
    """
    space = op.space
    layout = _build_layout([space])
    traction = layout.trace_map(space.subdomain)[:-1].T.tocsr()
    return _assemble_reduced([op], layout), traction


def assemble_dirichlet_subproblem(
    op: StokesOperator,
) -> tuple[SparseSystem, scipy.sparse.csr_matrix]:
    """One layer with the horizontal interface velocity prescribed pointwise:
    the half-step of the plain trace-swapping iteration.

    The layer's friction-free system A (`assemble_robin_subproblem`, with
    traction operator E = T_p^T) bordered by the constraint T_p x = g_p on
    the n_trace - 1 periodic trace dofs: [[A, E], [E^T, 0]], the multiplier
    being the interface traction.  The returned operator takes the full
    trace g, whose x = L entry must repeat x = 0, to the constraint rows.
    """
    system, traction = assemble_robin_subproblem(op)
    n, k = system.matrix.n_rows, traction.shape[1]
    rows = scipy.sparse.csr_matrix(
        (np.ones(k), (n + np.arange(k), np.arange(k))), shape=(n + k, k + 1)
    )
    return _with_multipliers(system, traction.T, scipy.sparse.csr_matrix((k, k))), rows
