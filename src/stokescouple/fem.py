"""Taylor-Hood (P2/P1) assembly for the two-layer Stokes problem.

Each layer gets its own mixed space on its half of the mesh; interface trace
nodes are duplicated between the layers and either left independent
(uncoupled mode, which the friction solve borders with an interface-traction
multiplier built from `DofLayout.trace_map`) or identified (continuity
mode).  The viscous form is the grad-grad form
nu * integral(grad u : grad v), not the symmetric-gradient form.

Velocity dofs are numbered 2*node + component with P2 nodes sorted
lexicographically by coordinates (x, then z); pressure dofs follow the same
convention on vertices.  Constraints (wall Dirichlet, interface
no-penetration, x-periodicity, continuity identification) are eliminated
symmetrically through a 0/1 reduction operator C: the solved system is
C^T A C augmented with one integral-mean pressure-gauge row per layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .linalg import CsrMatrix
from .mesh import Mesh, Subdomain

__all__ = [
    "BodyForce",
    "MixedSpace",
    "StokesOperator",
    "CouplingMode",
    "DofLayout",
    "SparseSystem",
    "build_space",
    "assemble_stokes",
    "assemble_interface_friction",
    "assemble_coupled_system",
    "assemble_robin_subproblem",
    "assemble_dirichlet_subproblem",
    "check_periodic_trace",
    "dirichlet_trace_lift",
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

    def constraint_table(self) -> list[tuple]:
        """Flat listing used by tests: (kind, ...) tuples."""
        rows: list[tuple] = [("zero_dirichlet", "velocity", int(d)) for d in self.dirichlet_vdofs]
        rows += [("periodic", "velocity", int(s), int(m)) for s, m in self.periodic_vdofs]
        rows += [("periodic", "pressure", int(s), int(m)) for s, m in self.periodic_pdofs]
        rows.append(("pressure_gauge", self.subdomain.name.lower()))
        return rows


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
    unique_edges, edge_inverse = np.unique(edges, axis=0, return_inverse=True)
    mid_coords = 0.5 * (mesh.vertices[unique_edges[:, 0]] + mesh.vertices[unique_edges[:, 1]])
    raw_coords = np.vstack([pcoords, mid_coords])
    perm_v = np.lexsort((raw_coords[:, 1], raw_coords[:, 0]))
    rank_v = np.empty(len(raw_coords), dtype=np.int64)
    rank_v[perm_v] = np.arange(len(raw_coords))
    velocity_nodes = raw_coords[perm_v]
    cells_raw = np.hstack(
        [
            np.searchsorted(vused, tris),
            len(vused) + edge_inverse.reshape(-1, 3),
        ]
    )
    velocity_cells = rank_v[cells_raw]

    x, z = velocity_nodes[:, 0], velocity_nodes[:, 1]
    wall_z = geom.z_plus if subdomain == Subdomain.UPPER else geom.z_minus
    wall = np.nonzero(z == wall_z)[0]
    iface = np.nonzero(z == 0.0)[0]  # already ascending in x (lexicographic)
    dirichlet = np.sort(np.concatenate([2 * wall, 2 * wall + 1, 2 * iface + 1]))

    def periodic_pairs(coords: np.ndarray) -> np.ndarray:
        cx, cz = coords[:, 0], coords[:, 1]
        left = {cz[k]: k for k in np.nonzero(cx == 0.0)[0]}
        slaves = np.nonzero(cx == geom.length)[0]
        pairs = []
        for s in slaves:
            m = left.get(cz[s])
            if m is None:
                raise ValueError("periodic boundary nodes do not match between x=0 and x=L")
            pairs.append((s, m))
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)

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
    j11 = pts[:, 1, 0] - pts[:, 0, 0]
    j21 = pts[:, 1, 1] - pts[:, 0, 1]
    j12 = pts[:, 2, 0] - pts[:, 0, 0]
    j22 = pts[:, 2, 1] - pts[:, 0, 1]
    det = j11 * j22 - j12 * j21
    inv_j = np.empty((len(pts), 2, 2))
    inv_j[:, 0, 0] = j22 / det
    inv_j[:, 0, 1] = -j12 / det
    inv_j[:, 1, 0] = -j21 / det
    inv_j[:, 1, 1] = j11 / det
    return pts, inv_j, det


def _scatter(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape) -> scipy.sparse.csr_matrix:
    m = scipy.sparse.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return m.tocsr()


@dataclass(frozen=True)
class StokesOperator:
    """Raw (unconstrained) per-layer operators.

    stiffness is the unweighted grad-grad matrix on vector P2 dofs; viscous is
    nu * stiffness.  divergence maps pressure to velocity test space with the
    sign of -(p, div v); the pressure equation uses its transpose.  gauge is
    the vector of P1 basis integrals for the zero-mean pressure constraint.
    """

    space: MixedSpace
    nu: float
    stiffness: scipy.sparse.csr_matrix
    viscous: scipy.sparse.csr_matrix
    divergence: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix
    load: np.ndarray
    gauge: np.ndarray


def assemble_stokes(space: MixedSpace, nu: float, force: BodyForce) -> StokesOperator:
    if not (np.isfinite(nu) and nu > 0.0):
        raise ValueError(f"viscosity must be positive and finite, got {nu}")
    tri_pts, inv_j, det = _cell_geometry(space)
    area_w = 0.5 * det  # positive areas for counter-clockwise cells
    nt = len(det)
    nv = len(space.velocity_nodes)
    npn = len(space.pressure_nodes)

    p2v = _p2_values(_TRI_POINTS)               # (nq, 6)
    p2g_ref = _p2_reference_grads(_TRI_POINTS)  # (nq, 6, 2)
    p1v = _TRI_POINTS                            # (nq, 3)

    # physical gradients per cell and quad point: (nt, nq, 6, 2)
    grads = np.einsum("qid,tdk->tqik", p2g_ref, inv_j)

    w = _TRI_WEIGHTS[None, :, None, None]
    k_local = np.einsum("tqik,tqjk->tij", grads * w, grads) * area_w[:, None, None]
    m_local = (
        np.einsum("q,qi,qj->ij", _TRI_WEIGHTS, p2v, p2v)[None, :, :] * area_w[:, None, None]
    )
    # divergence: b_local[c][t, i, j] = -sum_q w_q area psi_j(q) dphi_i/dx_c
    b_local = [
        -np.einsum("q,tqi,qj->tij", _TRI_WEIGHTS, grads[:, :, :, c], p1v) * area_w[:, None, None]
        for c in (0, 1)
    ]

    cv = space.velocity_cells
    cp = space.pressure_cells
    rows_vv = np.broadcast_to(cv[:, :, None], (nt, 6, 6))
    cols_vv = np.broadcast_to(cv[:, None, :], (nt, 6, 6))

    k_scalar = _scatter(rows_vv, cols_vv, k_local, (nv, nv))
    m_scalar = _scatter(rows_vv, cols_vv, m_local, (nv, nv))
    eye2 = scipy.sparse.identity(2, format="csr")
    stiffness = scipy.sparse.kron(k_scalar, eye2, format="csr")
    mass = scipy.sparse.kron(m_scalar, eye2, format="csr")

    rows_vp = np.broadcast_to(cv[:, :, None], (nt, 6, 3))
    cols_vp = np.broadcast_to(cp[:, None, :], (nt, 6, 3))
    divergence = (
        _scatter(2 * rows_vp, cols_vp, b_local[0], (2 * nv, npn))
        + _scatter(2 * rows_vp + 1, cols_vp, b_local[1], (2 * nv, npn))
    ).tocsr()

    # load vector by direct quadrature of the force at physical points
    xq = np.einsum("qa,tad->tqd", p1v, tri_pts)  # (nt, nq, 2)
    fx, fz = force.sample(xq[:, :, 0], xq[:, :, 1])
    load = np.zeros(2 * nv)
    lx = np.einsum("q,tq,qi->ti", _TRI_WEIGHTS, fx, p2v) * area_w[:, None]
    lz = np.einsum("q,tq,qi->ti", _TRI_WEIGHTS, fz, p2v) * area_w[:, None]
    np.add.at(load, 2 * cv, lx)
    np.add.at(load, 2 * cv + 1, lz)

    gauge = np.zeros(npn)
    g_local = np.einsum("q,qj->j", _TRI_WEIGHTS, p1v)[None, :] * area_w[:, None]
    np.add.at(gauge, cp, g_local)

    return StokesOperator(
        space=space,
        nu=nu,
        stiffness=stiffness,
        viscous=(nu * stiffness).tocsr(),
        divergence=divergence,
        mass=mass,
        load=load,
        gauge=gauge,
    )


def _interface_trace_mass(x: np.ndarray) -> scipy.sparse.csr_matrix:
    """1D quadratic mass matrix over the interface nodes at positions x
    (vertices interleaved with midpoints, ascending)."""
    n = len(x)
    if n < 3 or n % 2 == 0:
        raise ValueError("interface node list must interleave vertices and midpoints")
    left = np.arange(0, n - 2, 2)
    seg = np.column_stack([left, left + 2, left + 1])  # (ns, 3): a, b, mid
    lengths = x[left + 2] - x[left]
    nvals = _seg_values(_SEG_POINTS)  # (3, 3)
    m_ref = np.einsum("q,qi,qj->ij", _SEG_WEIGHTS, nvals, nvals)
    local = m_ref[None, :, :] * lengths[:, None, None]
    rows = np.broadcast_to(seg[:, :, None], local.shape)
    cols = np.broadcast_to(seg[:, None, :], local.shape)
    return _scatter(rows, cols, local, (n, n))


def assemble_interface_friction(
    space_upper: MixedSpace, space_lower: MixedSpace
) -> scipy.sparse.csr_matrix:
    """Quadratic trace mass matrix M of the interface z = 0, over the
    interface nodes in ascending x.

    The friction law couples the horizontal traces through M: the penalty
    form is alpha (u_upper - u_lower)^T M (v_upper - v_lower), and the
    friction solve's multiplier border is built from it.  Both layers must
    share the interface discretization.
    """
    xu = space_upper.interface_x
    if not np.array_equal(xu, space_lower.interface_x):
        raise ValueError("interface discretizations of the two layers do not match")
    return _interface_trace_mass(xu)


# ---------------------------------------------------------------------------
# constraint reduction


def _reduction(
    n_raw: int, pairs: np.ndarray, fixed: np.ndarray, values: np.ndarray
) -> tuple[scipy.sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Eliminate identified and Dirichlet raw dofs.

    pairs (k, 2) identifies raw dofs; the classes are the connected
    components of that graph.  A class with a member in `fixed` is dropped
    and every member takes that member's value from `values`.  Every other
    class becomes one reduced column, represented by its smallest raw index,
    so the reduced numbering inherits the lexicographic raw order.  Returns
    the 0/1 reduction operator C (raw x reduced), the inhomogeneous-value
    vector x_bc, and the raw -> reduced column map (-1 where dropped).
    """
    graph = scipy.sparse.coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n_raw, n_raw)
    )
    n_class, label = scipy.sparse.csgraph.connected_components(graph, directed=False)
    class_dropped = np.zeros(n_class, dtype=bool)
    class_dropped[label[fixed]] = True
    class_value = np.zeros(n_class)
    class_value[label[fixed]] = values
    dropped = class_dropped[label]

    _, smallest = np.unique(label, return_index=True)
    kept = smallest[~class_dropped]
    kept.sort()
    class_col = np.full(n_class, -1, dtype=np.int64)
    class_col[label[kept]] = np.arange(len(kept))
    col_of = class_col[label]

    keep = np.nonzero(~dropped)[0]
    c = scipy.sparse.csr_matrix(
        (np.ones(len(keep)), (keep, col_of[keep])), shape=(n_raw, len(kept))
    )
    return c, class_value[label], col_of


_FIELD_VELOCITY = "velocity"
_FIELD_PRESSURE = "pressure"


@dataclass(frozen=True)
class DofLayout:
    """Raw-block layout plus the reduction taking raw dofs to solved rows.

    Solved vector = [reduced dofs, one gauge multiplier per layer].
    """

    spaces: dict
    offsets: dict           # (subdomain, field) -> raw offset
    n_raw: int
    reduction: scipy.sparse.csr_matrix = field(repr=False)
    x_bc: np.ndarray = field(repr=False)
    col_of: np.ndarray = field(repr=False)
    gauge_subdomains: tuple

    @property
    def n_reduced(self) -> int:
        return self.reduction.shape[1]

    @property
    def n_gauge(self) -> int:
        return len(self.gauge_subdomains)

    @property
    def n_rows(self) -> int:
        return self.n_reduced + self.n_gauge

    def raw_index(self, subdomain: Subdomain, fieldname: str, node: int, comp: int = 0) -> int:
        off = self.offsets[(subdomain, fieldname)]
        if fieldname == _FIELD_VELOCITY:
            return off + 2 * node + comp
        return off + node

    def row_of(self, subdomain: Subdomain, fieldname: str, node: int, comp: int = 0) -> int:
        """Solved-system row of a raw dof, or -1 if constrained away."""
        return int(self.col_of[self.raw_index(subdomain, fieldname, node, comp)])

    def trace_map(self, sub: Subdomain) -> scipy.sparse.csr_matrix:
        """Solved vector -> horizontal velocity at `sub`'s interface nodes,
        ascending x: the interface rows of the reduction, zero on the gauge
        columns.  A trace prescribed as Dirichlet data lives in x_bc instead."""
        rows = self.reduction[_interface_dofs(self.offsets, self.spaces[sub])]
        gauge = scipy.sparse.csr_matrix((rows.shape[0], self.n_gauge))
        return scipy.sparse.hstack([rows, gauge], format="csr")

    def reduce_rhs(self, b_raw: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_rows)
        out[: self.n_reduced] = self.reduction.T @ b_raw
        return out

    def expand(self, x: np.ndarray) -> dict:
        """Split a solved vector into raw per-(subdomain, field) vectors with
        constraints materialized; gauge multipliers under ('gauge', subdomain)."""
        raw = self.reduction @ x[: self.n_reduced] + self.x_bc
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
    """Assembled, constraint-reduced linear system with its dof layout."""

    matrix: CsrMatrix
    rhs: np.ndarray
    layout: DofLayout


class CouplingMode(Enum):
    CONTINUITY = "continuity"
    UNCOUPLED = "uncoupled"


def _interface_dofs(offsets: dict, space: MixedSpace) -> np.ndarray:
    """Raw indices of the horizontal velocity at the interface nodes."""
    return offsets[(space.subdomain, _FIELD_VELOCITY)] + 2 * space.interface_nodes


def _build_layout(
    spaces: list[MixedSpace],
    offsets: dict,
    n_raw: int,
    pairs: list[np.ndarray] = (),
    fixed: list[np.ndarray] = (),
    values: list[np.ndarray] = (),
) -> DofLayout:
    """Every layer's periodic identification and zero velocity dofs, plus
    the identified raw `pairs` and the `fixed` raw dofs prescribed to
    `values`."""
    pairs, fixed, values = list(pairs), list(fixed), list(values)
    for sp in spaces:
        ov = offsets[(sp.subdomain, _FIELD_VELOCITY)]
        op = offsets[(sp.subdomain, _FIELD_PRESSURE)]
        pairs += [ov + sp.periodic_vdofs, op + sp.periodic_pdofs]
        fixed.append(ov + sp.dirichlet_vdofs)
        values.append(np.zeros(len(sp.dirichlet_vdofs)))
    c, x_bc, col_of = _reduction(
        n_raw, np.vstack(pairs), np.concatenate(fixed), np.concatenate(values)
    )
    return DofLayout(
        spaces={sp.subdomain: sp for sp in spaces},
        offsets=offsets,
        n_raw=n_raw,
        reduction=c,
        x_bc=x_bc,
        col_of=col_of,
        gauge_subdomains=tuple(sp.subdomain for sp in spaces),
    )


def _offsets_for(spaces: list[MixedSpace]) -> tuple[dict, int]:
    offsets = {}
    pos = 0
    for sp in spaces:
        offsets[(sp.subdomain, _FIELD_VELOCITY)] = pos
        pos += sp.n_velocity_dofs
        offsets[(sp.subdomain, _FIELD_PRESSURE)] = pos
        pos += sp.n_pressure_dofs
    return offsets, pos


def _raw_matrix(ops: list[StokesOperator], layout: DofLayout) -> scipy.sparse.csr_matrix:
    """The unconstrained block matrix [[nu K, D], [D^T, 0]] of every layer."""
    offsets = layout.offsets
    rows = []
    cols = []
    vals = []

    def add_block(mat: scipy.sparse.spmatrix, r0: int, c0: int):
        coo = mat.tocoo()
        rows.append(coo.row + r0)
        cols.append(coo.col + c0)
        vals.append(coo.data)

    for op in ops:
        ov = offsets[(op.space.subdomain, _FIELD_VELOCITY)]
        op_ = offsets[(op.space.subdomain, _FIELD_PRESSURE)]
        add_block(op.viscous, ov, ov)
        add_block(op.divergence, ov, op_)
        add_block(op.divergence.T, op_, ov)

    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(layout.n_raw, layout.n_raw),
    ).tocsr()


def _assemble_reduced(
    ops: list[StokesOperator],
    layout: DofLayout,
    extra_raw: scipy.sparse.spmatrix | None,
    extra_rhs_raw: np.ndarray | None,
) -> SparseSystem:
    offsets = layout.offsets
    n_raw = layout.n_raw
    b_raw = np.zeros(n_raw)
    for op in ops:
        ov = offsets[(op.space.subdomain, _FIELD_VELOCITY)]
        b_raw[ov : ov + op.space.n_velocity_dofs] = op.load

    a_raw = _raw_matrix(ops, layout)
    if extra_raw is not None:
        a_raw = (a_raw + extra_raw).tocsr()
    if extra_rhs_raw is not None:
        b_raw = b_raw + extra_rhs_raw

    c = layout.reduction
    a_red = (c.T @ a_raw @ c).tocsr()
    b_red = c.T @ (b_raw - a_raw @ layout.x_bc)

    # gauge rows: one zero-mean constraint per layer's pressure
    g_rows = []
    for k, op in enumerate(ops):
        g_raw = np.zeros(n_raw)
        op_ = offsets[(op.space.subdomain, _FIELD_PRESSURE)]
        g_raw[op_ : op_ + op.space.n_pressure_dofs] = op.gauge
        g_rows.append(c.T @ g_raw)
    g = scipy.sparse.csr_matrix(np.vstack(g_rows)) if g_rows else None

    n_g = len(ops)
    full = scipy.sparse.bmat(
        [[a_red, g.T], [g, None]], format="csr"
    ) if n_g else a_red
    rhs = np.concatenate([b_red, np.zeros(n_g)])
    return SparseSystem(matrix=CsrMatrix.from_scipy(full), rhs=rhs, layout=layout)


def assemble_coupled_system(
    op_upper: StokesOperator, op_lower: StokesOperator, mode: CouplingMode
) -> SparseSystem:
    """Assemble the two-layer system from the layers' raw operators in the
    requested coupling mode.

    UNCOUPLED leaves the layers independent (zero interface stress); the
    friction solve borders it with the interface-traction multiplier.
    CONTINUITY identifies the horizontal interface traces (the alpha = inf
    limit of the friction law).
    """
    spaces = [op_upper.space, op_lower.space]
    offsets, n_raw = _offsets_for(spaces)
    if mode == CouplingMode.CONTINUITY:
        space_u, space_l = spaces
        if not np.array_equal(space_u.interface_x, space_l.interface_x):
            raise ValueError("interface discretizations of the two layers do not match")
        pairs = [np.column_stack([_interface_dofs(offsets, sp) for sp in spaces])]
    elif mode == CouplingMode.UNCOUPLED:
        pairs = []
    else:
        raise ValueError(f"unknown coupling mode {mode!r}")
    layout = _build_layout(spaces, offsets, n_raw, pairs=pairs)
    return _assemble_reduced([op_upper, op_lower], layout, None, None)


def _single_layer_layout(
    space: MixedSpace, trace_values: np.ndarray | None = None
) -> DofLayout:
    """One layer's layout; trace_values, if given, prescribe the horizontal
    interface velocity (inhomogeneous Dirichlet data)."""
    offsets, n_raw = _offsets_for([space])
    if trace_values is None:
        return _build_layout([space], offsets, n_raw)
    fixed = [_interface_dofs(offsets, space)]
    return _build_layout([space], offsets, n_raw, fixed=fixed, values=[trace_values])


def _check_trace(space: MixedSpace, trace: np.ndarray, what: str) -> np.ndarray:
    trace = np.asarray(trace, dtype=np.float64)
    if trace.shape != (len(space.interface_nodes),):
        raise ValueError(
            f"{what} has shape {trace.shape}, expected ({len(space.interface_nodes)},)"
        )
    return trace


def check_periodic_trace(space: MixedSpace, trace: np.ndarray, what: str = "trace") -> np.ndarray:
    """A trace prescribed pointwise at the layer's interface nodes: one entry
    per node, and one value at the periodically identified end nodes x = 0
    and x = L (the reduction keeps a single dof for both)."""
    trace = _check_trace(space, trace, what)
    if trace[0] != trace[-1]:
        raise ValueError(
            f"{what} must be periodic, got {trace[0]} at x = 0 and {trace[-1]} at x = L"
        )
    return trace


def assemble_robin_subproblem(
    op: StokesOperator,
    alpha: float,
    neighbor_trace: np.ndarray,
) -> SparseSystem:
    """One layer with the friction condition against a frozen neighbor trace.

    Adds alpha * M_trace on the layer's own horizontal interface dofs and
    alpha * M_trace @ neighbor_trace to the rhs: the Robin half-step of the
    alternating solver.  neighbor_trace holds the neighbor's horizontal
    velocity at the interface nodes in ascending-x order.
    """
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"friction coefficient must be finite and >= 0, got {alpha}")
    space = op.space
    neighbor_trace = _check_trace(space, neighbor_trace, "neighbor trace")
    layout = _single_layer_layout(space)
    n_raw = layout.n_raw

    m_iface = _interface_trace_mass(space.interface_x)
    ifx = _interface_dofs(layout.offsets, space)
    coo = m_iface.tocoo()
    extra = scipy.sparse.coo_matrix(
        (alpha * coo.data, (ifx[coo.row], ifx[coo.col])), shape=(n_raw, n_raw)
    ).tocsr()
    extra_rhs = np.zeros(n_raw)
    extra_rhs[ifx] = alpha * (m_iface @ neighbor_trace)
    return _assemble_reduced([op], layout, extra, extra_rhs)


def assemble_dirichlet_subproblem(op: StokesOperator, trace_values: np.ndarray) -> SparseSystem:
    """One layer with the horizontal interface velocity prescribed pointwise
    (inhomogeneous Dirichlet data): the half-step of the plain
    trace-swapping iteration.  The trace must be periodic
    (`check_periodic_trace`)."""
    trace_values = check_periodic_trace(op.space, trace_values)
    return _assemble_reduced([op], _single_layer_layout(op.space, trace_values), None, None)


def dirichlet_trace_lift(op: StokesOperator, layout: DofLayout) -> scipy.sparse.csr_matrix:
    """How a prescribed interface trace enters the Dirichlet subproblem's rhs.

    The matrix of `assemble_dirichlet_subproblem` does not depend on the
    trace, and its rhs is rhs(0) - lift @ trace, where lift holds the
    reduced interface columns of the raw matrix (zero on the gauge rows).
    The trace must take one value at the periodically identified end nodes.
    """
    ifx = _interface_dofs(layout.offsets, op.space)
    lift = layout.reduction.T @ _raw_matrix([op], layout)[:, ifx]
    gauge = scipy.sparse.csr_matrix((layout.n_gauge, len(ifx)))
    return scipy.sparse.vstack([lift, gauge], format="csr")
