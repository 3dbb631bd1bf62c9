"""Structured triangulations of a two-layer periodic channel.

The domain is a rectangle [0, L] x [z_minus, z_plus] split by the horizontal
line z = 0 into an upper and a lower layer.  Meshes are built so that z = 0 is
a mesh line: no triangle straddles the interface, and every interface edge is
shared by exactly one triangle of each layer.  The left and right sides are
periodic: every x = 0 vertex has an x = L partner at the same z.  The mesh
holds coordinates and triangles only; `fem.build_space` finds the walls, the
interface and the periodic partners from the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "Geometry",
    "Subdomain",
    "Mesh",
    "build_layered_mesh",
    "validate_mesh",
    "mesh_size",
]


class Subdomain(IntEnum):
    """Layer label; the interface sits at z = 0 between the two."""

    LOWER = 0
    UPPER = 1


@dataclass(frozen=True)
class Geometry:
    """Channel dimensions: period `length`, layer heights via z_plus/z_minus."""

    length: float = 100.0
    z_plus: float = 50.0
    z_minus: float = -5.0

    def __post_init__(self) -> None:
        if not (self.length > 0.0):
            raise ValueError(f"period length must be positive, got {self.length}")
        if not (self.z_plus > 0.0):
            raise ValueError(f"z_plus must be positive, got {self.z_plus}")
        if not (self.z_minus < 0.0):
            raise ValueError(f"z_minus must be negative, got {self.z_minus}")


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of the two-layer channel.

    vertices            (n_vertices, 2) float64 coordinates (x, z)
    triangles           (n_triangles, 3) vertex indices, counter-clockwise
    triangle_subdomain  (n_triangles,) Subdomain value per triangle
    """

    geometry: Geometry
    vertices: np.ndarray
    triangles: np.ndarray
    triangle_subdomain: np.ndarray


def build_layered_mesh(geometry: Geometry, nx: int, nz_upper: int, nz_lower: int) -> Mesh:
    """Build the structured mesh: nx columns, nz_lower + nz_upper rows of
    quads, each quad split into two triangles along its SW-NE diagonal.
    """
    if nx < 1 or nz_upper < 1 or nz_lower < 1:
        raise ValueError(
            f"cell counts must be >= 1, got nx={nx}, nz_upper={nz_upper}, nz_lower={nz_lower}"
        )

    x = np.linspace(0.0, geometry.length, nx + 1)
    z = np.concatenate(
        [
            np.linspace(geometry.z_minus, 0.0, nz_lower + 1),
            np.linspace(0.0, geometry.z_plus, nz_upper + 1)[1:],
        ]
    )
    nz = nz_lower + nz_upper
    xx, zz = np.meshgrid(x, z)  # row j = constant z, column i = constant x
    vertices = np.column_stack([xx.ravel(), zz.ravel()])

    def vid(i: int | np.ndarray, j: int | np.ndarray):
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(nz))
    ii, jj = ii.ravel(), jj.ravel()
    v00 = vid(ii, jj)
    v10 = vid(ii + 1, jj)
    v01 = vid(ii, jj + 1)
    v11 = vid(ii + 1, jj + 1)
    # both triangles counter-clockwise: (v00, v10, v11) and (v00, v11, v01)
    triangles = np.empty((2 * nx * nz, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])
    subdomain = np.where(np.repeat(jj, 2) < nz_lower, Subdomain.LOWER, Subdomain.UPPER)
    subdomain = subdomain.astype(np.int64)

    return Mesh(
        geometry=geometry,
        vertices=vertices,
        triangles=triangles,
        triangle_subdomain=subdomain,
    )


def _triangle_areas(mesh: Mesh) -> np.ndarray:
    p = mesh.vertices[mesh.triangles]  # (nT, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def validate_mesh(mesh: Mesh) -> list[str]:
    """Check the structural invariants and return one message per violation.

    An empty list means the mesh is valid.  Checks: positive (counter-
    clockwise) triangles, no triangle straddling z = 0, a consistent
    subdomain label per triangle, and interface edges shared by exactly one
    triangle per layer.  Unmatched periodic sides are rejected by
    `fem.build_space`, which pairs the x = 0 and x = L nodes.
    """
    bad: list[str] = []
    areas = _triangle_areas(mesh)
    for t in np.nonzero(areas <= 0.0)[0]:
        bad.append(f"triangle {t}: non-positive orientation (signed area {areas[t]:g})")

    zs = mesh.vertices[mesh.triangles][:, :, 1]
    crosses = np.logical_and(zs.min(axis=1) < 0.0, zs.max(axis=1) > 0.0)
    for t in np.nonzero(crosses)[0]:
        bad.append(f"triangle {t}: crosses the interface z=0")
    upper_mislabeled = np.logical_and(zs.max(axis=1) > 0.0,
                                      mesh.triangle_subdomain != Subdomain.UPPER)
    lower_mislabeled = np.logical_and(zs.min(axis=1) < 0.0,
                                      mesh.triangle_subdomain != Subdomain.LOWER)
    for t in np.nonzero(np.logical_and(~crosses, upper_mislabeled | lower_mislabeled))[0]:
        bad.append(f"triangle {t}: subdomain label does not match its z range")

    # every z=0 edge must belong to exactly one triangle of each layer
    on_iface = np.isclose(mesh.vertices[:, 1], 0.0)
    edges = np.sort(mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]], axis=2)  # (nT, 3, 2)
    along = on_iface[edges].all(axis=2)
    n_v = len(mesh.vertices)
    keys, edge = np.unique(edges[along, 0] * n_v + edges[along, 1], return_inverse=True)
    side = np.broadcast_to(mesh.triangle_subdomain[:, None], along.shape)[along]
    n_lo = np.bincount(edge[side == Subdomain.LOWER], minlength=len(keys))
    n_up = np.bincount(edge[side == Subdomain.UPPER], minlength=len(keys))
    for k in np.nonzero((n_lo != 1) | (n_up != 1))[0].tolist():
        a, b = divmod(int(keys[k]), n_v)
        bad.append(
            f"interface edge ({a},{b}): {n_lo[k]} lower / {n_up[k]} upper adjacent triangles"
        )

    return bad


def mesh_size(mesh: Mesh) -> float:
    """Mesh size h: the longest triangle edge over the whole mesh.

    For the right triangles produced by :func:`build_layered_mesh` the longest
    edge is the hypotenuse, which equals the circumscribed-circle diameter.
    """
    p = mesh.vertices[mesh.triangles]
    lengths = [
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
        np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
        np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
    ]
    return float(np.max(lengths))
